package seg

import (
	"fmt"
	"strings"
)

// Dot renders the SEG in Graphviz DOT syntax. Value vertices are ellipses,
// use vertices are boxes colored by role, and edges show their conditions
// (unconditional edges are unlabeled). The output is deterministic in node
// creation order.
func (g *Graph) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", "seg_"+g.Name())
	b.WriteString("  rankdir=LR;\n  node [fontname=\"monospace\", fontsize=9];\n")

	for n := int32(0); int(n) < len(g.nodes); n++ {
		switch nd := &g.nodes[n]; nd.Kind {
		case NValue:
			fmt.Fprintf(&b, "  n%d [label=%q, shape=ellipse];\n", n, g.ValueString(g.Val(n)))
		default:
			color := map[UseRole]string{
				RoleDerefAddr: "lightcoral",
				RoleFreeArg:   "orange",
				RoleCallArg:   "lightblue",
				RoleRetArg:    "lightgreen",
				RoleStoreVal:  "lightgray",
			}[nd.Role]
			fmt.Fprintf(&b, "  n%d [label=%q, shape=box, style=filled, fillcolor=%q];\n",
				n, g.NodeString(n), color)
		}
	}
	for n := int32(0); int(n) < len(g.nodes); n++ {
		for _, e := range g.Succs(n) {
			if c := g.Cond(e); c.IsTrue() {
				fmt.Fprintf(&b, "  n%d -> n%d;\n", n, e.To)
			} else {
				fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", n, e.To, c.String())
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
