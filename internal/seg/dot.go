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
	fmt.Fprintf(&b, "digraph %q {\n", "seg_"+g.Fn.Name)
	b.WriteString("  rankdir=LR;\n  node [fontname=\"monospace\", fontsize=9];\n")

	for i := 0; i < g.numNodes; i++ {
		n := g.Node(i)
		switch n.Kind {
		case NValue:
			fmt.Fprintf(&b, "  n%d [label=%q, shape=ellipse];\n", i, n.Val.String())
		default:
			color := map[UseRole]string{
				RoleDerefAddr: "lightcoral",
				RoleFreeArg:   "orange",
				RoleCallArg:   "lightblue",
				RoleRetArg:    "lightgreen",
				RoleStoreVal:  "lightgray",
			}[n.Role]
			fmt.Fprintf(&b, "  n%d [label=%q, shape=box, style=filled, fillcolor=%q];\n",
				i, n.String(), color)
		}
	}
	for i := 0; i < g.numNodes; i++ {
		n := g.Node(i)
		for _, e := range g.Succs(n) {
			if e.Cond.IsTrue() {
				fmt.Fprintf(&b, "  n%d -> n%d;\n", n.idx, e.To.idx)
			} else {
				fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", n.idx, e.To.idx, e.Cond.String())
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
