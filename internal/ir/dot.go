package ir

import (
	"fmt"
	"strings"
)

// DotCFG renders the body's control-flow graph in Graphviz DOT syntax, one
// record node per basic block. Branch edges are labeled T/F.
func DotCFG(b *Body) string {
	var s strings.Builder
	fmt.Fprintf(&s, "digraph %q {\n", "cfg_"+b.Name())
	s.WriteString("  node [shape=box, fontname=\"monospace\", fontsize=9];\n")
	for _, blk := range b.Blocks() {
		lines := []string{BlockName(blk) + ":"}
		for _, in := range b.Instrs(blk) {
			lines = append(lines, "  "+b.InstrString(in))
		}
		fmt.Fprintf(&s, "  %s [label=%q];\n", BlockName(blk), strings.Join(lines, "\\l")+"\\l")
	}
	for _, blk := range b.Blocks() {
		term := b.Term(blk)
		if term < 0 {
			continue
		}
		succs := b.Succs(blk)
		switch b.In(term).Op {
		case OpBr:
			fmt.Fprintf(&s, "  %s -> %s [label=\"T\"];\n", BlockName(blk), BlockName(succs[0]))
			fmt.Fprintf(&s, "  %s -> %s [label=\"F\"];\n", BlockName(blk), BlockName(succs[1]))
		case OpJmp:
			fmt.Fprintf(&s, "  %s -> %s;\n", BlockName(blk), BlockName(succs[0]))
		}
	}
	s.WriteString("}\n")
	return s.String()
}
