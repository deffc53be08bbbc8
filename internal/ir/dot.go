package ir

import (
	"fmt"
	"strings"
)

// DotCFG renders the function's control-flow graph in Graphviz DOT syntax,
// one record node per basic block. Branch edges are labeled T/F.
func DotCFG(f *Func) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", "cfg_"+f.Name)
	b.WriteString("  node [shape=box, fontname=\"monospace\", fontsize=9];\n")
	for _, blk := range f.Blocks {
		var lines []string
		lines = append(lines, blk.String()+":")
		for _, in := range blk.Instrs {
			lines = append(lines, "  "+in.String())
		}
		fmt.Fprintf(&b, "  %s [label=%q];\n", blk, strings.Join(lines, "\\l")+"\\l")
	}
	for _, blk := range f.Blocks {
		term := blk.Term()
		if term == nil {
			continue
		}
		switch term.Op {
		case OpBr:
			fmt.Fprintf(&b, "  %s -> %s [label=\"T\"];\n", blk, term.Blocks()[0])
			fmt.Fprintf(&b, "  %s -> %s [label=\"F\"];\n", blk, term.Blocks()[1])
		case OpJmp:
			fmt.Fprintf(&b, "  %s -> %s;\n", blk, term.Blocks()[0])
		}
	}
	b.WriteString("}\n")
	return b.String()
}
