package ir

import (
	"fmt"
	"strings"
)

// String renders an instruction in a compact textual form, e.g.
// "x2 = load p1" or "br c0 b1 b2".
func (in *Instr) String() string {
	var b strings.Builder
	switch in.Op {
	case OpCopy:
		fmt.Fprintf(&b, "%s = %s", in.Dst, in.Args[0])
	case OpBin:
		fmt.Fprintf(&b, "%s = %s %s %s", in.Dst, in.Args[0], in.Sub, in.Args[1])
	case OpUn:
		fmt.Fprintf(&b, "%s = %s%s", in.Dst, in.Sub, in.Args[0])
	case OpPhi:
		fmt.Fprintf(&b, "%s = phi(", in.Dst)
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s:%s", in.Blocks()[i], a)
		}
		b.WriteString(")")
	case OpLoad:
		fmt.Fprintf(&b, "%s = *%s", in.Dst, in.Args[0])
	case OpStore:
		fmt.Fprintf(&b, "*%s = %s", in.Args[0], in.Args[1])
	case OpAlloc:
		fmt.Fprintf(&b, "%s = alloc %s", in.Dst, in.Sub)
	case OpMalloc:
		fmt.Fprintf(&b, "%s = malloc", in.Dst)
	case OpFree:
		fmt.Fprintf(&b, "free %s", in.Args[0])
	case OpGlobalAddr:
		fmt.Fprintf(&b, "%s = &@%s", in.Dst, in.Sub)
	case OpFieldAddr:
		fmt.Fprintf(&b, "%s = &%s->%s", in.Dst, in.Args[0], in.Sub)
	case OpCall:
		var dsts []string
		for _, d := range in.Dsts() {
			if d == nil {
				dsts = append(dsts, "_")
			} else {
				dsts = append(dsts, d.String())
			}
		}
		if len(dsts) > 0 {
			fmt.Fprintf(&b, "%s = ", strings.Join(dsts, ", "))
		}
		fmt.Fprintf(&b, "call %s(", in.Callee())
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(")")
	case OpBr:
		fmt.Fprintf(&b, "br %s %s %s", in.Args[0], in.Blocks()[0], in.Blocks()[1])
	case OpJmp:
		fmt.Fprintf(&b, "jmp %s", in.Blocks()[0])
	case OpRet:
		b.WriteString("ret")
		for _, a := range in.Args {
			b.WriteString(" ")
			b.WriteString(a.String())
		}
	}
	return b.String()
}

// String renders the whole function as text.
func (f *Func) String() string {
	var b strings.Builder
	var params []string
	for _, p := range f.Params {
		mark := ""
		if p.Aux {
			mark = "~"
		}
		params = append(params, fmt.Sprintf("%s%s %s", mark, p.Type, p.Name()))
	}
	fmt.Fprintf(&b, "func %s(%s) %s {\n", f.Name, strings.Join(params, ", "), f.Ret)
	for _, blk := range f.Blocks {
		var preds []string
		for _, p := range blk.Preds {
			preds = append(preds, p.String())
		}
		fmt.Fprintf(&b, "%s: ; preds=[%s]\n", blk, strings.Join(preds, " "))
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", in)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders the whole module.
func (m *Module) String() string {
	var b strings.Builder
	for _, g := range m.Globals {
		fmt.Fprintf(&b, "global %s @%s\n", g.Type, g.Name)
	}
	for _, f := range m.Funcs {
		b.WriteString(f.String())
	}
	return b.String()
}
