package ir

import (
	"fmt"
	"strings"
)

// InstrString renders instruction in in a compact textual form, e.g.
// "x2 = load p1" or "br c0 b1 b2".
func (b *Body) InstrString(in int32) string {
	r := &b.instrs[in]
	args := b.Args(in)
	v := b.ValueString
	arg := func(i int) string { return v(args[i]) }
	edge := func(list []int32, i int) string { return BlockName(list[i]) }
	var s strings.Builder
	switch r.Op {
	case OpCopy:
		fmt.Fprintf(&s, "%s = %s", v(r.Dst), arg(0))
	case OpBin:
		fmt.Fprintf(&s, "%s = %s %s %s", v(r.Dst), arg(0), b.Sub(in), arg(1))
	case OpUn:
		fmt.Fprintf(&s, "%s = %s%s", v(r.Dst), b.Sub(in), arg(0))
	case OpPhi:
		fmt.Fprintf(&s, "%s = phi(", v(r.Dst))
		for i, a := range args {
			if i > 0 {
				s.WriteString(", ")
			}
			fmt.Fprintf(&s, "%s:%s", edge(b.Preds(r.Block), i), v(a))
		}
		s.WriteString(")")
	case OpLoad:
		fmt.Fprintf(&s, "%s = *%s", v(r.Dst), arg(0))
	case OpStore:
		fmt.Fprintf(&s, "*%s = %s", arg(0), arg(1))
	case OpAlloc:
		fmt.Fprintf(&s, "%s = alloc %s", v(r.Dst), b.Sub(in))
	case OpMalloc:
		fmt.Fprintf(&s, "%s = malloc", v(r.Dst))
	case OpFree:
		fmt.Fprintf(&s, "free %s", arg(0))
	case OpGlobalAddr:
		fmt.Fprintf(&s, "%s = &@%s", v(r.Dst), b.Sub(in))
	case OpFieldAddr:
		fmt.Fprintf(&s, "%s = &%s->%s", v(r.Dst), arg(0), b.Sub(in))
	case OpCall:
		var dsts []string
		for _, d := range b.Dsts(in) {
			if d < 0 {
				dsts = append(dsts, "_")
			} else {
				dsts = append(dsts, v(d))
			}
		}
		if len(dsts) > 0 {
			fmt.Fprintf(&s, "%s = ", strings.Join(dsts, ", "))
		}
		fmt.Fprintf(&s, "call %s(", b.Callee(in))
		for i, a := range args {
			if i > 0 {
				s.WriteString(", ")
			}
			s.WriteString(v(a))
		}
		s.WriteString(")")
	case OpBr:
		succs := b.Succs(r.Block)
		fmt.Fprintf(&s, "br %s %s %s", arg(0), edge(succs, 0), edge(succs, 1))
	case OpJmp:
		fmt.Fprintf(&s, "jmp %s", edge(b.Succs(r.Block), 0))
	case OpRet:
		s.WriteString("ret")
		for _, a := range args {
			s.WriteString(" ")
			s.WriteString(v(a))
		}
	}
	return s.String()
}

// String renders the whole function as text.
func (f *Func) String() string {
	var s strings.Builder
	var params []string
	for _, p := range f.Params {
		mark := ""
		if p.Aux {
			mark = "~"
		}
		params = append(params, fmt.Sprintf("%s%s %s", mark, p.Type, f.ValueName(p.ID)))
	}
	fmt.Fprintf(&s, "func %s(%s) %s {\n", f.Name, strings.Join(params, ", "), f.Ret)
	for _, blk := range f.Blocks() {
		var preds []string
		for _, p := range f.Preds(blk) {
			preds = append(preds, BlockName(p))
		}
		fmt.Fprintf(&s, "%s: ; preds=[%s]\n", BlockName(blk), strings.Join(preds, " "))
		for _, in := range f.Instrs(blk) {
			fmt.Fprintf(&s, "  %s\n", f.InstrString(in))
		}
	}
	s.WriteString("}\n")
	return s.String()
}

// String renders the whole module.
func (m *Module) String() string {
	var s strings.Builder
	for _, g := range m.Globals {
		fmt.Fprintf(&s, "global %s @%s\n", g.Type, g.Name)
	}
	for _, f := range m.Funcs {
		s.WriteString(f.String())
	}
	return s.String()
}
