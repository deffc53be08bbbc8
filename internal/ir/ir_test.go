package ir

import (
	"strings"
	"testing"

	"repro/internal/minic"
)

// buildDiamond constructs a small valid function by hand:
//
//	b0: br c b1 b2
//	b1: x = 1; jmp b3
//	b2: x = 2; jmp b3
//	b3: ret x
func buildDiamond() *Func {
	f := NewFunc("f", minic.IntType, 0, minic.Pos{})
	c := f.NewParam("c", minic.BoolType, false)
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry, f.Exit = b0, b3
	x := f.NewDef("x", minic.IntType)

	f.Append(b0, Instr{Op: OpBr, Args: []*Value{c}, Ext: &Ext{Blocks: []*Block{b1, b2}}})
	Connect(b0, b1)
	Connect(b0, b2)
	f.Append(b1, Instr{Op: OpCopy, Dst: x, Args: []*Value{f.ConstInt(1)}})
	f.Append(b1, Instr{Op: OpJmp, Ext: &Ext{Blocks: []*Block{b3}}})
	Connect(b1, b3)
	f.Append(b2, Instr{Op: OpCopy, Dst: x, Args: []*Value{f.ConstInt(2)}})
	f.Append(b2, Instr{Op: OpJmp, Ext: &Ext{Blocks: []*Block{b3}}})
	Connect(b2, b3)
	f.Append(b3, Instr{Op: OpRet, Args: []*Value{x}})
	return f
}

func TestVerifyAcceptsValid(t *testing.T) {
	if err := Verify(buildDiamond()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsMissingTerminator(t *testing.T) {
	f := buildDiamond()
	b := f.Blocks[1]
	b.Instrs = b.Instrs[:1] // drop the jmp
	if err := Verify(f); err == nil {
		t.Fatal("missing terminator accepted")
	}
}

func TestVerifyRejectsEdgeMismatch(t *testing.T) {
	f := buildDiamond()
	// Remove a recorded successor without touching the terminator.
	f.Blocks[0].Succs = f.Blocks[0].Succs[:1]
	if err := Verify(f); err == nil {
		t.Fatal("succ mismatch accepted")
	}
}

func TestVerifyRejectsBadArity(t *testing.T) {
	f := NewFunc("g", minic.VoidType, 0, minic.Pos{})
	b := f.NewBlock()
	f.Entry, f.Exit = b, b
	// A load with no destination.
	f.Append(b, Instr{Op: OpLoad, Args: []*Value{f.ConstInt(0)}})
	f.Append(b, Instr{Op: OpRet})
	if err := Verify(f); err == nil {
		t.Fatal("bad arity accepted")
	}
}

func TestVerifyPhiInvariants(t *testing.T) {
	f := buildDiamond()
	b3 := f.Blocks[3]
	x2 := f.NewDef("x2", minic.IntType)
	// Phi with one arg but two preds: must be rejected.
	f.InsertAt(b3, 0, Instr{Op: OpPhi, Dst: x2, Args: []*Value{f.ConstInt(1)}, Ext: &Ext{Blocks: []*Block{f.Blocks[1]}}})
	if err := Verify(f); err == nil {
		t.Fatal("phi arity mismatch accepted")
	}
}

func TestConstInterning(t *testing.T) {
	f := NewFunc("h", minic.VoidType, 0, minic.Pos{})
	if f.ConstInt(7) != f.ConstInt(7) {
		t.Error("int consts not interned")
	}
	if f.ConstBool(true) != f.ConstBool(true) || f.ConstBool(true) == f.ConstBool(false) {
		t.Error("bool consts broken")
	}
	if f.ConstNull() != f.ConstNull() {
		t.Error("null const not interned")
	}
	if !f.ConstNull().IsConst() || f.NewDef("v", minic.IntType).IsConst() {
		t.Error("IsConst wrong")
	}
}

func TestPrinting(t *testing.T) {
	f := buildDiamond()
	s := f.String()
	for _, frag := range []string{"func f", "br c b1 b2", "x = 1", "ret x", "preds=[b1 b2]"} {
		if !strings.Contains(s, frag) {
			t.Errorf("print missing %q:\n%s", frag, s)
		}
	}
}

func TestInstrDefs(t *testing.T) {
	f := NewFunc("k", minic.VoidType, 0, minic.Pos{})
	b := f.NewBlock()
	f.Entry, f.Exit = b, b
	d1, d2 := f.NewDef("d1", minic.IntType), f.NewDef("d2", minic.IntType)
	call := f.Append(b, Instr{Op: OpCall, Sub: "g", Ext: &Ext{Dsts: []*Value{d1, nil, d2}}})
	defs := call.Defs()
	if len(defs) != 2 || defs[0] != d1 || defs[1] != d2 {
		t.Fatalf("Defs = %v", defs)
	}
}

func TestModuleLineCount(t *testing.T) {
	m := NewModule()
	f := buildDiamond()
	m.AddFunc(f)
	if m.LineCount() != f.NumInstrs() {
		t.Errorf("LineCount = %d, want %d", m.LineCount(), f.NumInstrs())
	}
	if m.Lookup("f") != f {
		t.Error("Lookup broken")
	}
}

func TestDotCFG(t *testing.T) {
	s := DotCFG(buildDiamond())
	for _, frag := range []string{"digraph", "b0 -> b1", "label=\"T\"", "label=\"F\"", "b2 -> b3"} {
		if !strings.Contains(s, frag) {
			t.Errorf("dot missing %q:\n%s", frag, s)
		}
	}
}

func TestAuxSpecString(t *testing.T) {
	p := AuxSpec{Root: 0, Depth: 2}
	g := AuxSpec{Root: -1, Global: "g", Depth: 1}
	if p.String() != "*(p0,2)" || g.String() != "*(@g,1)" {
		t.Errorf("specs render %q / %q", p, g)
	}
}

func TestPrintAllInstructionForms(t *testing.T) {
	f := NewFunc("all", minic.IntType, 0, minic.Pos{})
	b := f.NewBlock()
	f.Entry, f.Exit = b, b
	p := f.NewParam("p", minic.IntType.Pointer(), false)
	v := func(name string) *Value { return f.NewDef(name, minic.IntType) }
	pv := func(name string) *Value { return f.NewDef(name, minic.IntType.Pointer()) }

	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpCopy, Dst: v("a"), Args: []*Value{f.ConstInt(1)}}, "a = 1"},
		{Instr{Op: OpBin, Dst: v("b"), Sub: "+", Args: []*Value{f.ConstInt(1), f.ConstInt(2)}}, "b = 1 + 2"},
		{Instr{Op: OpUn, Dst: v("c"), Sub: "-", Args: []*Value{f.ConstInt(3)}}, "c = -3"},
		{Instr{Op: OpLoad, Dst: v("d"), Args: []*Value{p}}, "d = *p"},
		{Instr{Op: OpStore, Args: []*Value{p, f.ConstInt(4)}}, "*p = 4"},
		{Instr{Op: OpAlloc, Dst: pv("e"), Sub: "x"}, "e = alloc x"},
		{Instr{Op: OpMalloc, Dst: pv("g")}, "g = malloc"},
		{Instr{Op: OpFree, Args: []*Value{p}}, "free p"},
		{Instr{Op: OpGlobalAddr, Dst: pv("h"), Sub: "gv"}, "h = &@gv"},
		{Instr{Op: OpCall, Sub: "fn", Ext: &Ext{Dsts: []*Value{v("i"), nil, v("j")}}, Args: []*Value{p}}, "i, _, j = call fn(p)"},
	}
	for _, c := range cases {
		got := c.in.String()
		if got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	// Phi rendering.
	b2 := f.NewBlock()
	phi := Instr{Op: OpPhi, Dst: v("k"), Args: []*Value{f.ConstInt(1), f.ConstInt(2)}, Ext: &Ext{Blocks: []*Block{b, b2}}}
	if s := phi.String(); !strings.Contains(s, "phi(") || !strings.Contains(s, "b0:1") {
		t.Errorf("phi render = %q", s)
	}
}

func TestValueStringForms(t *testing.T) {
	f := NewFunc("vals", minic.VoidType, 0, minic.Pos{})
	if f.ConstInt(5).String() != "5" || f.ConstBool(true).String() != "true" ||
		f.ConstBool(false).String() != "false" || f.ConstNull().String() != "null" {
		t.Error("const rendering broken")
	}
	if f.NewDef("vv", minic.IntType).String() != "vv" {
		t.Error("var rendering broken")
	}
}
