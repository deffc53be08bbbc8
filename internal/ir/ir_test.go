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

	f.Append(b0, Spec{Op: OpBr, Args: []int32{c}})
	f.Connect(b0, b1)
	f.Connect(b0, b2)
	f.Append(b1, Spec{Op: OpCopy, Dst: x, Args: []int32{f.ConstInt(1)}})
	f.Append(b1, Spec{Op: OpJmp})
	f.Connect(b1, b3)
	f.Append(b2, Spec{Op: OpCopy, Dst: x, Args: []int32{f.ConstInt(2)}})
	f.Append(b2, Spec{Op: OpJmp})
	f.Connect(b2, b3)
	f.Append(b3, Spec{Op: OpRet, Args: []int32{x}})
	return f
}

func TestVerifyAcceptsValid(t *testing.T) {
	if err := Verify(buildDiamond()); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsMissingTerminator(t *testing.T) {
	f := buildDiamond()
	f.blocks[1].n-- // drop the jmp
	if err := Verify(f); err == nil {
		t.Fatal("missing terminator accepted")
	}
}

func TestVerifyRejectsEdgeMismatch(t *testing.T) {
	f := buildDiamond()
	// Remove a recorded successor without touching the terminator.
	f.blocks[0].nSuccs = 1
	if err := Verify(f); err == nil {
		t.Fatal("succ mismatch accepted")
	}
}

func TestVerifyRejectsBadArity(t *testing.T) {
	f := NewFunc("g", minic.VoidType, 0, minic.Pos{})
	b := f.NewBlock()
	f.Entry, f.Exit = b, b
	// A load with no destination.
	f.Append(b, Spec{Op: OpLoad, Dst: -1, Args: []int32{f.ConstInt(0)}})
	f.Append(b, Spec{Op: OpRet})
	if err := Verify(f); err == nil {
		t.Fatal("bad arity accepted")
	}
}

func TestVerifyPhiInvariants(t *testing.T) {
	f := buildDiamond()
	x2 := f.NewDef("x2", minic.IntType)
	// Phi with one arg but two preds: must be rejected.
	f.InsertAt(3, 0, Spec{Op: OpPhi, Dst: x2, Args: []int32{f.ConstInt(1)}})
	if err := Verify(f); err == nil {
		t.Fatal("phi arity mismatch accepted")
	}
}

func TestConstInterning(t *testing.T) {
	f := NewFunc("h", minic.VoidType, 0, minic.Pos{})
	if f.ConstInt(7) != f.ConstInt(7) || f.ConstInt(7) == f.ConstInt(8) || f.ConstInt(1<<40) != f.ConstInt(1<<40) {
		t.Error("int consts not interned")
	}
	if f.ConstBool(true) != f.ConstBool(true) || f.ConstBool(true) == f.ConstBool(false) {
		t.Error("bool consts broken")
	}
	if f.ConstNull() != f.ConstNull() {
		t.Error("null const not interned")
	}
	if !f.Value(f.ConstNull()).IsConst() || f.Value(f.NewDef("v", minic.IntType)).IsConst() {
		t.Error("IsConst wrong")
	}
	if f.IntVal(f.ConstInt(1<<40)) != 1<<40 || f.IntVal(f.ConstInt(-3)) != -3 {
		t.Error("constant payloads lost")
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
	call := f.Append(b, Spec{Op: OpCall, Sub: "g", Dsts: []int32{d1, -1, d2}})
	if dsts := f.Dsts(call); len(dsts) != 3 || dsts[0] != d1 || dsts[1] != -1 || dsts[2] != d2 || f.In(call).Dst != -1 {
		t.Fatalf("Dsts = %v, Dst = %d", dsts, f.In(call).Dst)
	}
	if f.Value(d1).Def != call || f.Value(d2).Def != call {
		t.Errorf("the receivers' Def is not the call")
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
	s := DotCFG(buildDiamond().Body)
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
	v := func(name string) int32 { return f.NewDef(name, minic.IntType) }
	pv := func(name string) int32 { return f.NewDef(name, minic.IntType.Pointer()) }
	args := func(vs ...int32) []int32 { return vs }

	cases := []struct {
		in   Spec
		want string
	}{
		{Spec{Op: OpCopy, Dst: v("a"), Args: args(f.ConstInt(1))}, "a = 1"},
		{Spec{Op: OpBin, Dst: v("b"), Sub: "+", Args: args(f.ConstInt(1), f.ConstInt(2))}, "b = 1 + 2"},
		{Spec{Op: OpUn, Dst: v("c"), Sub: "-", Args: args(f.ConstInt(3))}, "c = -3"},
		{Spec{Op: OpLoad, Dst: v("d"), Args: args(p)}, "d = *p"},
		{Spec{Op: OpStore, Args: args(p, f.ConstInt(4))}, "*p = 4"},
		{Spec{Op: OpAlloc, Dst: pv("e"), Sub: "x"}, "e = alloc x"},
		{Spec{Op: OpMalloc, Dst: pv("g")}, "g = malloc"},
		{Spec{Op: OpFree, Args: args(p)}, "free p"},
		{Spec{Op: OpGlobalAddr, Dst: pv("h"), Sub: "gv"}, "h = &@gv"},
		{Spec{Op: OpCall, Sub: "fn", Dsts: args(v("i"), -1, v("j")), Args: args(p)}, "i, _, j = call fn(p)"},
	}
	for _, c := range cases {
		if got := f.InstrString(f.Append(b, c.in)); got != c.want {
			t.Errorf("InstrString = %q, want %q", got, c.want)
		}
	}
	// Phi rendering: operand i arrives from the block's predecessor i.
	b2 := f.NewBlock()
	f.Connect(b, b2)
	f.Connect(b, b2)
	phi := f.Append(b2, Spec{Op: OpPhi, Dst: v("k"), Args: args(f.ConstInt(1), f.ConstInt(2))})
	if s := f.InstrString(phi); s != "k = phi(b0:1, b0:2)" {
		t.Errorf("phi render = %q", s)
	}
}

func TestValueStringForms(t *testing.T) {
	f := NewFunc("vals", minic.VoidType, 0, minic.Pos{})
	if f.ValueString(f.ConstInt(5)) != "5" || f.ValueString(f.ConstBool(true)) != "true" ||
		f.ValueString(f.ConstBool(false)) != "false" || f.ValueString(f.ConstNull()) != "null" {
		t.Error("const rendering broken")
	}
	if f.ValueString(f.NewDef("vv", minic.IntType)) != "vv" {
		t.Error("var rendering broken")
	}
}
