package pta

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/ssa"
)

func buildSSAModule(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: src}})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Program(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	for _, f := range m.Funcs {
		if _, err := ssa.Transform(f); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func findVal(f *ir.Func, pred func(*ir.Instr) *ir.Value) *ir.Value {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if v := pred(in); v != nil {
				return v
			}
		}
	}
	return nil
}

func TestAndersenCopyAndPhi(t *testing.T) {
	m := buildSSAModule(t, `
void f(bool c) {
	int *a = malloc();
	int *b = malloc();
	int *p = a;
	if (c) { p = b; }
	int v = *p;
}`)
	ap := Andersen(m)
	f := m.Lookup("f")
	var phi *ir.Value
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && in.Dst.Type.IsPointer() {
				phi = in.Dst
			}
		}
	}
	if phi == nil {
		t.Fatal("no pointer phi")
	}
	// Flow-insensitively, the phi points to both mallocs.
	if got := len(ap.PointsTo(phi)); got != 2 {
		t.Fatalf("pts(phi) has %d locs, want 2", got)
	}
}

func TestAndersenLoadStore(t *testing.T) {
	m := buildSSAModule(t, `
void f() {
	int **slot = malloc();
	int *a = malloc();
	*slot = a;
	int *b = *slot;
	int v = *b;
}`)
	ap := Andersen(m)
	f := m.Lookup("f")
	aVal := findVal(f, func(in *ir.Instr) *ir.Value {
		if in.Op == ir.OpCopy && in.Dst.Type.String() == "int*" && in.Args[0].Def != nil && in.Args[0].Def.Op == ir.OpMalloc {
			return in.Dst
		}
		return nil
	})
	bVal := findVal(f, func(in *ir.Instr) *ir.Value {
		if in.Op == ir.OpLoad && in.Dst.Type.IsPointer() {
			return in.Dst
		}
		return nil
	})
	if aVal == nil || bVal == nil {
		t.Fatalf("values not found: a=%v b=%v", aVal, bVal)
	}
	if !ap.Alias(aVal, bVal) {
		t.Fatal("store/load flow lost")
	}
	// Contents of the slot location include the stored pointer.
	foundContents := false
	for _, vals := range ap.Contents {
		for v := range vals {
			if v == aVal || (v.Def != nil && v.Def.Op == ir.OpCopy) {
				foundContents = true
			}
		}
	}
	if !foundContents {
		t.Fatal("contents sets empty")
	}
}

func TestAndersenGlobalsAndParams(t *testing.T) {
	m := buildSSAModule(t, `
int *g;
void set(int *p) { g = p; }
void f() {
	int *a = malloc();
	set(a);
	int *b = g;
	int v = *b;
}`)
	ap := Andersen(m)
	f := m.Lookup("f")
	aVal := findVal(f, func(in *ir.Instr) *ir.Value {
		if in.Op == ir.OpCopy && in.Dst.Type.IsPointer() && in.Args[0].Def != nil && in.Args[0].Def.Op == ir.OpMalloc {
			return in.Dst
		}
		return nil
	})
	bVal := findVal(f, func(in *ir.Instr) *ir.Value {
		if in.Op == ir.OpLoad && in.Dst.Type.IsPointer() {
			return in.Dst
		}
		return nil
	})
	if aVal == nil || bVal == nil {
		t.Fatal("values not found")
	}
	// Through the global cell, context-insensitively.
	if !ap.Alias(aVal, bVal) {
		t.Fatal("flow through global lost")
	}
}

func TestAndersenBudgetTimeout(t *testing.T) {
	m := buildSSAModule(t, `
void f() {
	int *a = malloc();
	int *b = a;
	int *c = b;
	int *d = c;
	int v = *d;
}`)
	ap := AndersenWithBudget(m, 1)
	if !ap.TimedOut {
		t.Fatal("budget not enforced")
	}
	full := Andersen(m)
	if full.TimedOut {
		t.Fatal("unlimited run timed out")
	}
	if full.Iterations <= 1 {
		t.Fatalf("iterations = %d", full.Iterations)
	}
}

func TestAndersenExternalCall(t *testing.T) {
	m := buildSSAModule(t, `
void f() {
	int *p = mystery();
	int v = *p;
}`)
	ap := Andersen(m)
	f := m.Lookup("f")
	recv := findVal(f, func(in *ir.Instr) *ir.Value {
		if in.Op == ir.OpCall && in.Dsts()[0] != nil {
			return in.Dsts()[0]
		}
		return nil
	})
	pts := ap.PointsTo(recv)
	if len(pts) != 1 {
		t.Fatalf("external receiver pts = %v", pts)
	}
	for l := range pts {
		if l.Kind != LExt {
			t.Fatalf("kind = %v, want LExt", l.Kind)
		}
	}
}

func TestAndersenAliasNoFalseNegativeOnDisjoint(t *testing.T) {
	m := buildSSAModule(t, `
void f() {
	int *a = malloc();
	int *b = malloc();
	int x = *a;
	int y = *b;
}`)
	ap := Andersen(m)
	f := m.Lookup("f")
	var mallocs []*ir.Value
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpMalloc {
				mallocs = append(mallocs, in.Dst)
			}
		}
	}
	if len(mallocs) != 2 {
		t.Fatal("mallocs not found")
	}
	if ap.Alias(mallocs[0], mallocs[1]) {
		t.Fatal("disjoint allocations alias")
	}
}
