package pta

import (
	"maps"
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

// findVal returns the first value pred picks from an instruction of f,
// named module-wide.
func findVal(f *ir.Func, pred func(r *ir.Instr, in int32) int32) (Var, bool) {
	for _, in := range f.Order() {
		if v := pred(f.In(in), in); v >= 0 {
			return Var{Fn: int32(f.ID), Val: v}, true
		}
	}
	return Var{}, false
}

// copyOfMalloc picks the Dst of a pointer copy of a malloc's result.
func copyOfMalloc(f *ir.Func) func(*ir.Instr, int32) int32 {
	return func(r *ir.Instr, in int32) int32 {
		if r.Op == ir.OpCopy && f.Type(r.Dst).IsPointer() {
			if d := f.Value(f.Args(in)[0]).Def; d >= 0 && f.In(d).Op == ir.OpMalloc {
				return r.Dst
			}
		}
		return -1
	}
}

// pointerLoad picks the Dst of a load of a pointer.
func pointerLoad(f *ir.Func) func(*ir.Instr, int32) int32 {
	return func(r *ir.Instr, _ int32) int32 {
		if r.Op == ir.OpLoad && f.Type(r.Dst).IsPointer() {
			return r.Dst
		}
		return -1
	}
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
	phi, ok := findVal(f, func(r *ir.Instr, _ int32) int32 {
		if r.Op == ir.OpPhi && f.Type(r.Dst).IsPointer() {
			return r.Dst
		}
		return -1
	})
	if !ok {
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
	aVal, okA := findVal(f, func(r *ir.Instr, in int32) int32 {
		if f.Type(r.Dst).String() == "int*" {
			return copyOfMalloc(f)(r, in)
		}
		return -1
	})
	bVal, okB := findVal(f, pointerLoad(f))
	if !okA || !okB {
		t.Fatalf("values not found: a=%v b=%v", aVal, bVal)
	}
	if !ap.Alias(aVal, bVal) {
		t.Fatal("store/load flow lost")
	}
	// The slot's contents are the stored pointer alone: what is loaded
	// points exactly where it does.
	if !maps.Equal(ap.PointsTo(aVal), ap.PointsTo(bVal)) {
		t.Fatalf("pts(b) = %v, want pts(a) = %v", ap.PointsTo(bVal), ap.PointsTo(aVal))
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
	aVal, okA := findVal(f, copyOfMalloc(f))
	bVal, okB := findVal(f, pointerLoad(f))
	if !okA || !okB {
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
	recv, _ := findVal(f, func(r *ir.Instr, in int32) int32 {
		if r.Op == ir.OpCall {
			return f.Dsts(in)[0]
		}
		return -1
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
	var mallocs []Var
	for _, in := range f.Order() {
		if f.In(in).Op == ir.OpMalloc {
			mallocs = append(mallocs, Var{Fn: int32(f.ID), Val: f.In(in).Dst})
		}
	}
	if len(mallocs) != 2 {
		t.Fatal("mallocs not found")
	}
	if ap.Alias(mallocs[0], mallocs[1]) {
		t.Fatal("disjoint allocations alias")
	}
}
