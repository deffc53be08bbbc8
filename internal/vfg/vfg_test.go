package vfg

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/pta"
	"repro/internal/ssa"
)

func buildModule(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lower.Program(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Funcs {
		if _, err := ssa.Transform(f); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestBuildMemoryEdges(t *testing.T) {
	m := buildModule(t, `
void f() {
	int *p = malloc();
	*p = 7;
	int x = *p;
	use(x);
}`)
	g, err := Build(m, pta.Andersen(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty graph")
	}
	// The stored constant reaches the load destination.
	f := m.Lookup("f")
	var storedVal, loadDst *ir.Value
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				storedVal = in.Args[1]
			case ir.OpLoad:
				loadDst = in.Dst
			}
		}
	}
	found := false
	for _, to := range g.Succs(storedVal) {
		if to == loadDst {
			found = true
		}
	}
	if !found {
		t.Fatal("store->load memory edge missing")
	}
}

func TestCrossFunctionBlowup(t *testing.T) {
	// Two functions share a global slot: flow-insensitive points-to
	// cross-connects their stores and loads (2 stores x 2 loads).
	m := buildModule(t, `
int *slot_g;
int f1(int x) { int *p = malloc(); slot_g = p; int *q = slot_g; return *q; }
int f2(int x) { int *p = malloc(); slot_g = p; int *q = slot_g; return *q; }`)
	g, err := Build(m, pta.Andersen(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each function's store feeds BOTH functions' loads: the spurious
	// cross edges are the point of the baseline.
	crossEdges := 0
	for _, f := range m.Funcs {
		var stored *ir.Value
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpStore && in.Args[1].Type.IsPointer() {
					stored = in.Args[1]
				}
			}
		}
		if stored == nil {
			continue
		}
		for _, to := range g.Succs(stored) {
			if to.Def != nil && to.Def.Block.Fn != f {
				crossEdges++
			}
		}
	}
	if crossEdges == 0 {
		t.Fatal("no spurious cross-function memory edges — the baseline is too precise")
	}
}

func TestEdgeBudget(t *testing.T) {
	m := buildModule(t, `
void f() {
	int *p = malloc();
	*p = 1;
	int a = *p;
	int b = *p;
	use(a); use(b);
}`)
	_, err := Build(m, pta.Andersen(m), Options{MaxEdges: 1})
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestReachableDerefsAndBudget(t *testing.T) {
	m := buildModule(t, `
void f() {
	int *p = malloc();
	free(p);
	int v = *p;
	use(v);
}`)
	g, err := Build(m, pta.Andersen(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Frees) != 1 {
		t.Fatalf("frees = %d", len(g.Frees))
	}
	sinks := g.ReachableDerefs(g.Frees[0].Args[0], g.Frees[0], nil)
	if len(sinks) == 0 {
		t.Fatal("no reachable deref")
	}
	// Budget zero: traversal yields nothing.
	var zero int64
	if got := g.ReachableDerefs(g.Frees[0].Args[0], g.Frees[0], &zero); len(got) != 0 {
		t.Fatalf("budget ignored: %v", got)
	}
}

func TestNoOrderingNoConditions(t *testing.T) {
	// Use-before-free: the baseline reports it anyway (its defining
	// imprecision).
	m := buildModule(t, `
void f() {
	int *p = malloc();
	int v = *p;
	use(v);
	free(p);
}`)
	g, err := Build(m, pta.Andersen(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sinks := g.ReachableDerefs(g.Frees[0].Args[0], g.Frees[0], nil)
	if len(sinks) == 0 {
		t.Fatal("orderless baseline unexpectedly silent")
	}
}
