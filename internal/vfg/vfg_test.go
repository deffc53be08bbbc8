package vfg

import (
	"fmt"
	"strings"
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
	var storedVal, loadDst pta.Var
	for _, in := range f.Order() {
		switch f.In(in).Op {
		case ir.OpStore:
			storedVal = pta.Var{Fn: int32(f.ID), Val: f.Args(in)[1]}
		case ir.OpLoad:
			loadDst = pta.Var{Fn: int32(f.ID), Val: f.In(in).Dst}
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
		stored := pta.Var{Fn: -1}
		for _, in := range f.Order() {
			if f.In(in).Op == ir.OpStore && f.Type(f.Args(in)[1]).IsPointer() {
				stored = pta.Var{Fn: int32(f.ID), Val: f.Args(in)[1]}
			}
		}
		if stored.Fn < 0 {
			continue
		}
		for _, to := range g.Succs(stored) {
			if to.Fn != stored.Fn {
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
	sinks := g.ReachableDerefs(g.Operand(g.Frees[0], 0), g.Frees[0], nil)
	if len(sinks) == 0 {
		t.Fatal("no reachable deref")
	}
	// Budget zero: traversal yields nothing.
	var zero int64
	if got := g.ReachableDerefs(g.Operand(g.Frees[0], 0), g.Frees[0], &zero); len(got) != 0 {
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
	sinks := g.ReachableDerefs(g.Operand(g.Frees[0], 0), g.Frees[0], nil)
	if len(sinks) == 0 {
		t.Fatal("orderless baseline unexpectedly silent")
	}
}

// TestBudgetCutIsDeterministic builds a module whose memory edges the edge
// budget cuts partway through, many times: the cut must fall at the same
// place each time. Each function's heap cell has a different number of
// stores of one value: a location's first memory edge adds a node, the
// others none, so the node count at the cut depends on which locations were
// crossed before it.
func TestBudgetCutIsDeterministic(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&src, "void f%d() {\n\tint *p = malloc();\n", i)
		for k := 0; k <= i; k++ {
			src.WriteString("\t*p = 7;\n")
		}
		src.WriteString("\tint x = *p;\n\tuse(x);\n}\n")
	}
	m := buildModule(t, src.String())
	pts := pta.Andersen(m)
	full, err := Build(m, pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := full.NumEdges() - 20 // 36 memory edges: the cut falls inside them
	var nodes, edges int
	for run := 0; run < 20; run++ {
		g, err := Build(m, pta.Andersen(m), Options{MaxEdges: budget})
		if err != ErrBudget {
			t.Fatalf("run %d: err = %v, want ErrBudget", run, err)
		}
		if run == 0 {
			nodes, edges = g.NumNodes(), g.NumEdges()
			continue
		}
		if g.NumNodes() != nodes || g.NumEdges() != edges {
			t.Fatalf("run %d: %d nodes, %d edges; run 0 had %d, %d", run, g.NumNodes(), g.NumEdges(), nodes, edges)
		}
	}
}
