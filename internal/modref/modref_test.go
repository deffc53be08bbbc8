package modref

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/ssa"
)

func buildModule(t *testing.T, src string) *ir.Module {
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
			t.Fatalf("ssa: %v", err)
		}
	}
	return m
}

func TestModRefDirectLoadStore(t *testing.T) {
	m := buildModule(t, `
void f(int *p, int *q) {
	int x = *p;
	*q = x;
}`)
	res := Analyze(m)
	sum := res.Summaries[m.Lookup("f")]
	if !sum.Refs(Path{Root: Root{Param: 0}, Depth: 1}) {
		t.Errorf("missing Ref(p,1): %+v", sum.Ref)
	}
	if !sum.Mods(Path{Root: Root{Param: 1}, Depth: 1}) {
		t.Errorf("missing Mod(q,1): %+v", sum.Mod)
	}
	if sum.Mods(Path{Root: Root{Param: 0}, Depth: 1}) {
		t.Errorf("spurious Mod(p,1)")
	}
}

func TestModRefDepth2(t *testing.T) {
	m := buildModule(t, `
void f(int **pp) {
	int *p = *pp;
	*p = 3;
}`)
	res := Analyze(m)
	sum := res.Summaries[m.Lookup("f")]
	if !sum.Refs(Path{Root: Root{Param: 0}, Depth: 1}) {
		t.Errorf("missing Ref(pp,1)")
	}
	if !sum.Mods(Path{Root: Root{Param: 0}, Depth: 2}) {
		t.Errorf("missing Mod(pp,2): %+v", sum.Mod)
	}
}

func TestModRefTransitiveThroughCall(t *testing.T) {
	m := buildModule(t, `
void callee(int *c) { *c = 1; }
void caller(int *p) { callee(p); }
void deep(int **pp) { int *p = *pp; callee(p); }`)
	res := Analyze(m)
	caller := res.Summaries[m.Lookup("caller")]
	if !caller.Mods(Path{Root: Root{Param: 0}, Depth: 1}) {
		t.Errorf("caller missing transitive Mod(p,1): %+v", caller.Mod)
	}
	deep := res.Summaries[m.Lookup("deep")]
	if !deep.Mods(Path{Root: Root{Param: 0}, Depth: 2}) {
		t.Errorf("deep missing composed Mod(pp,2): %+v", deep.Mod)
	}
}

func TestModRefGlobals(t *testing.T) {
	m := buildModule(t, `
int g;
void writer() { g = 1; }
void reader() { int x = g; }
void indirect() { writer(); }`)
	res := Analyze(m)
	w := res.Summaries[m.Lookup("writer")]
	if !w.Mods(Path{Root: Root{Param: -1, Global: "g"}, Depth: 1}) {
		t.Errorf("writer missing Mod(g,1): %+v", w.Mod)
	}
	r := res.Summaries[m.Lookup("reader")]
	if !r.Refs(Path{Root: Root{Param: -1, Global: "g"}, Depth: 1}) {
		t.Errorf("reader missing Ref(g,1): %+v", r.Ref)
	}
	ind := res.Summaries[m.Lookup("indirect")]
	if !ind.Mods(Path{Root: Root{Param: -1, Global: "g"}, Depth: 1}) {
		t.Errorf("indirect missing propagated Mod(g,1): %+v", ind.Mod)
	}
}

func TestModRefRecursion(t *testing.T) {
	m := buildModule(t, `
void a(int *p, int n) {
	if (n > 0) { b(p, n - 1); }
}
void b(int *q, int k) {
	*q = k;
	a(q, k);
}`)
	res := Analyze(m)
	as := res.Summaries[m.Lookup("a")]
	if !as.Mods(Path{Root: Root{Param: 0}, Depth: 1}) {
		t.Errorf("a missing Mod through recursion: %+v", as.Mod)
	}
}

func TestModRefNoFalsePositives(t *testing.T) {
	m := buildModule(t, `
int pure(int a, int b) { return a + b; }
void localonly() { int *p = malloc(); *p = 1; int x = *p; }`)
	res := Analyze(m)
	for _, name := range []string{"pure", "localonly"} {
		sum := res.Summaries[m.Lookup(name)]
		if len(sum.Ref)+len(sum.Mod) != 0 {
			t.Errorf("%s: unexpected side effects ref=%v mod=%v", name, sum.Ref, sum.Mod)
		}
	}
}

func TestModRefDepthCap(t *testing.T) {
	m := buildModule(t, `
void f(int ***ppp) {
	int **pp = *ppp;
	int *p = *pp;
	int x = *p;
}`)
	res := Analyze(m)
	sum := res.Summaries[m.Lookup("f")]
	for _, p := range sum.Ref {
		if p.Depth > MaxDepth {
			t.Errorf("path %v exceeds cap", p)
		}
	}
	if !sum.Refs(Path{Root: Root{Param: 0}, Depth: 3}) {
		t.Errorf("missing depth-3 ref: %+v", sum.Ref)
	}
}

func TestCallGraphSCCsBottomUp(t *testing.T) {
	m := buildModule(t, `
void leaf() { }
void mid() { leaf(); }
void top() { mid(); }`)
	c := condenseModule(m)
	pos := map[string]int{}
	for i, scc := range c.SCCs {
		for _, v := range scc {
			pos[m.Funcs[v].Name] = i
		}
	}
	if !(pos["leaf"] < pos["mid"] && pos["mid"] < pos["top"]) {
		t.Errorf("SCC order not bottom-up: %v", pos)
	}
}

func TestCallGraphSCCsCycle(t *testing.T) {
	m := buildModule(t, `
void a(int n) { if (n > 0) { b(n - 1); } }
void b(int n) { a(n); }`)
	c := condenseModule(m)
	for _, scc := range c.SCCs {
		if len(scc) == 2 && c.Of[scc[0]] == c.Of[scc[1]] {
			return
		}
	}
	t.Errorf("mutual recursion not grouped into one SCC")
}

func TestSummaryPathsDeterministic(t *testing.T) {
	s := NewSummary()
	s.AddRef(Path{Root: Root{Param: 1}, Depth: 2})
	s.AddRef(Path{Root: Root{Param: 0}, Depth: 1})
	s.AddMod(Path{Root: Root{Param: -1, Global: "z"}, Depth: 1})
	s.AddMod(Path{Root: Root{Param: -1, Global: "a"}, Depth: 1})
	got := s.Paths()
	if len(got) != 4 {
		t.Fatalf("got %d paths", len(got))
	}
	if got[0].Root.Param != 0 || got[1].Root.Param != 1 {
		t.Errorf("params not first/sorted: %+v", got)
	}
	if got[2].Root.Global != "a" || got[3].Root.Global != "z" {
		t.Errorf("globals not sorted: %+v", got)
	}
}
