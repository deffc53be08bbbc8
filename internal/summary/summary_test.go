package summary

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/ssa"
	"repro/internal/transform"
)

func buildGraph(t *testing.T, src, fn string) *seg.Graph {
	t.Helper()
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: src}})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Program(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	infos := map[*ir.Func]*ssa.Info{}
	for _, f := range m.Funcs {
		inf, err := ssa.Transform(f)
		if err != nil {
			t.Fatal(err)
		}
		infos[f] = inf
	}
	if err := transform.Apply(m, modref.Analyze(m)); err != nil {
		t.Fatal(err)
	}
	f := m.Lookup(fn)
	pr, err := pta.Analyze(f, infos[f], pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return seg.Build(f, infos[f], pr)
}

func TestFlowsFromParamToRet(t *testing.T) {
	g := buildGraph(t, "int id(int x) { return x; }", "id")
	tab := NewTable()
	flows := ParamToRet(tab, g)
	if len(flows[0]) == 0 {
		t.Fatalf("no param->ret flow found (VF1)")
	}
	f := flows[0][0]
	if g.Node(f.Terminal()).Role != seg.RoleRetArg {
		t.Fatalf("terminal role = %v", g.Node(f.Terminal()).Role)
	}
	if !f.Cond().IsTrue() {
		t.Errorf("unconditional identity has cond %s", f.Cond())
	}
}

func TestFlowsConditional(t *testing.T) {
	g := buildGraph(t, `
int pick(bool c, int a, int b) {
	int x = 0;
	if (c) { x = a; } else { x = b; }
	return x;
}`, "pick")
	tab := NewTable()
	// Param a (index 1) flows to the return under gate c.
	flows := ParamToRet(tab, g)
	if len(flows[1]) == 0 || len(flows[2]) == 0 {
		t.Fatalf("conditional flows missing: %v", flows)
	}
	ca := flows[1][0].Cond()
	cb := flows[2][0].Cond()
	if ca.IsTrue() || cb.IsTrue() {
		t.Errorf("gated flows are unconditional: %s / %s", ca, cb)
	}
	if g.Conds().Not(ca) != cb {
		t.Errorf("gates not complementary: %s vs %s", ca, cb)
	}
}

func TestFlowsMemoized(t *testing.T) {
	g := buildGraph(t, `
int f(int x) {
	int a = x + 1;
	int b = a + 2;
	return b;
}`, "f")
	tab := NewTable()
	n := g.ValueNode(g.Params()[0])
	f1 := tab.FlowsFrom(g, n)
	f2 := tab.FlowsFrom(g, n)
	if len(f1) == 0 {
		t.Fatal("no flows")
	}
	// Memoized: identical slice.
	if &f1[0] != &f2[0] {
		t.Error("FlowsFrom not memoized")
	}
}

func TestFlowsCap(t *testing.T) {
	// A function with many branches creates many flows; the cap bounds
	// them.
	src := `
int f(int x, bool c0, bool c1, bool c2, bool c3, bool c4, bool c5, bool c6, bool c7) {
	int a = x;
	if (c0) { a = a + 1; }
	if (c1) { a = a + 1; }
	if (c2) { a = a + 1; }
	if (c3) { a = a + 1; }
	if (c4) { a = a + 1; }
	if (c5) { a = a + 1; }
	if (c6) { a = a + 1; }
	if (c7) { a = a + 1; }
	use(a);
	return a;
}`
	g := buildGraph(t, src, "f")
	tab := NewTable()
	tab.MaxFlows = 4
	flows := tab.FlowsFrom(g, g.ValueNode(g.Params()[0]))
	if len(flows) > 4 {
		t.Fatalf("cap violated: %d flows", len(flows))
	}
	if tab.CapHits == 0 {
		t.Error("cap hit not recorded")
	}
}

func TestFlowTerminalRoles(t *testing.T) {
	g := buildGraph(t, `
void f(int *p) {
	free(p);
	g(p);
	int v = *p;
}`, "f")
	tab := NewTable()
	flows := tab.FlowsFrom(g, g.ValueNode(g.Params()[0]))
	roles := map[seg.UseRole]bool{}
	for _, fl := range flows {
		roles[g.Node(fl.Terminal()).Role] = true
	}
	for _, want := range []seg.UseRole{seg.RoleFreeArg, seg.RoleCallArg, seg.RoleDerefAddr} {
		if !roles[want] {
			t.Errorf("missing terminal role %v (got %v)", want, roles)
		}
	}
}

// A value that is only a branch condition has a vertex without edges, and
// so no flows; its lookups count as any other's.
func TestFlowsFromEdgelessVertex(t *testing.T) {
	g := buildGraph(t, `
void f(bool c, int *p) {
	if (c) { free(p); }
}`, "f")
	tab := NewTable()
	p := g.ValueNode(g.Params()[1])
	if flows := tab.FlowsFrom(g, p); len(flows) != 1 || g.Node(flows[0].Terminal()).Role != seg.RoleFreeArg {
		t.Fatalf("flows from p = %v, want the one free", flows)
	}
	c := g.ValueNode(g.Params()[0])
	if c < 0 || len(g.Succs(c)) != 0 {
		t.Fatalf("test premise: c has vertex %d with edges %v", c, g.Succs(c))
	}
	misses := tab.Misses
	if flows := tab.FlowsFrom(g, c); len(flows) != 0 {
		t.Errorf("flows from a branch condition = %v, want none", flows)
	}
	if tab.Misses != misses+1 {
		t.Errorf("the first lookup of c counted %d misses, want 1", tab.Misses-misses)
	}
	hits := tab.Hits
	tab.FlowsFrom(g, c)
	tab.FlowsFrom(g, p)
	if tab.Hits != hits+2 {
		t.Errorf("repeat lookups counted %d hits, want 2", tab.Hits-hits)
	}
}

// enumerate lists the flows from n with no memo and nothing shared: every
// path along successor edges to a use vertex, in edge order, with the
// conjunction of all its edge conditions and the control dependence of all
// its steps' statements, conjoined at once.
func enumerate(g *seg.Graph, n int32, path []int32, parts []*cond.Cond, emit func([]int32, *cond.Cond)) {
	path = append(path, n)
	if in := g.Instr(n); in >= 0 {
		parts = append(parts, g.CD(in))
	}
	if g.Node(n).Kind == seg.NUse {
		emit(path, g.Conds().And(parts...))
		return
	}
	for _, e := range g.Succs(n) {
		enumerate(g, e.To, path, append(parts, g.Cond(e)), emit)
	}
}

// The memo's flows — each one record continuing with a successor's flow, its
// condition conjoined from its first step's and its rest's — are exactly the
// paths a plain enumeration finds, in its order, under the same condition
// nodes.
func TestFlowsEqualEnumeration(t *testing.T) {
	for _, tc := range []struct{ src, fn string }{
		{`
void f(bool c, bool d, int *p, int *q) {
	int *r = p;
	if (c) { r = q; }
	if (d) { free(r); } else { use(r); }
	if (c) {
		if (!d) { g(r); }
	}
	int x = *r;
	use(x);
}`, "f"},
		{`
int *pick(bool c, bool d, int *a, int *b) {
	int *cell = malloc();
	*cell = a;
	if (c) { *cell = b; }
	int *out = *cell;
	if (d) { free(out); }
	if (!c) { return a; }
	return out;
}`, "pick"},
	} {
		g := buildGraph(t, tc.src, tc.fn)
		tab := NewTable()
		render := func(path []int32, c *cond.Cond) string { return fmt.Sprintf("%v under #%d %s", path, c.ID(), c) }
		flowsSeen := 0
		for n := int32(0); int(n) < g.NumNodes(); n++ {
			var want, got []string
			enumerate(g, n, nil, nil, func(path []int32, c *cond.Cond) { want = append(want, render(path, c)) })
			for _, f := range tab.FlowsFrom(g, n) {
				var path []int32
				for s := &f; s != nil; s = s.Rest() {
					path = append(path, s.Node)
				}
				if int(f.Len) != len(path) || f.Terminal() != path[len(path)-1] {
					t.Errorf("%s: flow %v has Len %d and terminal %d", tc.fn, path, f.Len, f.Terminal())
				}
				got = append(got, render(path, f.Cond()))
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: flows from vertex %d (%s):\n got %q\nwant %q", tc.fn, n, g.NodeString(n), got, want)
			}
			flowsSeen += len(got)
		}
		if tab.CapHits != 0 || flowsSeen < 10 {
			t.Fatalf("%s: %d cap hits, %d flows: not the subject the test is about", tc.fn, tab.CapHits, flowsSeen)
		}
	}
}
