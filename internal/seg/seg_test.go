package seg

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/ssa"
	"repro/internal/transform"
)

// built is what a graph buildSEGs made was built from.
type built struct {
	f   *ir.Func
	inf *ssa.Info
	pr  *pta.Result
}

var builtFrom = map[*Graph]built{}

func buildSEGs(t *testing.T, src string) (*ir.Module, map[string]*Graph) {
	t.Helper()
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: src}})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Program(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	infos := make(map[string]*ssa.Info)
	for _, f := range m.Funcs {
		inf, err := ssa.Transform(f)
		if err != nil {
			t.Fatalf("ssa %s: %v", f.Name, err)
		}
		infos[f.Name] = inf
	}
	mr := modref.Analyze(m)
	if err := transform.Apply(m, mr); err != nil {
		t.Fatalf("transform: %v", err)
	}
	graphs := make(map[string]*Graph)
	for _, f := range m.Funcs {
		pr, err := pta.Analyze(f, infos[f.Name], pta.Options{})
		if err != nil {
			t.Fatalf("pta %s: %v", f.Name, err)
		}
		graphs[f.Name] = Build(f, infos[f.Name], pr)
		builtFrom[graphs[f.Name]] = built{f, infos[f.Name], pr}
	}
	return m, graphs
}

// reachesNode reports whether dst is reachable from src in the SEG.
func reachesNode(g *Graph, src, dst int32) bool {
	seen := map[int32]bool{} // reference search: deliberately not a slice by vertex ID
	var dfs func(int32) bool
	dfs = func(n int32) bool {
		if n == dst {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for _, e := range g.Succs(n) {
			if dfs(e.To) {
				return true
			}
		}
		return false
	}
	return dfs(src)
}

func TestSEGFreeToUseThroughMemory(t *testing.T) {
	m, graphs := buildSEGs(t, `
void f() {
	int *c = malloc();
	int **slot = malloc();
	*slot = c;
	free(c);
	int *u = *slot;
	sink(*u);
}`)
	f := m.Lookup("f")
	g := graphs["f"]
	frees := uses(g, RoleFreeArg)
	if len(frees) != 1 {
		t.Fatalf("free uses = %v", frees)
	}
	// The freed value flows through the slot to u, which is dereferenced
	// by the load feeding sink.
	freed := g.ValueNode(g.Val(frees[0]))
	derefs := uses(g, RoleDerefAddr)
	found := false
	for _, d := range derefs {
		if reachesNode(g, freed, d) && g.HappensAfter(g.Instr(frees[0]), g.Instr(d)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("freed value does not reach any later deref")
	}
	_ = f
}

func TestSEGPhiGatesOnEdges(t *testing.T) {
	m, graphs := buildSEGs(t, `
int f(bool c, int a, int b) {
	int x = 0;
	if (c) { x = a; } else { x = b; }
	return x;
}`)
	f := m.Lookup("f")
	g := graphs["f"]
	// Find the phi and check its incoming edges carry non-trivial conds.
	for _, in := range f.Order() {
		if f.In(in).Op != ir.OpPhi {
			continue
		}
		for _, a := range f.Args(in) {
			for _, e := range g.Succs(g.ValueNode(a)) {
				if e.To == g.ValueNode(f.In(in).Dst) && g.Cond(e).IsTrue() {
					t.Errorf("phi edge from %s unguarded", f.ValueString(a))
				}
			}
		}
	}
}

func TestSEGLoadEdgesCarryGuards(t *testing.T) {
	m, graphs := buildSEGs(t, `
void f(bool c) {
	int *p = malloc();
	if (c) { *p = 1; } else { *p = 2; }
	int x = *p;
	use(x);
}`)
	f := m.Lookup("f")
	g := graphs["f"]
	load := int32(-1)
	for _, in := range f.Order() {
		if f.In(in).Op == ir.OpLoad {
			load = in
		}
	}
	dst := g.ValueNode(f.In(load).Dst)
	// dst has exactly two incoming edges with guards.
	incoming := 0
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		for _, e := range g.Succs(n) {
			if e.To == dst {
				incoming++
				if g.Cond(e).IsTrue() {
					t.Errorf("memory edge %s -> %s unguarded", g.NodeString(n), g.NodeString(dst))
				}
			}
		}
	}
	if incoming != 2 {
		t.Fatalf("load dst has %d incoming edges, want 2", incoming)
	}
}

func TestSEGCallAndRetUses(t *testing.T) {
	m, graphs := buildSEGs(t, `
int id(int x) { return x; }
void f() {
	int a = 3;
	int b = id(a);
	use(b);
}`)
	g := graphs["f"]
	if len(uses(g, RoleCallArg)) < 2 { // id(a) and use(b)
		t.Fatalf("call arg uses = %d", len(uses(g, RoleCallArg)))
	}
	gid := graphs["id"]
	if len(uses(gid, RoleRetArg)) != 1 {
		t.Fatalf("id ret uses = %d", len(uses(gid, RoleRetArg)))
	}
	// The ret use is fed by the parameter.
	_ = m
	param := gid.Params()[0]
	if !reachesNode(gid, gid.ValueNode(param), uses(gid, RoleRetArg)[0]) {
		t.Fatal("param does not reach return in id")
	}
}

func TestHappensAfter(t *testing.T) {
	m, graphs := buildSEGs(t, `
void f(bool c) {
	int *p = malloc();
	if (c) { free(p); }
	sink(*p);
}`)
	freeIn, loadIn := freeAndLoad(m.Lookup("f"))
	g := graphs["f"]
	if !g.HappensAfter(freeIn, loadIn) {
		t.Error("load after free not detected")
	}
	if g.HappensAfter(loadIn, freeIn) {
		t.Error("free after load wrongly detected")
	}
}

func TestHappensAfterSameBlock(t *testing.T) {
	m, graphs := buildSEGs(t, `
void f() {
	int *p = malloc();
	free(p);
	sink(*p);
}`)
	freeIn, loadIn := freeAndLoad(m.Lookup("f"))
	if !graphs["f"].HappensAfter(freeIn, loadIn) {
		t.Error("same-block ordering broken")
	}
}

// freeAndLoad returns f's (last) free and load instructions.
func freeAndLoad(f *ir.Func) (freeIn, loadIn int32) {
	for _, in := range f.Order() {
		switch f.In(in).Op {
		case ir.OpFree:
			freeIn = in
		case ir.OpLoad:
			loadIn = in
		}
	}
	return freeIn, loadIn
}

func TestSEGSizeCounters(t *testing.T) {
	_, graphs := buildSEGs(t, `
int f(int a, int b) { return a + b; }`)
	g := graphs["f"]
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatalf("empty SEG: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestSEGCDCondition(t *testing.T) {
	m, graphs := buildSEGs(t, `
void f(bool c) {
	if (c) { g(); }
}`)
	f := m.Lookup("f")
	g := graphs["f"]
	for _, in := range f.Order() {
		if f.In(in).Op == ir.OpCall && g.CD(in).IsTrue() {
			t.Error("guarded call has trivial CD")
		}
	}
}

func TestSEGDotExport(t *testing.T) {
	_, graphs := buildSEGs(t, `
void f(bool c) {
	int *p = malloc();
	if (c) { free(p); }
	sink(*p);
}`)
	dot := graphs["f"].Dot()
	for _, frag := range []string{"digraph", "shape=ellipse", "free", "deref", "->"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("dot missing %q:\n%s", frag, dot)
		}
	}
	// Conditional memory edges carry labels.
	if !strings.Contains(dot, "label=") {
		t.Error("no labeled edges in dot output")
	}
}

// Build hands detection a final graph: every parameter, operand, Dst and
// receiver has its value vertex, and the ones no edge touches (a value that
// is only a branch condition, an unused call result) come after the walk's,
// without edges.
func TestBuildGivesEveryValueItsVertex(t *testing.T) {
	m, graphs := buildSEGs(t, `
int id(int x) { return x; }
void f(bool c, int *p) {
	int unused = id(3);
	if (c) { free(p); }
}`)
	for _, f := range m.Funcs {
		g := graphs[f.Name]
		built := g.NumNodes()
		has := func(v int32, what string) {
			t.Helper()
			n := g.ValueNode(v)
			if n < 0 || g.Node(n).Kind != NValue || g.Val(n) != v {
				t.Errorf("%s: %s %s has vertex %d", f.Name, what, f.ValueString(v), n)
			}
		}
		for _, p := range f.Params {
			has(p.ID, "parameter")
		}
		for _, in := range f.Order() {
			for _, a := range f.Args(in) {
				has(a, "operand")
			}
			if d := f.In(in).Dst; d >= 0 {
				has(d, "Dst")
			}
			for _, d := range f.Dsts(in) {
				if d >= 0 {
					has(d, "receiver")
				}
			}
		}
		if g.NumNodes() != built {
			t.Errorf("%s: looking vertices up took the graph from %d vertices to %d", f.Name, built, g.NumNodes())
		}
	}
	g := graphs["f"]
	c := g.ValueNode(m.Lookup("f").Params[0].ID)
	if len(g.Succs(c)) != 0 {
		t.Errorf("the branch condition's vertex has edges %v", g.Succs(c))
	}
}

// uses lists the use vertices of one role, in creation order.
func uses(g *Graph, role UseRole) []int32 {
	var out []int32
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		if g.Node(n).Role == role {
			out = append(out, n)
		}
	}
	return out
}

// A graph holds its tables without append slack, the body's records the
// connector transformation grew included, and no part of its body that a
// decoded graph lacks: every array's capacity is its length.
func TestGraphBudget(t *testing.T) {
	_, graphs := buildSEGs(t, `
int g;
void set(int *p, int v) { *p = v; g = v; }
int caller(bool c) {
	int *q = malloc();
	if (c) { set(q, 1); } else { set(q, 2); }
	int r = *q;
	free(q);
	return r + g;
}`)
	exact := func(n int) int { return n }
	for name, gr := range graphs {
		instrs, values, lists, _ := gr.Body.Footprint(exact)
		nodes, edges := gr.Footprint(exact)
		for _, arr := range []struct {
			what       string
			bytes, len int
		}{
			{"instructions", instrs, gr.NumInstrs() * int(unsafe.Sizeof(ir.Instr{}))},
			{"values", values, gr.NumValues() * int(unsafe.Sizeof(ir.Value{}))},
			{"lists", lists, 4 * len(*field[[]int32](&gr.Body, "ints"))},
			{"vertices", nodes, gr.NumNodes() * int(unsafe.Sizeof(Node{}))},
			{"edges", edges, gr.NumEdges() * int(unsafe.Sizeof(Edge{}))},
		} {
			if arr.bytes != arr.len {
				t.Errorf("%s: the %s occupy %d bytes for %d", name, arr.what, arr.bytes, arr.len)
			}
		}
		if *field[*struct{}](&gr.Body, "draft") != nil {
			t.Errorf("%s: the graph's body is still a draft", name)
		}
	}
	if len(graphs["set"].Params()) <= 2 {
		t.Fatal("the connector transformation gave set no aux parameter")
	}
}
