package checkers

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/ssa"
	"repro/internal/transform"
)

func buildGraphs(t *testing.T, src string) map[string]*seg.Graph {
	t.Helper()
	prog, err := minic.ParseProgram([]minic.NamedSource{{Name: "t.mc", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lower.Program(prog)
	if err != nil {
		t.Fatal(err)
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
	out := map[string]*seg.Graph{}
	for _, f := range m.Funcs {
		pr, err := pta.Analyze(f, infos[f], pta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[f.Name] = seg.Build(f, infos[f], pr)
	}
	return out
}

func TestUAFSources(t *testing.T) {
	gs := buildGraphs(t, `
void f(bool c) {
	int *p = malloc();
	if (c) { free(p); }
}`)
	spec := UseAfterFree()
	srcs := spec.LocalSources(gs["f"])
	if len(srcs) != 1 {
		t.Fatalf("sources = %d, want 1", len(srcs))
	}
	if srcs[0].Cond.IsTrue() {
		t.Error("conditional free has trivial source condition")
	}
	if !spec.OrderingRequired || !spec.WidenToRoots {
		t.Error("UAF policy bits wrong")
	}
}

func TestUAFSinkPredicate(t *testing.T) {
	gs := buildGraphs(t, `
void f() {
	int *p = malloc();
	free(p);
	int v = *p;
	free(p);
}`)
	g := gs["f"]
	spec := UseAfterFree()
	srcs := spec.LocalSources(g)
	if len(srcs) != 2 {
		t.Fatalf("sources = %d", len(srcs))
	}
	first := srcs[0].At
	derefs := uses(g, seg.RoleDerefAddr)
	if len(derefs) == 0 {
		t.Fatal("no deref uses")
	}
	if !spec.IsSink(g, derefs[0], first) {
		t.Error("deref not a sink")
	}
	frees := uses(g, seg.RoleFreeArg)
	// A free is not its own sink but is a sink for the other free.
	for _, fn := range frees {
		if g.Instr(fn) == first && spec.IsSink(g, fn, first) {
			t.Error("free counted as its own sink")
		}
		if g.Instr(fn) != first && !spec.IsSink(g, fn, first) {
			t.Error("second free not a sink")
		}
	}
}

func TestDoubleFreeSinkOnlyFrees(t *testing.T) {
	gs := buildGraphs(t, `
void f() {
	int *p = malloc();
	free(p);
	int v = *p;
}`)
	g := gs["f"]
	spec := DoubleFree()
	srcs := spec.LocalSources(g)
	derefs := uses(g, seg.RoleDerefAddr)
	if spec.IsSink(g, derefs[0], srcs[0].At) {
		t.Error("double-free checker treats deref as sink")
	}
}

func TestTaintSourcesAndSinks(t *testing.T) {
	gs := buildGraphs(t, `
void f() {
	int *x = user_input();
	open_file(x);
	harmless(x);
}`)
	g := gs["f"]
	spec := PathTraversal()
	srcs := spec.LocalSources(g)
	if len(srcs) != 1 {
		t.Fatalf("taint sources = %d", len(srcs))
	}
	sinks := 0
	for _, n := range uses(g, seg.RoleCallArg) {
		if spec.IsSink(g, n, -1) {
			sinks++
		}
	}
	if sinks != 1 {
		t.Fatalf("taint sinks = %d, want 1 (open_file only)", sinks)
	}
}

func TestDataTransmissionSpec(t *testing.T) {
	spec := DataTransmission()
	if !spec.SourceCalls["getpass"] || spec.SinkCalls["send_data"] != 0 {
		t.Error("registry wrong")
	}
	if spec.OrderingRequired {
		t.Error("taint should not require ordering")
	}
}

func TestNullDerefSources(t *testing.T) {
	gs := buildGraphs(t, `
void f() {
	int *p = null;
	int v = *p;
}`)
	spec := NullDeref()
	srcs := spec.LocalSources(gs["f"])
	if len(srcs) != 1 {
		t.Fatalf("null sources = %d", len(srcs))
	}
	if gs["f"].Value(srcs[0].Val).Kind != ir.VConstNull {
		t.Error("source is not the null constant")
	}
}

func TestSyntheticSinksExcluded(t *testing.T) {
	// The call-site glue loads inserted by the transformation are
	// synthetic and must not be sinks.
	gs := buildGraphs(t, `
void callee(int *q) { int v = *q; }
void f(int *p) { callee(p); }`)
	g := gs["f"]
	spec := UseAfterFree()
	for _, n := range uses(g, seg.RoleDerefAddr) {
		if g.In(g.Instr(n)).Synthetic() && spec.IsSink(g, n, -1) {
			t.Error("synthetic deref counted as sink")
		}
	}
}

// uses lists g's use vertices of one role, in creation order.
func uses(g *seg.Graph, role seg.UseRole) []int32 {
	var out []int32
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		if g.Node(n).Role == role {
			out = append(out, n)
		}
	}
	return out
}
