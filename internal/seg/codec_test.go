package seg

import (
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/ir"
)

// exportForTest builds the SEG of f in src and returns everything
// ImportGraph needs to rebuild it: the wire form, the function's ID index
// and the condition nodes by ID (only those the edges mention).
func exportForTest(t *testing.T, src, fn string) (*Graph, *GraphWire, *ir.Index, []*cond.Cond) {
	t.Helper()
	_, graphs := buildSEGs(t, src)
	g := graphs[fn]
	nodes := make([]*cond.Cond, g.Info.Conds.NumNodes())
	var reg func(c *cond.Cond)
	reg = func(c *cond.Cond) {
		nodes[c.ID()] = c
		for _, op := range c.Ops() {
			reg(op)
		}
	}
	for _, n := range g.AllNodes() {
		for _, e := range g.Succs(n) {
			reg(e.Cond)
		}
	}
	return g, ExportGraph(g), ir.BuildIndex(g.Fn), nodes
}

const codecSrc = `
int *pick(bool c, int *a) {
	int *p = malloc();
	*p = 1;
	if (c) { free(p); p = a; }
	sink(p, *p);
	return p;
}`

func TestGraphWireRoundTrip(t *testing.T) {
	g, w, ix, nodes := exportForTest(t, codecSrc, "pick")
	got, err := ImportGraph(w, g.Fn, g.Info, g.PTA, ix, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d nodes %d edges, want %d / %d", got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i, n := range g.AllNodes() {
		m := got.AllNodes()[i]
		if m.Index() != i || m.Kind != n.Kind || m.Role != n.Role || m.Val != n.Val || m.Instr != n.Instr || m.ArgIdx != n.ArgIdx {
			t.Fatalf("vertex %d: got %+v, want %+v", i, *m, *n)
		}
		if n.Kind == NUse && got.UseNode(n.Instr, n.ArgIdx, n.Role) != m {
			t.Errorf("vertex %d: UseNode does not find the imported use vertex", i)
		}
		if n.Kind == NValue && got.ValueNode(n.Val) != m {
			t.Errorf("vertex %d: ValueNode does not find the imported value vertex", i)
		}
		es, fs := g.Succs(n), got.Succs(m)
		if len(es) != len(fs) {
			t.Fatalf("vertex %d: %d edges, want %d", i, len(fs), len(es))
		}
		for j := range es {
			if fs[j].To.Index() != es[j].To.Index() || fs[j].Cond != es[j].Cond {
				t.Errorf("vertex %d edge %d differs", i, j)
			}
		}
	}
	for role := range g.ByRole {
		if len(got.ByRole[role]) != len(g.ByRole[role]) {
			t.Errorf("ByRole[%s]: %d vertices, want %d", UseRole(role), len(got.ByRole[role]), len(g.ByRole[role]))
		}
	}
}

// TestImportGraphRejectsMalformed feeds ImportGraph wires no genuine export
// can produce. Each must come back as an error — corruption costs a
// rebuild, never a panic, neither at import nor later in detection.
func TestImportGraphRejectsMalformed(t *testing.T) {
	g, good, ix, nodes := exportForTest(t, codecSrc, "pick")
	firstOf := func(kind NodeKind) int {
		for i, nw := range good.Nodes {
			if nw.Kind == kind {
				return i
			}
		}
		t.Fatalf("no vertex of kind %d in the test graph", kind)
		return -1
	}
	use, val := firstOf(NUse), firstOf(NValue)
	cases := []struct {
		name    string
		corrupt func(w *GraphWire)
		want    string
	}{
		{"value id past the table", func(w *GraphWire) { w.Nodes[val].Val = int32(len(ix.Values)) }, "bad value id"},
		{"negative value id", func(w *GraphWire) { w.Nodes[val].Val = -7 }, "bad value id"},
		{"value vertex without value", func(w *GraphWire) { w.Nodes[val].Val = -1 }, "without value"},
		{"instr id past the table", func(w *GraphWire) { w.Nodes[use].Instr = int32(len(ix.Instrs)) }, "bad instr id"},
		{"negative instr id", func(w *GraphWire) { w.Nodes[use].Instr = -2 }, "bad instr id"},
		{"use vertex without instruction", func(w *GraphWire) { w.Nodes[use].Instr = -1 }, "without instruction"},
		{"use vertex without value", func(w *GraphWire) { w.Nodes[use].Val = -1 }, "without instruction or value"},
		{"use vertex operand out of range", func(w *GraphWire) { w.Nodes[use].ArgIdx = 99 }, "names operand"},
		{"use vertex negative operand", func(w *GraphWire) { w.Nodes[use].ArgIdx = -1 }, "names operand"},
		{"use vertex with a value role", func(w *GraphWire) { w.Nodes[use].Role = RoleNone }, "unknown role"},
		{"use vertex with a role past the table", func(w *GraphWire) { w.Nodes[use].Role = UseRole(numRoles) }, "unknown role"},
		{"unknown vertex kind", func(w *GraphWire) { w.Nodes[val].Kind = 9 }, "unknown kind"},
		{"edge target out of range", func(w *GraphWire) { w.Succs[0].Edges[0].To = int32(len(w.Nodes)) }, "bad edge target"},
		{"negative edge target", func(w *GraphWire) { w.Succs[0].Edges[0].To = -1 }, "bad edge target"},
		{"edge source out of range", func(w *GraphWire) { w.Succs[len(w.Succs)-1].From = int32(len(w.Nodes)) }, "bad edge source"},
		{"edge lists out of vertex order", func(w *GraphWire) { w.Succs[1].From = w.Succs[0].From }, "bad edge source"},
		{"edge condition out of range", func(w *GraphWire) { w.Succs[0].Edges[0].Cond = int32(len(nodes)) }, "bad edge cond"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &GraphWire{Nodes: append([]SEGNodeWire(nil), good.Nodes...)}
			for _, sw := range good.Succs {
				w.Succs = append(w.Succs, SEGSuccWire{From: sw.From, Edges: append([]SEGEdgeWire(nil), sw.Edges...)})
			}
			tc.corrupt(w)
			got, err := ImportGraph(w, g.Fn, g.Info, g.PTA, ix, nodes)
			if err == nil {
				t.Fatalf("import accepted the wire (graph with %d vertices)", got.NumNodes())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
