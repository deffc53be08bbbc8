package seg

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/wirebin"
)

// wireGraph is a graph's encoding as these tests write it by hand: the
// fields of the layout documented in codec.go, in order.
type wireGraph struct {
	vertices []wireVertex
	total    int // edge count, ahead of the lists
	succs    []wireSuccs
}

type wireVertex struct {
	kind, role uint8
	val, instr int32
	argIdx     int
}

type wireSuccs struct {
	from  int32
	edges [][2]int32 // target position, condition ID
}

func (w *wireGraph) bytes() []byte {
	var e wirebin.Writer
	e.Uvarint(uint64(len(w.vertices)))
	for _, v := range w.vertices {
		e.U8(v.kind)
		e.U8(v.role)
		e.I32(v.val)
		e.I32(v.instr)
		e.Int(v.argIdx)
	}
	e.Uvarint(uint64(w.total))
	e.Uvarint(uint64(len(w.succs)))
	for _, s := range w.succs {
		e.I32(s.from)
		e.Uvarint(uint64(len(s.edges)))
		for _, ed := range s.edges {
			e.I32(ed[0])
			e.I32(ed[1])
		}
	}
	return e.B
}

// describe writes down g the way a genuine encoding holds it, resolving
// every ID and taking it back from what it resolves to.
func describe(g *Graph) *wireGraph {
	w := &wireGraph{total: g.NumEdges()}
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		nd := g.Node(n)
		v := wireVertex{kind: uint8(nd.Kind), role: uint8(nd.Role), val: -1, instr: -1, argIdx: int(nd.ArgIdx)}
		v.val, v.instr = g.Val(n), g.Instr(n)
		w.vertices = append(w.vertices, v)
		if es := g.Succs(n); len(es) > 0 {
			s := wireSuccs{from: n}
			for _, ed := range es {
				s.edges = append(s.edges, [2]int32{ed.To, cond.Ref(g.Cond(ed))})
			}
			w.succs = append(w.succs, s)
		}
	}
	return w
}

// decodeEnv builds the SEG of fn in src.
func decodeEnv(t *testing.T, src, fn string) *Graph {
	t.Helper()
	_, graphs := buildSEGs(t, src)
	return graphs[fn]
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
	g := decodeEnv(t, codecSrc, "pick")
	b := builtFrom[g]
	var e wirebin.Writer
	EncodeGraph(&e, g)
	if !bytes.Equal(e.B, describe(g).bytes()) {
		t.Fatal("EncodeGraph does not write the documented layout")
	}
	r := wirebin.NewReader(e.B)
	got, err := DecodeGraph(r, b.f, b.inf, b.pr)
	if err != nil || r.Rest() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, r.Rest())
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d nodes %d edges, want %d / %d", got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		if got.Node(n) != g.Node(n) || got.Val(n) != g.Val(n) || got.Instr(n) != g.Instr(n) || got.NodeString(n) != g.NodeString(n) {
			t.Fatalf("vertex %d: got %+v, want %+v", n, got.Node(n), g.Node(n))
		}
		if g.Node(n).Kind == NValue && got.ValueNode(g.Val(n)) != n {
			t.Errorf("vertex %d: ValueNode does not find the imported value vertex", n)
		}
		es, fs := g.Succs(n), got.Succs(n)
		if len(es) != len(fs) {
			t.Fatalf("vertex %d: %d edges, want %d", n, len(fs), len(es))
		}
		for j := range es {
			if fs[j] != es[j] || got.Cond(fs[j]) != g.Cond(es[j]) {
				t.Errorf("vertex %d edge %d differs", n, j)
			}
		}
	}
	if got.Dot() != g.Dot() {
		t.Error("the decoded graph renders another DOT")
	}
}

// TestImportGraphRejectsMalformed feeds DecodeGraph streams no genuine
// encoding can be. Each must come back as an error — corruption costs a
// rebuild, never a panic, neither at decode nor later in detection.
func TestImportGraphRejectsMalformed(t *testing.T) {
	g := decodeEnv(t, codecSrc, "pick")
	b := builtFrom[g]
	good := describe(g)
	firstOf := func(kind NodeKind) int {
		for i, v := range good.vertices {
			if v.kind == uint8(kind) {
				return i
			}
		}
		t.Fatalf("no vertex of kind %d in the test graph", kind)
		return -1
	}
	use, val := firstOf(NUse), firstOf(NValue)
	cases := []struct {
		name    string
		corrupt func(w *wireGraph)
		want    string
	}{
		{"value id past the table", func(w *wireGraph) { w.vertices[val].val = int32(b.f.NumValues()) }, "bad value id"},
		{"value id of a pre-SSA variable", func(w *wireGraph) { w.vertices[val].val = preSSA(t, b.f) }, "bad value id"},
		{"negative value id", func(w *wireGraph) { w.vertices[val].val = -7 }, "bad value id"},
		{"value vertex without value", func(w *wireGraph) { w.vertices[val].val = -1 }, "without value"},
		{"duplicate value vertex", func(w *wireGraph) { w.vertices[use] = w.vertices[val] }, "duplicates the vertex"},
		{"instr id past the table", func(w *wireGraph) { w.vertices[use].instr = int32(b.f.NumInstrs()) }, "bad instr id"},
		{"negative instr id", func(w *wireGraph) { w.vertices[use].instr = -2 }, "bad instr id"},
		{"use vertex without instruction", func(w *wireGraph) { w.vertices[use].instr = -1 }, "without instruction"},
		{"use vertex without value", func(w *wireGraph) { w.vertices[use].val = -1 }, "without instruction or value"},
		{"use vertex operand out of range", func(w *wireGraph) { w.vertices[use].argIdx = 99 }, "names operand"},
		{"use vertex negative operand", func(w *wireGraph) { w.vertices[use].argIdx = -1 }, "names operand"},
		{"use vertex operand wider than its field", func(w *wireGraph) { w.vertices[use].argIdx += 1 << 32 }, "names operand"},
		{"value vertex operand wider than its field", func(w *wireGraph) { w.vertices[val].argIdx = 1 << 32 }, "has operand index"},
		{"use vertex with a value role", func(w *wireGraph) { w.vertices[use].role = uint8(RoleNone) }, "unknown role"},
		{"use vertex with a role past the table", func(w *wireGraph) { w.vertices[use].role = uint8(numRoles) }, "unknown role"},
		{"unknown vertex kind", func(w *wireGraph) { w.vertices[val].kind = 9 }, "unknown kind"},
		{"edge target out of range", func(w *wireGraph) { w.succs[0].edges[0][0] = int32(len(w.vertices)) }, "bad edge target"},
		{"negative edge target", func(w *wireGraph) { w.succs[0].edges[0][0] = -1 }, "bad edge target"},
		{"edge source out of range", func(w *wireGraph) { w.succs[len(w.succs)-1].from = int32(len(w.vertices)) }, "bad edge source"},
		{"edge lists out of vertex order", func(w *wireGraph) { w.succs[1].from = w.succs[0].from }, "bad edge source"},
		{"edge condition out of range", func(w *wireGraph) { w.succs[0].edges[0][1] = int32(g.Conds().NumNodes()) }, "bad cond id"},
		{"negative edge condition", func(w *wireGraph) { w.succs[0].edges[0][1] = -3 }, "bad cond id"},
		{"nil edge condition", func(w *wireGraph) { w.succs[0].edges[0][1] = -1 }, "bad cond id"},
		{"more edges than the total", func(w *wireGraph) { w.total-- }, "more edges than the total"},
		{"fewer edges than the total", func(w *wireGraph) { w.total++ }, "total says"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := describe(g)
			tc.corrupt(w)
			got, err := DecodeGraph(wirebin.NewReader(w.bytes()), b.f, b.inf, b.pr)
			if err == nil {
				t.Fatalf("decode accepted the stream (graph with %d vertices)", got.NumNodes())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A length no input can back, and the stream cut short anywhere.
	var huge wirebin.Writer
	huge.Uvarint(1 << 40)
	if _, err := DecodeGraph(wirebin.NewReader(huge.B), b.f, b.inf, b.pr); err == nil {
		t.Error("decode accepted a vertex count past the input")
	}
	full := good.bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeGraph(wirebin.NewReader(full[:cut]), b.f, b.inf, b.pr); err == nil {
			t.Fatalf("decode accepted the stream cut at %d of %d bytes", cut, len(full))
		}
	}
}

// preSSA returns the ID of a variable lowering created and SSA renaming
// replaced: inside the function's value space, held by no value.
func preSSA(t *testing.T, f *ir.Func) int32 {
	for id := int32(0); int(id) < f.NumValues(); id++ {
		if f.Value(id) == nil {
			return id
		}
	}
	t.Fatal("the test function has no pre-SSA variable")
	return -1
}
