package seg

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/wirebin"
)

const codecSrc = `
int *pick(bool c, int *a) {
	int *p = malloc();
	*p = 1;
	if (c) { free(p); p = a; }
	sink(p, *p);
	return p;
}`

// encoded builds the SEG of pick above and returns it with its encoding.
func encoded(t *testing.T) (*Graph, []byte) {
	t.Helper()
	_, graphs := buildSEGs(t, codecSrc)
	g := graphs["pick"]
	var e wirebin.Writer
	EncodeGraph(&e, g)
	return g, e.B
}

func decode(data []byte, g *Graph) (*Graph, error) {
	return DecodeGraph(wirebin.NewReader(data), builtFrom[g].f, g.Conds())
}

func TestGraphWireRoundTrip(t *testing.T) {
	g, data := encoded(t)
	r := wirebin.NewReader(data)
	got, err := DecodeGraph(r, builtFrom[g].f, g.Conds())
	if err != nil || r.Rest() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, r.Rest())
	}
	var again wirebin.Writer
	EncodeGraph(&again, got)
	if !bytes.Equal(again.B, data) {
		t.Fatal("the decoded graph encodes differently")
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d nodes %d edges, want %d / %d", got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		if got.Node(n) != g.Node(n) || got.NodeString(n) != g.NodeString(n) {
			t.Fatalf("vertex %d: got %+v, want %+v", n, got.Node(n), g.Node(n))
		}
		if g.Node(n).Kind == NValue && got.ValueNode(g.Val(n)) != n {
			t.Errorf("vertex %d: ValueNode does not find the decoded value vertex", n)
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
	f := builtFrom[g].f
	for in := int32(0); int(in) < f.NumInstrs(); in++ {
		if *got.In(in) != *g.In(in) || got.Position(in) != g.Position(in) || got.Callee(in) != g.Callee(in) || got.CD(in) != g.CD(in) {
			t.Errorf("instr %d: got %+v, want %+v", in, *got.In(in), *g.In(in))
		}
	}
	// A value's type and connector mark are the build's; the wire keeps
	// the rest.
	for v := int32(0); int(v) < f.NumValues(); v++ {
		a, b := got.Value(v), g.Value(v)
		if a.Def != b.Def || a.Kind != b.Kind || a.BoolVal() != b.BoolVal() || a.Bool() != b.Bool() ||
			got.HoldsValue(v) != g.HoldsValue(v) || got.ValueString(v) != g.ValueString(v) {
			t.Errorf("value %d: got %+v, want %+v", v, *a, *b)
		}
	}
	if got.Dot() != g.Dot() {
		t.Error("the decoded graph renders another DOT")
	}
}

// TestImportGraphRejectsMalformed feeds DecodeGraph streams no genuine
// encoding can be: each is the encoding of a graph corrupted in memory, field
// for field as the wire holds it. Each must come back as an error —
// corruption costs a rebuild, never a panic, neither at decode nor later in
// detection.
func TestImportGraphRejectsMalformed(t *testing.T) {
	g, good := encoded(t)
	f := builtFrom[g].f
	firstOf := func(kind NodeKind) int {
		for i := range g.nodes {
			if g.nodes[i].Kind == kind {
				return i
			}
		}
		t.Fatalf("no vertex of kind %d in the test graph", kind)
		return -1
	}
	use, val := firstOf(NUse), firstOf(NValue)
	instrIDOf := func(g *Graph, op ir.Op) int32 {
		for _, in := range g.Order() {
			if g.In(in).Op == op {
				return in
			}
		}
		t.Fatalf("no %s in the test graph", op)
		return -1
	}
	// instrOf returns the first instruction with opcode op.
	instrOf := func(g *Graph, op ir.Op) *ir.Instr { return g.In(instrIDOf(g, op)) }
	constant := func(g *Graph) *ir.Value {
		for v := int32(0); int(v) < g.NumValues(); v++ {
			if g.Value(v).Kind == ir.VConstInt {
				return g.Value(v)
			}
		}
		t.Fatal("no integer constant in the test graph")
		return nil
	}
	// more returns where what follows instruction in's operands is in the
	// body's refs.
	more := func(in *ir.Instr) int32 { return *field[int32](in, "refs") + int32(*field[uint16](in, "nArgs")) }
	refs := func(g *Graph) []int32 { return g.part(0) } // the body's lists come first, in wire order
	symAt := func(g *Graph) []int32 { return g.part(4) }
	// A corruption that sets a field to mark has the encoding carry the
	// field 2^32 wider than any int32.
	const mark = 0x5eadbee
	cases := []struct {
		name    string
		corrupt func(g *Graph)
		want    string
	}{
		{"value id past the table", func(g *Graph) { g.nodes[val].val = int32(g.NumValues()) }, "bad value id"},
		{"value id of a pre-SSA variable", func(g *Graph) { g.nodes[val].val = preSSA(t, f) }, "bad value id"},
		{"negative value id", func(g *Graph) { g.nodes[val].val = -7 }, "bad value id"},
		{"value vertex without value", func(g *Graph) { g.nodes[val].val = -1 }, "without value"},
		{"duplicate value vertex", func(g *Graph) { g.nodes[use] = g.nodes[val] }, "duplicates the vertex"},
		{"instr id past the table", func(g *Graph) { g.nodes[use].instr = int32(g.NumInstrs()) }, "bad instr id"},
		{"negative instr id", func(g *Graph) { g.nodes[use].instr = -2 }, "bad instr id"},
		{"use vertex without instruction", func(g *Graph) { g.nodes[use].instr = -1 }, "without instruction"},
		{"use vertex without value", func(g *Graph) { g.nodes[use].val = -1 }, "without instruction or value"},
		{"use vertex operand out of range", func(g *Graph) { g.nodes[use].ArgIdx = 99 }, "names operand"},
		{"use vertex negative operand", func(g *Graph) { g.nodes[use].ArgIdx = -1 }, "names operand"},
		{"use vertex operand wider than its field", func(g *Graph) { g.nodes[use].ArgIdx = mark }, "wider than its record's"},
		{"value vertex operand wider than its field", func(g *Graph) { g.nodes[val].ArgIdx = mark }, "wider than its record's"},
		{"use vertex with a value role", func(g *Graph) { g.nodes[use].Role = RoleNone }, "unknown role"},
		{"use vertex with a role past the table", func(g *Graph) { g.nodes[use].Role = UseRole(numRoles) }, "unknown role"},
		{"unknown vertex kind", func(g *Graph) { g.nodes[val].Kind = 9 }, "unknown kind"},
		{"edge target out of range", func(g *Graph) { g.edges[0].To = int32(len(g.nodes)) }, "bad edge target"},
		{"negative edge target", func(g *Graph) { g.edges[0].To = -1 }, "bad edge target"},
		{"edge source out of range", func(g *Graph) { g.nodes = g.nodes[:len(g.nodes)-1] }, "edge offsets"},
		{"vertex past the edge offsets", func(g *Graph) { g.nodes = append(g.nodes, g.nodes[use]) }, "edge offsets"},
		{"edge lists out of vertex order", func(g *Graph) {
			ss := g.part(pSuccStart)
			for k := range ss {
				if ss[k+1] < ss[len(ss)-1] {
					ss[k] = ss[len(ss)-1]
					return
				}
			}
		}, "edge offsets"},
		{"edge condition out of range", func(g *Graph) { g.edges[0].cond = int32(g.conds.NumNodes()) }, "bad edge cond id"},
		{"negative edge condition", func(g *Graph) { g.edges[0].cond = -3 }, "bad edge cond id"},
		{"nil edge condition", func(g *Graph) { g.edges[0].cond = -1 }, "bad edge cond id"},
		{"more edges than the total", func(g *Graph) { g.edges = append(g.edges, g.edges[0]) }, "edge offsets"},
		{"fewer edges than the total", func(g *Graph) { g.edges = g.edges[:len(g.edges)-1] }, "edge offsets"},

		// The body tables.
		{"operand past pRefs", func(g *Graph) { *field[int32](instrOf(g, ir.OpStore), "refs") = int32(len(refs(g))) - 1 }, "operands past the references"},
		{"part offsets out of order", func(g *Graph) {
			at := g.part(pCDAt)
			at[1] = at[2] + 1
		}, "bad block offsets"},
		{"symbol offset past syms", func(g *Graph) { symAt(g)[len(symAt(g))-1]++ }, "bad symbol offsets"},
		{"value name past the symbols", func(g *Graph) { *field[int32](constant(g), "name") = int32(len(symAt(g))) }, "bad symbol"},
		{"gate condition past the builder", func(g *Graph) {
			g.SetGate(instrIDOf(g, ir.OpPhi), 0, int32(g.conds.NumNodes()))
		}, "bad gate cond id"},
		{"load condition past the builder", func(g *Graph) {
			loads := g.part(pLoads)
			at := g.LoadSlot(instrIDOf(g, ir.OpLoad))
			if loads[at] == 0 {
				t.Fatal("the test load has no sources")
			}
			loads[at+2] = int32(g.conds.NumNodes())
		}, "bad load source"},
		{"load sources past the loads", func(g *Graph) {
			g.part(pLoads)[g.LoadSlot(instrIDOf(g, ir.OpLoad))] = int32(len(g.part(pLoads)))
		}, "sources past the loads"},
		{"block id past numBlocks", func(g *Graph) { instrOf(g, ir.OpFree).Block = int32(g.NumBlocks()) }, "bad block id"},
		{"control-dependence triple naming no value", func(g *Graph) {
			cd := g.part(pCDeps)
			if len(cd) == 0 {
				t.Fatal("the test graph has no control dependence")
			}
			cd[1] = preSSA(t, f)
		}, "bad control dependence"},
		{"wide constant past pWide", func(g *Graph) {
			wide := g.part(1)
			c := constant(g)
			*field[uint8](c, "bits") |= wireWide
			*field[int32](c, "num") = int32(len(wide))
		}, "bad wide constant"},
		{"copy without its operand", func(g *Graph) { instrOf(g, ir.OpFree).Op = ir.OpCopy }, "bad arity"},
		{"unknown opcode", func(g *Graph) { instrOf(g, ir.OpFree).Op = ir.OpFieldAddr + 1 }, "unknown op"},
		{"receivers past the references", func(g *Graph) {
			refs(g)[more(instrOf(g, ir.OpCall))] = int32(len(refs(g)))
		}, "receivers past the references"},
		{"parameter that is no parameter", func(g *Graph) { g.Params()[0] = instrOf(g, ir.OpMalloc).Dst }, "bad parameter value id"},
		{"parameters out of place", func(g *Graph) {
			ps := g.Params()
			ps[0], ps[1] = ps[1], ps[0]
		}, "bad parameter value id"},
		{"another function's ID spaces", func(g *Graph) {
			values := field[[]ir.Value](&g.Body, "values")
			*values = (*values)[:len(*values)-1]
		}, "not the function's"},

		// What Build finishes.
		{"parameter without its vertex", func(g *Graph) { g.nodes[g.ValueNode(g.Params()[0])] = g.nodes[use] }, "parameter"},
		{"operand without its vertex", func(g *Graph) {
			g.nodes[g.ValueNode(g.Args(instrIDOf(g, ir.OpStore))[1])] = g.nodes[use]
		}, "operand"},
		{"Dst without its vertex", func(g *Graph) { g.nodes[g.ValueNode(instrOf(g, ir.OpMalloc).Dst)] = g.nodes[use] }, "Dst"},
		{"receiver without its vertex", func(g *Graph) {
			dsts := g.Dsts(instrIDOf(g, ir.OpCall))
			if len(dsts) == 0 || dsts[0] < 0 {
				t.Fatal("the test call has no receiver")
			}
			g.nodes[g.ValueNode(dsts[0])] = g.nodes[use]
		}, "receiver"},
		{"control-dependence condition past the builder", func(g *Graph) { g.part(pCDCond)[0] = int32(g.conds.NumNodes()) }, "bad control-dependence cond id"},
		{"control-dependence conditions short of the blocks", func(g *Graph) { setPart(g, pCDCond, g.part(pCDCond)[1:]) }, "control-dependence conditions for"},
		{"reachability rows short of the blocks", func(g *Graph) { setPart(g, pReach, g.part(pReach)[1:]) }, "reachability words for"},
		{"reachability rows past the blocks", func(g *Graph) { setPart(g, pReach, append(slices.Clone(g.part(pReach)), 0)) }, "reachability words for"},
		{"atoms out of order", func(g *Graph) {
			atoms := g.part(pAtoms)
			setPart(g, pAtoms, append(slices.Clone(atoms), atoms[0]))
		}, "bad atom value id"},
		{"atom naming no value", func(g *Graph) { g.part(pAtoms)[0] = preSSA(t, f) }, "bad atom value id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := decode(good, g)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(h)
			var e wirebin.Writer
			EncodeGraph(&e, h)
			data := e.B
			if old := binary.AppendVarint(nil, mark); bytes.Count(data, old) == 1 {
				data = bytes.Replace(data, old, binary.AppendVarint(nil, mark+1<<32), 1)
			}
			got, err := decode(data, g)
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
	if _, err := decode(huge.B, g); err == nil {
		t.Error("decode accepted an instruction count past the input")
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := decode(good[:cut], g); err == nil {
			t.Fatalf("decode accepted the stream cut at %d of %d bytes", cut, len(good))
		}
	}
}

// setPart replaces part k of g's int32 array with p.
func setPart(g *Graph, k int, p []int32) {
	ints := field[[]int32](&g.Body, "ints")
	old := *ints
	at, end := old[k], old[k+1]
	next := append(append(slices.Clone(old[:at]), p...), old[end:]...)
	for j := k + 1; j <= pValueAt+1; j++ {
		next[j] += int32(len(p)) - (end - at)
	}
	*ints = next
}

// preSSA returns the ID of a variable lowering created and SSA renaming
// replaced: inside the function's value space, held by no value.
func preSSA(t *testing.T, f *ir.Func) int32 {
	for id := int32(0); int(id) < f.NumValues(); id++ {
		if !f.HoldsValue(id) {
			return id
		}
	}
	t.Fatal("the test function has no pre-SSA variable")
	return -1
}

// wireWide is the flag bit of a wide constant on the wire.
const wireWide = 2

// field returns a pointer to the field called name of the record p points
// to: how these tests corrupt a record of package ir in memory, field for
// field as the wire holds it.
func field[T any](p any, name string) *T {
	return (*T)(unsafe.Pointer(reflect.ValueOf(p).Elem().FieldByName(name).UnsafeAddr()))
}
