package pta

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/ssa"
	"repro/internal/wirebin"
)

// wireResult is a Result's encoding as these tests write it by hand: the
// three ascending-keyed tables of the layout documented in codec.go, then
// the five Stats counters. A nil list and an empty one are different
// entries.
type wireResult struct {
	pts      []wireLocs
	loads    []wireVals
	storedAt []wireLocs
	stats    [5]int
}

type wireLocs struct {
	key  int32
	locs []wireLoc // nil = the nil list
}

type wireLoc struct {
	kind        uint8
	instr, val  int32
	name, field string // syms
	cond        int32
}

type wireVals struct {
	key  int32
	vals [][2]int32 // value ID, condition ID; nil = the nil list
}

func (w *wireResult) bytes() []byte {
	var e wirebin.Writer
	locs := func(tab []wireLocs) {
		e.Uvarint(uint64(len(tab)))
		for _, ent := range tab {
			e.I32(ent.key)
			if ent.locs == nil {
				e.Uvarint(0)
				continue
			}
			e.Uvarint(uint64(len(ent.locs)) + 1)
			for _, l := range ent.locs {
				e.U8(l.kind)
				e.I32(l.instr)
				e.I32(l.val)
				e.Sym(l.name)
				e.Sym(l.field)
				e.I32(l.cond)
			}
		}
	}
	locs(w.pts)
	e.Uvarint(uint64(len(w.loads)))
	for _, ent := range w.loads {
		e.I32(ent.key)
		if ent.vals == nil {
			e.Uvarint(0)
			continue
		}
		e.Uvarint(uint64(len(ent.vals)) + 1)
		for _, v := range ent.vals {
			e.I32(v[0])
			e.I32(v[1])
		}
	}
	locs(w.storedAt)
	for _, n := range w.stats {
		e.Int(n)
	}
	return e.B
}

// describe writes down res the way a genuine encoding holds it.
func describe(res *Result) *wireResult {
	locs := func(key int, ls []GuardedLoc) wireLocs {
		ent := wireLocs{key: int32(key)}
		if ls != nil {
			ent.locs = []wireLoc{}
		}
		for _, gl := range ls {
			l := wireLoc{kind: uint8(gl.Loc.Kind), instr: -1, val: -1, name: gl.Loc.Name, field: gl.Loc.Field, cond: cond.Ref(gl.Cond)}
			if gl.Loc.Instr != nil {
				l.instr = int32(gl.Loc.Instr.ID)
			}
			if gl.Loc.Val != nil {
				l.val = int32(gl.Loc.Val.ID)
			}
			ent.locs = append(ent.locs, l)
		}
		return ent
	}
	s := res.Stats
	w := &wireResult{stats: [5]int{s.GuardsPruned, s.GuardsKept, s.CapWidened, s.LinearQueries, s.LinearUnsat}}
	res.locs.Each(0, int(res.numVals), func(id int, ls []GuardedLoc) { w.pts = append(w.pts, locs(id, ls)) })
	res.loadSources.Each(0, res.loadSources.IDs(), func(id int, vs []GuardedVal) {
		ent := wireVals{key: int32(id)}
		if vs != nil {
			ent.vals = [][2]int32{}
		}
		for _, gv := range vs {
			ent.vals = append(ent.vals, [2]int32{int32(gv.Val.ID), cond.Ref(gv.Cond)})
		}
		w.loads = append(w.loads, ent)
	})
	res.locs.Each(int(res.numVals), res.locs.IDs(), func(id int, ls []GuardedLoc) { w.storedAt = append(w.storedAt, locs(id, ls)) })
	return w
}

const codecSrc = `
struct S { int *f; };
int *g;
int *pick(bool c, int *a) {
	struct S *s = malloc();
	int *p = malloc();
	*p = 1;
	if (c) { p = a; }
	s->f = p;
	g = s->f;
	return g;
}`

// decodeEnv analyzes pick and returns its Result with what DecodeResult
// needs to rebuild it: the function, its index, the Info and the condition
// nodes as their own codecs decode them.
func decodeEnv(t *testing.T) (*Result, *ir.Func, *ssa.Info, *ir.Index, cond.Nodes) {
	t.Helper()
	_, results := buildAnalyzed(t, codecSrc)
	res := results["pick"]
	var e wirebin.Writer
	ir.EncodeFunc(&e, res.Fn)
	if err := cond.EncodeBuilder(&e, res.Info.Conds); err != nil {
		t.Fatal(err)
	}
	ssa.EncodeInfo(&e, res.Info)
	r := wirebin.NewReader(e.B)
	f, ix, err := ir.DecodeFunc(r)
	if err != nil {
		t.Fatal(err)
	}
	b, nodes, err := cond.DecodeBuilder(r)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := ssa.DecodeInfo(r, f, ix, b, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return res, f, inf, ix, nodes
}

func TestResultRoundTrip(t *testing.T) {
	res, f, inf, ix, nodes := decodeEnv(t)
	var e wirebin.Writer
	EncodeResult(&e, res)
	want := describe(res)
	if len(want.pts) == 0 || len(want.loads) == 0 || len(want.storedAt) == 0 {
		t.Fatalf("test function exercises too little: %+v", want)
	}
	if !bytes.Equal(e.B, want.bytes()) {
		t.Fatal("EncodeResult does not write the documented layout")
	}
	r := wirebin.NewReader(e.B)
	got, err := DecodeResult(r, f, inf, ix, nodes)
	if err != nil || r.Rest() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, r.Rest())
	}
	if got.Fn != f || got.Info != inf || got.Stats != res.Stats {
		t.Error("decoded Result is not attached to the decoded function and Info, or lost its Stats")
	}
	var again wirebin.Writer
	EncodeResult(&again, got)
	if !bytes.Equal(again.B, e.B) {
		t.Error("the decoded Result encodes differently")
	}
	// Nil and empty lists stay apart: an assigned empty set is a cached
	// answer.
	w := describe(res)
	w.pts[0].locs, w.pts[1].locs = nil, []wireLoc{}
	got, err = DecodeResult(wirebin.NewReader(w.bytes()), f, inf, ix, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if ls, ok := got.locs.Get(int(w.pts[0].key)); !ok || ls != nil {
		t.Errorf("nil list decoded as %v, assigned %v", ls, ok)
	}
	if ls, ok := got.locs.Get(int(w.pts[1].key)); !ok || ls == nil || len(ls) != 0 {
		t.Errorf("empty list decoded as %v, assigned %v", ls, ok)
	}
}

// TestDecodeResultRejectsMalformed feeds DecodeResult streams no genuine
// encoding can be; each must come back as an error.
func TestDecodeResultRejectsMalformed(t *testing.T) {
	res, f, inf, ix, nodes := decodeEnv(t)
	// ptsWith finds a points-to entry holding a location of the given kind.
	ptsWith := func(w *wireResult, kind LocKind) *wireLoc {
		for _, ent := range w.pts {
			for i := range ent.locs {
				if ent.locs[i].kind == uint8(kind) {
					return &ent.locs[i]
				}
			}
		}
		t.Fatalf("no points-to target of kind %d in the test function", kind)
		return nil
	}
	loadWithVals := func(w *wireResult) *wireVals {
		for i := range w.loads {
			if len(w.loads[i].vals) > 0 {
				return &w.loads[i]
			}
		}
		t.Fatal("no load with sources in the test function")
		return nil
	}
	cases := []struct {
		name    string
		corrupt func(w *wireResult)
		want    string
	}{
		{"points-to key past the table", func(w *wireResult) { w.pts[len(w.pts)-1].key = int32(len(ix.Values)) }, "bad table value id"},
		{"negative points-to key", func(w *wireResult) { w.pts[0].key = -1 }, "bad table value id"},
		{"duplicate points-to key", func(w *wireResult) { w.pts[1].key = w.pts[0].key }, "bad table value id"},
		{"load key past the table", func(w *wireResult) { w.loads[len(w.loads)-1].key = int32(len(ix.Instrs)) }, "bad table instr id"},
		{"negative load key", func(w *wireResult) { w.loads[0].key = -1 }, "bad table instr id"},
		{"store keys out of order", func(w *wireResult) { w.storedAt[1].key = w.storedAt[0].key }, "bad table instr id"},
		{"allocation site past the table", func(w *wireResult) { ptsWith(w, LMalloc).instr = int32(len(ix.Instrs)) }, "bad instr id"},
		{"allocation site missing", func(w *wireResult) { ptsWith(w, LMalloc).instr = -1 }, "without instruction"},
		{"external root past the table", func(w *wireResult) { ptsWith(w, LExt).val = int32(len(ix.Values)) }, "bad value id"},
		{"external root missing", func(w *wireResult) { ptsWith(w, LExt).val = -1 }, "without root value"},
		{"unknown location kind", func(w *wireResult) { ptsWith(w, LExt).kind = uint8(LNull) + 1 }, "unknown location kind"},
		{"location guard past the table", func(w *wireResult) { ptsWith(w, LMalloc).cond = int32(len(nodes)) }, "bad cond id"},
		{"source value past the table", func(w *wireResult) { loadWithVals(w).vals[0][0] = int32(len(ix.Values)) }, "bad source value id"},
		{"source value missing", func(w *wireResult) { loadWithVals(w).vals[0][0] = -1 }, "bad source value id"},
		{"source guard negative", func(w *wireResult) { loadWithVals(w).vals[0][1] = -9 }, "bad cond id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := describe(res)
			tc.corrupt(w)
			_, err := DecodeResult(wirebin.NewReader(w.bytes()), f, inf, ix, nodes)
			if err == nil {
				t.Fatal("decode accepted the stream")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A symbol index the table does not have yet, a length no input can
	// back, and the stream cut short anywhere.
	var e wirebin.Writer
	e.Uvarint(1)
	e.I32(describe(res).pts[0].key)
	e.Uvarint(2)
	e.U8(uint8(LGlobal))
	e.I32(-1)
	e.I32(-1)
	e.Uvarint(5)
	if _, err := DecodeResult(wirebin.NewReader(e.B), f, inf, ix, nodes); err == nil || !strings.Contains(err.Error(), "bad symbol index") {
		t.Errorf("undefined symbol index: %v", err)
	}
	var huge wirebin.Writer
	huge.Uvarint(1 << 40)
	if _, err := DecodeResult(wirebin.NewReader(huge.B), f, inf, ix, nodes); err == nil {
		t.Error("decode accepted a table size past the input")
	}
	// A key wider than the 32-bit IDs of values and instructions.
	var wide wirebin.Writer
	wide.Uvarint(1)
	wide.Varint(int64(describe(res).pts[0].key) + 1<<32)
	wide.Uvarint(0)
	if _, err := DecodeResult(wirebin.NewReader(wide.B), f, inf, ix, nodes); err == nil || !strings.Contains(err.Error(), "overflows int32") {
		t.Errorf("table key wider than an ID: %v", err)
	}
	full := describe(res).bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeResult(wirebin.NewReader(full[:cut]), f, inf, ix, nodes); err == nil {
			t.Fatalf("decode accepted the stream cut at %d of %d bytes", cut, len(full))
		}
	}
}
