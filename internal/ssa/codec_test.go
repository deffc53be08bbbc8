package ssa

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/wirebin"
)

// wireInfo is an Info's encoding as these tests write it by hand: the
// three ascending-keyed tables of the layout documented in codec.go.
type wireInfo struct {
	gates []wireGates
	atoms []int32    // value IDs
	reach [][2]int32 // block ID, condition ID
}

type wireGates struct {
	instr int32
	conds []int32
}

// i32s writes a counted list of int32s.
func i32s(e *wirebin.Writer, xs []int32) {
	e.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.I32(x)
	}
}

func (w *wireInfo) bytes() []byte {
	var e wirebin.Writer
	e.Uvarint(uint64(len(w.gates)))
	for _, g := range w.gates {
		e.I32(g.instr)
		i32s(&e, g.conds)
	}
	i32s(&e, w.atoms)
	e.Uvarint(uint64(len(w.reach)))
	for _, rc := range w.reach {
		e.I32(rc[0])
		e.I32(rc[1])
	}
	return e.B
}

// describe writes down inf the way a genuine encoding holds it.
func describe(inf *Info) *wireInfo {
	w := &wireInfo{}
	for id := 0; id < inf.Fn.NumInstrs(); id++ {
		if gs, ok := inf.gates.Get(id); ok {
			wg := wireGates{instr: int32(id)}
			for _, g := range gs {
				wg.conds = append(wg.conds, cond.Ref(g))
			}
			w.gates = append(w.gates, wg)
		}
	}
	for id, rc := range inf.reachCond {
		if rc != nil {
			w.reach = append(w.reach, [2]int32{int32(id), cond.Ref(rc)})
		}
	}
	for id := 0; id < inf.Fn.NumValues(); id++ {
		if inf.AtomValue(id) != nil {
			w.atoms = append(w.atoms, int32(id))
		}
	}
	return w
}

const codecSrc = `
int pick(bool c, int a, int b) {
	int x = a;
	if (c) { x = b; }
	if (a < b) { x = x + 1; }
	return x;
}`

// decodeEnv converts pick to SSA and returns its Info with what DecodeInfo
// needs to rebuild it: the function, its index and the condition builder as
// their own codecs decode them.
func decodeEnv(t *testing.T) (*Info, *ir.Func, *ir.Index, *cond.Builder, cond.Nodes) {
	t.Helper()
	_, infos := buildSSA(t, codecSrc)
	inf := infos["pick"]
	var e wirebin.Writer
	ir.EncodeFunc(&e, inf.Fn)
	if err := cond.EncodeBuilder(&e, inf.Conds); err != nil {
		t.Fatal(err)
	}
	r := wirebin.NewReader(e.B)
	f, ix, err := ir.DecodeFunc(r)
	if err != nil {
		t.Fatal(err)
	}
	b, nodes, err := cond.DecodeBuilder(r)
	if err != nil {
		t.Fatal(err)
	}
	return inf, f, ix, b, nodes
}

func TestInfoRoundTrip(t *testing.T) {
	inf, f, ix, b, nodes := decodeEnv(t)
	var e wirebin.Writer
	EncodeInfo(&e, inf)
	want := describe(inf)
	if len(want.gates) == 0 || len(want.atoms) == 0 || len(want.reach) == 0 {
		t.Fatalf("test function exercises too little: %+v", want)
	}
	if !bytes.Equal(e.B, want.bytes()) {
		t.Fatal("EncodeInfo does not write the documented layout")
	}
	r := wirebin.NewReader(e.B)
	got, err := DecodeInfo(r, f, ix, b, nodes)
	if err != nil || r.Rest() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, r.Rest())
	}
	if got.Fn != f || got.Conds != b {
		t.Error("decoded Info is not attached to the decoded function and builder")
	}
	var again wirebin.Writer
	EncodeInfo(&again, got)
	if !bytes.Equal(again.B, e.B) {
		t.Error("the decoded Info encodes differently")
	}
	// What is rebuilt, not read: control dependences, and — only when a join
	// gate is asked for — the build-only state behind JoinGates.
	if got.build != nil {
		t.Error("a decoded Info starts with build-only state")
	}
	for _, blk := range inf.Fn.Blocks {
		if len(got.CD(ix.Blocks[blk.ID])) != len(inf.CD(blk)) {
			t.Errorf("block %d: %d control dependences, want %d", blk.ID, len(got.CD(ix.Blocks[blk.ID])), len(inf.CD(blk)))
		}
		if len(blk.Preds) < 2 {
			continue
		}
		want, have := inf.JoinGates(blk), got.JoinGates(ix.Blocks[blk.ID])
		for i := range want {
			if cond.Ref(have[i]) != cond.Ref(want[i]) {
				t.Errorf("block %d: join gate %d is node %d, want %d", blk.ID, i, cond.Ref(have[i]), cond.Ref(want[i]))
			}
		}
	}
}

// TestDecodeInfoRejectsMalformed feeds DecodeInfo streams no genuine
// encoding can be; each must come back as an error.
func TestDecodeInfoRejectsMalformed(t *testing.T) {
	inf, f, ix, b, nodes := decodeEnv(t)
	cases := []struct {
		name    string
		corrupt func(w *wireInfo)
		want    string
	}{
		{"gate instr past the table", func(w *wireInfo) { w.gates[0].instr = int32(len(ix.Instrs)) }, "bad gate instr id"},
		{"negative gate instr", func(w *wireInfo) { w.gates[0].instr = -1 }, "bad gate instr id"},
		{"duplicate gate instr", func(w *wireInfo) { w.gates = append(w.gates, w.gates[len(w.gates)-1]) }, "bad gate instr id"},
		{"gate condition past the table", func(w *wireInfo) { w.gates[0].conds[0] = int32(len(nodes)) }, "bad cond id"},
		{"negative gate condition", func(w *wireInfo) { w.gates[0].conds[0] = -2 }, "bad cond id"},
		{"atom value past the table", func(w *wireInfo) { w.atoms[len(w.atoms)-1] = int32(len(ix.Values)) }, "bad atom value id"},
		{"negative atom value", func(w *wireInfo) { w.atoms[0] = -1 }, "bad atom value id"},
		{"duplicate atom value", func(w *wireInfo) { w.atoms = append(w.atoms, w.atoms[len(w.atoms)-1]) }, "bad atom value id"},
		{"reach block past the table", func(w *wireInfo) { w.reach[len(w.reach)-1][0] = int32(len(ix.Blocks)) }, "bad reach block id"},
		{"negative reach block", func(w *wireInfo) { w.reach[0][0] = -1 }, "bad reach block id"},
		{"reach blocks out of order", func(w *wireInfo) { w.reach[1][0] = w.reach[0][0] }, "bad reach block id"},
		{"reach condition past the table", func(w *wireInfo) { w.reach[0][1] = int32(len(nodes)) }, "bad cond id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := describe(inf)
			tc.corrupt(w)
			_, err := DecodeInfo(wirebin.NewReader(w.bytes()), f, ix, b, nodes)
			if err == nil {
				t.Fatal("decode accepted the stream")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A length no input can back, and the stream cut short anywhere.
	var huge wirebin.Writer
	huge.Uvarint(1 << 40)
	if _, err := DecodeInfo(wirebin.NewReader(huge.B), f, ix, b, nodes); err == nil {
		t.Error("decode accepted a gate count past the input")
	}
	// A key wider than the 32-bit IDs of instructions, values and blocks.
	var wide wirebin.Writer
	wide.Uvarint(1)
	wide.Varint(int64(describe(inf).gates[0].instr) + 1<<32)
	wide.Uvarint(0)
	if _, err := DecodeInfo(wirebin.NewReader(wide.B), f, ix, b, nodes); err == nil || !strings.Contains(err.Error(), "overflows int32") {
		t.Errorf("gate key wider than an ID: %v", err)
	}
	full := describe(inf).bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeInfo(wirebin.NewReader(full[:cut]), f, ix, b, nodes); err == nil {
			t.Fatalf("decode accepted the stream cut at %d of %d bytes", cut, len(full))
		}
	}
}
