package ir

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/minic"
	"repro/internal/wirebin"
)

// wireFunc is a function's encoding as these tests write it by hand: the
// fields of the layout documented in codec.go, in order. Strings marked sym
// go out as wirebin symbols.
type wireFunc struct {
	name                        string
	retBase                     string // sym
	retPtr, unit                int
	file                        string // sym
	line, col                   int
	auxIn, auxOut               []AuxSpec
	nextVal, nextInstr, nextBlk uint64
	values                      []wireValue
	params                      []int32
	blocks                      []wireBlock
	entry, exit                 int32
}

type wireValue struct {
	id       int
	kind     uint8
	name     string
	typeBase string // sym
	typePtr  int
	def      int32
	intVal   int64
	boolVal  bool
	paramIdx int
	aux      bool
}

type wireBlock struct {
	id           int
	instrs       []wireInstr
	preds, succs []int32
}

type wireInstr struct {
	id          int
	op          uint8
	dst         int32
	dsts, args  []int32
	sub, callee string // syms
	blocks      []int32
	file        string // sym
	line, col   int
	synthetic   bool
}

// i32s writes a counted list of int32s.
func i32s(e *wirebin.Writer, xs []int32) {
	e.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.I32(x)
	}
}

func (w *wireFunc) bytes() []byte {
	var e wirebin.Writer
	aux := func(specs []AuxSpec) {
		e.Uvarint(uint64(len(specs)))
		for _, a := range specs {
			e.Int(a.Root)
			e.Sym(a.Global)
			e.Int(a.Depth)
		}
	}
	e.Str(w.name)
	e.Sym(w.retBase)
	e.Int(w.retPtr)
	e.Int(w.unit)
	e.Sym(w.file)
	e.Int(w.line)
	e.Int(w.col)
	aux(w.auxIn)
	aux(w.auxOut)
	e.Uvarint(w.nextVal)
	e.Uvarint(w.nextInstr)
	e.Uvarint(w.nextBlk)
	e.Uvarint(uint64(len(w.values)))
	for _, v := range w.values {
		e.Int(v.id)
		e.U8(v.kind)
		e.Str(v.name)
		e.Sym(v.typeBase)
		e.Int(v.typePtr)
		e.I32(v.def)
		e.Varint(v.intVal)
		e.Bool(v.boolVal)
		e.Int(v.paramIdx)
		e.Bool(v.aux)
	}
	i32s(&e, w.params)
	e.Uvarint(uint64(len(w.blocks)))
	for _, b := range w.blocks {
		e.Int(b.id)
		e.Uvarint(uint64(len(b.instrs)))
	}
	for _, b := range w.blocks {
		for _, in := range b.instrs {
			e.Int(in.id)
			e.U8(in.op)
			e.I32(in.dst)
			i32s(&e, in.dsts)
			i32s(&e, in.args)
			e.Sym(in.sub)
			e.Sym(in.callee)
			i32s(&e, in.blocks)
			e.Sym(in.file)
			e.Int(in.line)
			e.Int(in.col)
			e.Bool(in.synthetic)
		}
		i32s(&e, b.preds)
		i32s(&e, b.succs)
	}
	e.I32(w.entry)
	e.I32(w.exit)
	return e.B
}

// describe writes down f the way a genuine encoding holds it.
func describe(f *Func) *wireFunc {
	valIDs := func(vs []*Value) []int32 {
		var out []int32
		for _, v := range vs {
			out = append(out, valID(v))
		}
		return out
	}
	blockIDs := func(bs []*Block) []int32 {
		var out []int32
		for _, b := range bs {
			out = append(out, blockID(b))
		}
		return out
	}
	w := &wireFunc{
		name: f.Name, retBase: f.Ret.Base, retPtr: f.Ret.Ptr, unit: f.Unit,
		file: f.Pos.File, line: f.Pos.Line, col: f.Pos.Col,
		auxIn: f.AuxIn, auxOut: f.AuxOut,
		nextVal: uint64(f.nextValID), nextInstr: uint64(f.nextInstrID), nextBlk: uint64(f.nextBlockID),
		params: valIDs(f.Params), entry: blockID(f.Entry), exit: blockID(f.Exit),
	}
	for _, v := range liveValues(f) {
		if v == nil {
			continue
		}
		wv := wireValue{
			id: int(v.ID), kind: uint8(v.Kind), name: v.Name(), typeBase: v.Type.Base, typePtr: v.Type.Ptr,
			def: -1, intVal: v.IntVal(), boolVal: v.BoolVal, paramIdx: v.ParamIdx(), aux: v.Aux,
		}
		if v.Def != nil {
			wv.def = int32(v.Def.ID)
		}
		w.values = append(w.values, wv)
	}
	for _, b := range f.Blocks {
		wb := wireBlock{id: b.ID, preds: blockIDs(b.Preds), succs: blockIDs(b.Succs)}
		for _, in := range b.Instrs {
			sub, callee := subAndCallee(in)
			wb.instrs = append(wb.instrs, wireInstr{
				id: int(in.ID), op: uint8(in.Op), dst: valID(in.Dst), dsts: valIDs(in.Dsts()), args: valIDs(in.Args),
				sub: sub, callee: callee, blocks: blockIDs(in.Blocks()),
				file: in.Position().File, line: in.Position().Line, col: in.Position().Col, synthetic: in.Synthetic,
			})
		}
		w.blocks = append(w.blocks, wb)
	}
	return w
}

// buildCodecFunc constructs a small function in SSA form, by hand, that uses
// every part of the encoding: parameters (one aux), interned constants, a
// dead value ID, a call with a nil receiver slot, a φ, symbols that repeat.
//
//	b0: _, r = call ext(p); br c b1 b2
//	b1: x1 = 1; jmp b3
//	b2: x2 = *p; jmp b3
//	b3: x3 = phi(b1:x1, b2:x2); ret x3, r
func buildCodecFunc() *Func {
	pos := func(line int) minic.Pos { return minic.Pos{File: "codec.mc", Line: line, Col: 2} }
	f := NewFunc("pick", minic.IntType, 3, pos(1))
	c := f.NewParam("c", minic.BoolType, false)
	p := f.NewParam("p", minic.IntType.Pointer(), true)
	f.AuxIn = []AuxSpec{{Root: 1, Depth: 1}}
	f.AuxOut = []AuxSpec{{Root: -1, Global: "g", Depth: 2}}
	f.ReserveID() // a variable key: its ID stays dead
	loc := func(line int32) Loc { return Loc{Line: line, Col: 2} }
	def := func(name string) *Value { return f.NewDef(name, minic.IntType) }
	r, x1, x2, x3 := def("r"), def("x.1"), def("x.2"), def("x.3")
	r.Aux = true
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry, f.Exit = b0, b3

	r.Def = f.Append(b0, Instr{Op: OpCall, Sub: "ext", Ext: &Ext{Dsts: []*Value{nil, r}}, Args: []*Value{p}, Loc: loc(2), Synthetic: true})
	f.Append(b0, Instr{Op: OpBr, Args: []*Value{c}, Ext: &Ext{Blocks: []*Block{b1, b2}}, Loc: loc(3)})
	Connect(b0, b1)
	Connect(b0, b2)
	x1.Def = f.Append(b1, Instr{Op: OpCopy, Dst: x1, Args: []*Value{f.ConstInt(1)}, Loc: loc(4)})
	f.Append(b1, Instr{Op: OpJmp, Ext: &Ext{Blocks: []*Block{b3}}})
	Connect(b1, b3)
	x2.Def = f.Append(b2, Instr{Op: OpLoad, Dst: x2, Args: []*Value{p}, Loc: loc(5)})
	f.Append(b2, Instr{Op: OpJmp, Ext: &Ext{Blocks: []*Block{b3}}})
	Connect(b2, b3)
	x3.Def = f.Append(b3, Instr{Op: OpPhi, Dst: x3, Args: []*Value{x1, x2}, Ext: &Ext{Blocks: []*Block{b1, b2}}, Loc: loc(6)})
	f.Append(b3, Instr{Op: OpRet, Args: []*Value{x3, r}, Loc: loc(7)})
	f.ConstBool(true)
	f.ConstNull()
	return f
}

func TestFuncRoundTrip(t *testing.T) {
	f := buildCodecFunc()
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	var e wirebin.Writer
	EncodeFunc(&e, f)
	if !bytes.Equal(e.B, describe(f).bytes()) {
		t.Fatal("EncodeFunc does not write the documented layout")
	}
	r := wirebin.NewReader(e.B)
	got, ix, err := DecodeFunc(r)
	if err != nil || r.Rest() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, r.Rest())
	}
	if got.String() != f.String() {
		t.Errorf("decoded function prints differently\ngot:\n%s\nwant:\n%s", got, f)
	}
	// Everything the printed form does not show, through a second encoding:
	// IDs, Defs, positions, aux specs, counters.
	var again wirebin.Writer
	EncodeFunc(&again, got)
	if !bytes.Equal(again.B, e.B) {
		t.Error("the decoded function encodes differently")
	}
	// The intern tables and ID counters carry on where the original's would.
	if got.ConstInt(1) != ix.Values[f.ConstInt(1).ID] || got.ConstBool(true) != ix.Values[f.ConstBool(true).ID] || got.ConstNull() != ix.Values[f.ConstNull().ID] {
		t.Error("interned constants were not restored")
	}
	if v, w := got.ConstInt(99), f.ConstInt(99); v.ID != w.ID {
		t.Errorf("next value ID %d, want %d", v.ID, w.ID)
	}
	for _, b := range got.Blocks {
		if ix.Blocks[b.ID] != b || b.Fn != got {
			t.Errorf("block %d is not indexed or not linked to its function", b.ID)
		}
		for _, in := range b.Instrs {
			if ix.Instrs[in.ID] != in {
				t.Errorf("instruction %d is not indexed", in.ID)
			}
		}
	}
	if v, err := ix.Value(-1); v != nil || err != nil {
		t.Errorf("Value(-1) = %v, %v; want nil", v, err)
	}
	dead := int32(f.Params[1].ID + 1) // the variable key
	if _, err := ix.Value(dead); err == nil {
		t.Error("the index resolves a dead value ID")
	}
}

// TestDecodeFuncRejectsMalformed feeds DecodeFunc streams no genuine
// encoding can be; each must come back as an error.
func TestDecodeFuncRejectsMalformed(t *testing.T) {
	good := describe(buildCodecFunc())
	valueOf := func(w *wireFunc, name string) *wireValue {
		for i := range w.values {
			if w.values[i].name == name {
				return &w.values[i]
			}
		}
		t.Fatalf("no value %q in the test function", name)
		return nil
	}
	cases := []struct {
		name    string
		corrupt func(w *wireFunc)
		want    string
	}{
		{"value id past the space", func(w *wireFunc) { valueOf(w, "x.3").id = int(w.nextVal) }, "bad value id"},
		{"negative value id", func(w *wireFunc) { valueOf(w, "x.3").id = -4 }, "bad value id"},
		{"duplicate value id", func(w *wireFunc) { valueOf(w, "x.3").id = valueOf(w, "x.2").id }, "bad value id"},
		{"unknown value kind", func(w *wireFunc) { valueOf(w, "x.3").kind = 9 }, "unknown kind"},
		{"duplicate constant", func(w *wireFunc) { valueOf(w, "x.3").kind = uint8(VConstNull) }, "duplicates an interned constant"},
		{"def past the space", func(w *wireFunc) { valueOf(w, "x.1").def = int32(w.nextInstr) }, "bad instr id"},
		{"def of a dead instruction", func(w *wireFunc) { w.nextInstr++; valueOf(w, "x.1").def = int32(w.nextInstr - 1) }, "bad instr id"},
		{"negative def", func(w *wireFunc) { valueOf(w, "x.1").def = -2 }, "bad instr id"},
		{"orphan value", func(w *wireFunc) {
			w.values = append(w.values, wireValue{id: int(w.params[1]) + 1, name: "x", def: -1})
		}, "nothing refers to value"},
		{"param past the space", func(w *wireFunc) { w.params[0] = int32(w.nextVal) }, "bad value id"},
		{"dead param", func(w *wireFunc) { w.params[0] = w.params[1] + 1 }, "bad value id"},
		{"nil param", func(w *wireFunc) { w.params[0] = -1 }, "nil parameter"},
		{"block id past the space", func(w *wireFunc) { w.blocks[2].id = int(w.nextBlk) }, "bad block id"},
		{"negative block id", func(w *wireFunc) { w.blocks[2].id = -1 }, "bad block id"},
		{"duplicate block id", func(w *wireFunc) { w.blocks[2].id = w.blocks[1].id }, "bad block id"},
		{"instr id past the space", func(w *wireFunc) { w.blocks[1].instrs[0].id = int(w.nextInstr) }, "bad instr id"},
		{"negative instr id", func(w *wireFunc) { w.blocks[1].instrs[0].id = -1 }, "bad instr id"},
		{"duplicate instr id", func(w *wireFunc) { w.blocks[1].instrs[1].id = w.blocks[1].instrs[0].id }, "bad instr id"},
		{"unknown op", func(w *wireFunc) { w.blocks[1].instrs[0].op = uint8(len(opNames)) }, "unknown op"},
		{"dst past the space", func(w *wireFunc) { w.blocks[1].instrs[0].dst = int32(w.nextVal) }, "bad value id"},
		{"dead receiver", func(w *wireFunc) { w.blocks[0].instrs[0].dsts[0] = w.params[1] + 1 }, "bad value id"},
		{"negative argument", func(w *wireFunc) { w.blocks[2].instrs[0].args[0] = -5 }, "bad value id"},
		{"branch target past the space", func(w *wireFunc) { w.blocks[0].instrs[1].blocks[1] = int32(w.nextBlk) }, "bad block id"},
		{"nil branch target", func(w *wireFunc) { w.blocks[0].instrs[1].blocks[1] = -1 }, "bad block id"},
		{"nil predecessor", func(w *wireFunc) { w.blocks[3].preds[0] = -1 }, "bad block id"},
		{"successor past the space", func(w *wireFunc) { w.blocks[0].succs[0] = 77 }, "bad block id"},
		{"nil entry", func(w *wireFunc) { w.entry = -1 }, "bad block id"},
		{"exit past the space", func(w *wireFunc) { w.exit = int32(w.nextBlk) }, "bad block id"},
		// What the narrower in-memory fields cannot hold is refused, not
		// truncated into some other function's artifact.
		{"value id wider than its field", func(w *wireFunc) { valueOf(w, "x.3").id += 1 << 32 }, "bad value id"},
		{"instr id wider than its field", func(w *wireFunc) { w.blocks[1].instrs[0].id += 1 << 32 }, "bad instr id"},
		{"line wider than its field", func(w *wireFunc) { w.blocks[1].instrs[0].line += 1 << 32 }, "bad position"},
		{"column wider than its field", func(w *wireFunc) { w.blocks[1].instrs[0].col = 1 << 31 }, "bad position"},
		{"negative line", func(w *wireFunc) { w.blocks[1].instrs[0].line = -4 }, "bad position"},
		{"function line wider than its field", func(w *wireFunc) { w.line = 1 << 40 }, "bad position"},
		{"position in another file", func(w *wireFunc) { w.blocks[1].instrs[0].file = "other.mc" }, "bad position"},
		{"file without a position", func(w *wireFunc) { w.blocks[1].instrs[1].file = "codec.mc" }, "bad position"},
		{"parameter index on a variable", func(w *wireFunc) { valueOf(w, "x.3").paramIdx = 1 }, "payload of another kind"},
		{"integer on a parameter", func(w *wireFunc) { valueOf(w, "p").intVal = 7 }, "payload of another kind"},
		{"truth value on a variable", func(w *wireFunc) { valueOf(w, "x.3").boolVal = true }, "payload of another kind"},
		{"negative parameter index", func(w *wireFunc) { valueOf(w, "p").paramIdx = -1 }, "payload of another kind"},
		{"operator on a call", func(w *wireFunc) { w.blocks[0].instrs[0].sub = "+" }, "names both"},
		{"callee on a copy", func(w *wireFunc) { w.blocks[1].instrs[0].callee = "ext" }, "names both"},
		{"instr space past the input", func(w *wireFunc) { w.nextInstr = 1 << 40 }, "exceeds"},
		{"value space past the input", func(w *wireFunc) { w.nextVal = 1 << 40 }, "exceeds"},
		{"block space past the input", func(w *wireFunc) { w.nextBlk = 1 << 40 }, "exceeds"},
		{"unverifiable: missing terminator", func(w *wireFunc) { w.blocks[1].instrs = w.blocks[1].instrs[:1] }, "terminator"},
		{"unverifiable: predecessor without the edge", func(w *wireFunc) { w.blocks[1].preds = append(w.blocks[1].preds, 2) }, "b1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := describe(buildCodecFunc())
			tc.corrupt(w)
			_, _, err := DecodeFunc(wirebin.NewReader(w.bytes()))
			if err == nil {
				t.Fatal("decode accepted the stream")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A symbol index the table does not have yet, and the stream cut short
	// anywhere.
	var e wirebin.Writer
	e.Str("f")
	e.Uvarint(3)
	if _, _, err := DecodeFunc(wirebin.NewReader(e.B)); err == nil || !strings.Contains(err.Error(), "bad symbol index") {
		t.Errorf("undefined symbol index: %v", err)
	}
	full := good.bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeFunc(wirebin.NewReader(full[:cut])); err == nil {
			t.Fatalf("decode accepted the stream cut at %d of %d bytes", cut, len(full))
		}
	}
}
