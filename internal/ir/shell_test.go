package ir

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/minic"
	"repro/internal/wirebin"
)

// wireShell is a shell's encoding as these tests write it by hand: the fields
// of the layout EncodeFunc documents, in order.
type wireShell struct {
	ret             minic.Type
	unit, line, col int
	nv, ni, nb      int
	params          []minic.Type
	auxIn, auxOut   []AuxSpec
}

func (w *wireShell) bytes() []byte {
	var e wirebin.Writer
	EncodeType(&e, w.ret)
	e.Int(w.unit)
	e.Int(w.line)
	e.Int(w.col)
	e.Int(w.nv)
	e.Int(w.ni)
	e.Int(w.nb)
	e.Uvarint(uint64(len(w.params)))
	for _, t := range w.params {
		EncodeType(&e, t)
	}
	for _, specs := range [][]AuxSpec{w.auxIn, w.auxOut} {
		e.Uvarint(uint64(len(specs)))
		for _, a := range specs {
			e.Int(a.Root)
			e.Sym(a.Global)
			e.Int(a.Depth)
		}
	}
	return e.B
}

// describeShell writes down f's shell the way a genuine encoding holds it.
func describeShell(f *Func) *wireShell {
	w := &wireShell{
		ret: f.Ret, unit: int(f.Unit), line: f.Pos.Line, col: f.Pos.Col,
		nv: f.NumValues(), ni: f.NumInstrs(), nb: f.NumBlocks(),
		auxIn: f.AuxIn, auxOut: f.AuxOut,
	}
	for _, p := range f.Params {
		w.params = append(w.params, p.Type)
	}
	return w
}

// buildShellFunc constructs a function with every part of a shell — a
// struct-pointer return type, parameters (the last one aux), aux specs in
// and out, a value no instruction holds — and releases its body:
//
//	b0: x = *p; br c b1 b2
//	b1: jmp b2
//	b2: ret x
func buildShellFunc() *Func {
	f := NewFunc("pick", minic.StructType("node").Pointer(), 3, minic.Pos{File: "shell.mc", Line: 7, Col: 2})
	c := f.NewParam("c", minic.BoolType, false)
	p := f.NewParam("p", minic.IntType.Pointer(), true)
	f.AuxIn = []AuxSpec{{Root: 1, Depth: 1}}
	f.AuxOut = []AuxSpec{{Root: -1, Global: "g", Depth: 2}}
	f.NewVar("y", minic.IntType, 1) // no instruction defines or reads it
	x := f.NewVar("x", minic.IntType, 0)
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry, f.Exit = b0, b2
	f.Append(b0, Spec{Op: OpLoad, Dst: x, Args: []int32{p}})
	f.Append(b0, Spec{Op: OpBr, Args: []int32{c}})
	f.Connect(b0, b1)
	f.Connect(b0, b2)
	f.Append(b1, Spec{Op: OpJmp})
	f.Connect(b1, b2)
	f.Append(b2, Spec{Op: OpRet, Args: []int32{x}})
	if err := f.Pack(); err != nil {
		panic(err)
	}
	f.ReleaseBody()
	return f
}

// TestFuncRoundTrip holds EncodeFunc to the documented layout, and DecodeFunc
// to bringing back the shell it wrote: with the name, the file and the
// parameters its caller adds, the decoded function is the released one.
func TestFuncRoundTrip(t *testing.T) {
	f := buildShellFunc()
	var e wirebin.Writer
	EncodeFunc(&e, f)
	if !bytes.Equal(e.B, describeShell(f).bytes()) {
		t.Fatal("EncodeFunc does not write the documented layout")
	}
	r := wirebin.NewReader(e.B)
	got, types, err := DecodeFunc(r)
	if err != nil || r.Err() != nil || r.Rest() != 0 {
		t.Fatalf("decode: %v, %v, %d bytes left", err, r.Err(), r.Rest())
	}
	if got.Body != nil || got.Name != "" || got.Pos.File != "" || len(got.Params) != 0 {
		t.Fatalf("the decoded shell holds what its caller adds: %+v", got)
	}
	got.Name, got.Pos.File = f.Name, f.Pos.File
	for i, p := range f.Params {
		got.AddShellParam(p.ID, types[i], i >= len(types)-len(got.AuxIn))
	}
	if got.Ret != f.Ret || got.Unit != f.Unit || got.Pos != f.Pos {
		t.Errorf("decoded %s %d %v, want %s %d %v", got.Ret, got.Unit, got.Pos, f.Ret, f.Unit, f.Pos)
	}
	if got.NumValues() != f.NumValues() || got.NumInstrs() != f.NumInstrs() || got.NumBlocks() != f.NumBlocks() {
		t.Errorf("ID spaces %d/%d/%d, want %d/%d/%d", got.NumValues(), got.NumInstrs(), got.NumBlocks(),
			f.NumValues(), f.NumInstrs(), f.NumBlocks())
	}
	if !slices.Equal(got.AuxIn, f.AuxIn) || !slices.Equal(got.AuxOut, f.AuxOut) {
		t.Errorf("aux specs %v %v, want %v %v", got.AuxIn, got.AuxOut, f.AuxIn, f.AuxOut)
	}
	if !slices.Equal(got.Params, f.Params) {
		t.Errorf("parameters decoded as %v, want %v", got.Params, f.Params)
	}
	var again wirebin.Writer
	EncodeFunc(&again, got)
	if !bytes.Equal(again.B, e.B) {
		t.Error("the decoded function encodes differently")
	}
}

// TestDecodeFuncRejectsMalformed feeds DecodeFunc shells no genuine encoding
// can be; each must come back as an error.
func TestDecodeFuncRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(w *wireShell)
		want    string
	}{
		// What the narrower in-memory fields cannot hold is refused, not
		// truncated into some other function's shell.
		{"function line wider than its field", func(w *wireShell) { w.line = 1 << 40 }, "bad position"},
		{"column wider than its field", func(w *wireShell) { w.col = 1 << 31 }, "bad position"},
		{"negative line", func(w *wireShell) { w.line = -4 }, "bad position"},
		{"value space wider than its field", func(w *wireShell) { w.nv = 1 << 31 }, "values"},
		{"negative instr space", func(w *wireShell) { w.ni = -1 }, "instructions"},
		{"negative block space", func(w *wireShell) { w.nb = -1 }, "blocks"},
		{"unit wider than its field", func(w *wireShell) { w.unit = 1 << 31 }, "unit"},
		{"unknown return type", func(w *wireShell) { w.ret = minic.Type{Base: "float"} }, "bad type tag"},
		{"parameter pointer deeper than the bound", func(w *wireShell) { w.params[1].Ptr = MaxPtrDepth + 1 }, "pointer levels"},
		{"aux spec rooted past the parameters", func(w *wireShell) { w.auxIn[0].Root = len(w.params) }, "bad aux spec"},
		{"aux spec rooted below the globals", func(w *wireShell) { w.auxOut[0].Root = -2 }, "bad aux spec"},
		{"aux spec of depth zero", func(w *wireShell) { w.auxOut[0].Depth = 0 }, "bad aux spec"},
		{"more aux parameters than parameters", func(w *wireShell) {
			w.auxIn = []AuxSpec{{Root: 0, Depth: 1}, {Root: 0, Depth: 2}, {Root: 1, Depth: 1}}
		}, "aux parameters of"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := describeShell(buildShellFunc())
			tc.corrupt(w)
			_, _, err := DecodeFunc(wirebin.NewReader(w.bytes()))
			if err == nil {
				t.Fatal("decode accepted the shell")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The stream cut short anywhere.
	full := describeShell(buildShellFunc()).bytes()
	for cut := 0; cut < len(full); cut++ {
		r := wirebin.NewReader(full[:cut])
		if _, _, err := DecodeFunc(r); err == nil && r.Err() == nil {
			t.Fatalf("decode accepted the stream cut at %d of %d bytes", cut, len(full))
		}
	}
}
