package ir

import (
	"math"

	"repro/internal/minic"
	"repro/internal/wirebin"
)

// The wire form of a function shell: what ReleaseBody keeps of a function and
// its SEG does not say. A store keeps a function as its shell and its SEG; the
// shell is written first, since the SEG is read against its ID spaces.

// MaxPtrDepth bounds the pointer levels of a decoded type; no program has a
// deeper one, so a deeper one is not a genuine encoding's.
const MaxPtrDepth = 255

const (
	typeInt = iota
	typeBool
	typeVoid
	typeStruct // followed by the struct's name
)

// EncodeType appends t.
func EncodeType(e *wirebin.Writer, t minic.Type) {
	switch {
	case t.Base == minic.IntType.Base:
		e.U8(typeInt)
	case t.Base == minic.BoolType.Base:
		e.U8(typeBool)
	case t.Base == minic.VoidType.Base:
		e.U8(typeVoid)
	case t.IsStruct():
		e.U8(typeStruct)
		e.Sym(t.StructName())
	default:
		e.U8(0xff) // no parse yields it, and no decoder accepts it
	}
	e.Uvarint(uint64(max(t.Ptr, 0)))
}

// DecodeType reads a type EncodeType wrote.
func DecodeType(r *wirebin.Reader) (minic.Type, error) {
	var t minic.Type
	switch tag := r.U8(); tag {
	case typeInt:
		t = minic.IntType
	case typeBool:
		t = minic.BoolType
	case typeVoid:
		t = minic.VoidType
	case typeStruct:
		name := r.Sym()
		if name == "" {
			return t, r.Errorf("struct type without a name")
		}
		t = minic.StructType(name)
	default:
		return t, r.Errorf("bad type tag %d", tag)
	}
	ptr := r.Uvarint()
	if ptr > MaxPtrDepth {
		return t, r.Errorf("%d pointer levels", ptr)
	}
	t.Ptr = int(ptr)
	return t, nil
}

// EncodeFunc appends f's shell: its return type, unit, position, the sizes
// of its ID spaces, its parameters' types and its aux specs. The name, the
// file and the parameters' value IDs and names are its SEG's, and
// DecodeFunc's caller adds them.
func EncodeFunc(e *wirebin.Writer, f *Func) {
	EncodeType(e, f.Ret)
	e.Int(f.Unit)
	e.Int(f.Pos.Line)
	e.Int(f.Pos.Col)
	e.Int(f.NumValues())
	e.Int(f.NumInstrs())
	e.Int(f.NumBlocks())
	e.Uvarint(uint64(len(f.Params)))
	for _, p := range f.Params {
		EncodeType(e, p.Type)
	}
	for _, specs := range [][]AuxSpec{f.AuxIn, f.AuxOut} {
		e.Uvarint(uint64(len(specs)))
		for _, a := range specs {
			e.Int(a.Root)
			e.Sym(a.Global)
			e.Int(a.Depth)
		}
	}
}

// DecodeFunc reads a shell EncodeFunc wrote, and its parameters' types: a
// function as ReleaseBody leaves one, without a name, a file or parameters.
// The caller sets the first two and adds the parameters (AddShellParam). A
// type, a position or an ID-space size the shell has no room for, or an aux
// spec rooted at no parameter, is not a genuine shell's.
func DecodeFunc(r *wirebin.Reader) (*Func, []minic.Type, error) {
	ret, err := DecodeType(r)
	if err != nil {
		return nil, nil, err
	}
	unit, pos := r.Int(), minic.Pos{Line: r.Int(), Col: r.Int()}
	nv, ni, nb := r.Int(), r.Int(), r.Int()
	if _, ok := LocOf(pos); !ok {
		return nil, nil, r.Errorf("shell: bad position %d:%d", pos.Line, pos.Col)
	}
	if min(nv, ni, nb) < 0 || max(nv, ni, nb) > math.MaxInt32 {
		return nil, nil, r.Errorf("shell: %d values, %d instructions and %d blocks", nv, ni, nb)
	}
	f := &Func{Ret: ret, Unit: unit, Pos: pos, nextValID: int32(nv), nextInstrID: int32(ni), nextBlockID: int32(nb)}
	params := make([]minic.Type, r.Len())
	for i := range params {
		if params[i], err = DecodeType(r); err != nil {
			return nil, nil, err
		}
	}
	for _, specs := range []*[]AuxSpec{&f.AuxIn, &f.AuxOut} {
		for n := r.Len(); n > 0; n-- {
			a := AuxSpec{Root: r.Int(), Global: r.Sym(), Depth: r.Int()}
			if a.Root < -1 || a.Root >= len(params) || a.Depth < 1 {
				return nil, nil, r.Errorf("shell: bad aux spec %s", a)
			}
			*specs = append(*specs, a)
		}
	}
	if len(f.AuxIn) > len(params) {
		return nil, nil, r.Errorf("shell: %d aux parameters of %d", len(f.AuxIn), len(params))
	}
	return f, params, nil
}

// AddShellParam appends a parameter held under id to a shell (DecodeFunc).
func (f *Func) AddShellParam(id int32, name string, t minic.Type, aux bool) {
	f.Params = append(f.Params, &Value{ID: id, Kind: VParam, name: name, Type: t, num: int64(len(f.Params)), Aux: aux})
}
