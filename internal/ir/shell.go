package ir

import (
	"fmt"
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
	e.Int(int(f.Unit))
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
	if int(int32(unit)) != unit {
		return nil, nil, r.Errorf("shell: unit %d", unit)
	}
	f := &Func{Ret: ret, Unit: int32(unit), Pos: pos, nValues: int32(nv), nInstrs: int32(ni), nBlocks: int32(nb)}
	params := make([]minic.Type, r.Len())
	for i := range params {
		if params[i], err = DecodeType(r); err != nil {
			return nil, nil, err
		}
	}
	f.Params = make([]Param, 0, len(params)) // AddShellParam fills it
	for _, specs := range []*[]AuxSpec{&f.AuxIn, &f.AuxOut} {
		if n := r.Len(); n > 0 {
			*specs = make([]AuxSpec, 0, n)
		}
		for n := cap(*specs); n > 0; n-- {
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
func (f *Func) AddShellParam(id int32, t minic.Type, aux bool) {
	f.Params = append(f.Params, Param{ID: id, Type: t, Aux: aux})
}

// The wire form of a body, which a segment begins with (see package seg):
//
//	instruction records by ID: line, column, block, Dst, sub, refs, operand count, op, flags
//	value records by ID: Def, name, num, kind, flag bits
//	the symbols, end to end
//
// and, among the segment's lists, the body's: refs, wide, order, params and
// the symbol offsets. The blocks, their edges and the types stay behind:
// detection reads none of them.

// EncodeRecords appends the body's records and symbols.
func (b *Body) EncodeRecords(e *wirebin.Writer) {
	e.Uvarint(uint64(len(b.instrs)))
	for i := range b.instrs {
		r := &b.instrs[i]
		e.I32(r.Loc.Line)
		e.I32(r.Loc.Col)
		e.I32(r.Block)
		e.I32(r.Dst)
		e.I32(r.sub)
		e.I32(r.refs)
		e.Uvarint(uint64(r.nArgs))
		e.U8(uint8(r.Op))
		e.U8(r.flags)
	}
	e.Uvarint(uint64(len(b.values)))
	for i := range b.values {
		v := &b.values[i]
		e.I32(v.Def)
		e.I32(v.name)
		e.I32(v.num)
		e.U8(uint8(v.Kind))
		e.U8(v.bits & wireBits)
	}
	e.Str(b.syms)
}

// DecodeRecords reads what EncodeRecords wrote, each int32 field through
// i32. It reports false for a field wider than its record's. The caller
// hands the body its lists (SetLists), then checks it (CheckWire).
func DecodeRecords(r *wirebin.Reader, i32 func() int32) (Body, bool) {
	var b Body
	ok := true
	b.instrs = make([]Instr, r.Len())
	for i := range b.instrs {
		in := &b.instrs[i]
		in.Loc = Loc{Line: i32(), Col: i32()}
		in.Block, in.Dst, in.sub, in.refs = i32(), i32(), i32(), i32()
		n := r.Uvarint()
		in.nArgs, in.Op, in.flags = uint16(n), Op(r.U8()), r.U8()
		ok = ok && uint64(in.nArgs) == n
	}
	b.values = make([]Value, r.Len())
	for i := range b.values {
		v := &b.values[i]
		v.Def, v.name, v.num, v.Kind = i32(), i32(), i32(), ValueKind(r.U8())
		v.bits = r.U8()
		ok = ok && v.bits&^wireBits == 0 // no room for it either
	}
	b.syms = r.Str()
	return b, ok
}

// SetLists hands a decoded body its array of lists, laid out as Adopt lays
// out one (see List), and its return operand count.
func (b *Body) SetLists(ints []int32, retArgs int32) {
	b.ints, b.retArgs = ints, retArgs
}

// ValidOffsets reports whether o is a list of ascending offsets into a list
// of n entries, from 0 to n.
func ValidOffsets(o []int32, n int) bool {
	if len(o) == 0 || o[0] != 0 || o[len(o)-1] != int32(n) {
		return false
	}
	for i := 1; i < len(o); i++ {
		if o[i] < o[i-1] {
			return false
		}
	}
	return true
}

// HoldsValue reports whether a value holds ID v.
func (b *Body) HoldsValue(v int32) bool {
	return v >= 0 && int(v) < len(b.values) && b.values[v].name >= 0
}

// HoldsInstr reports whether an instruction holds ID in.
func (b *Body) HoldsInstr(in int32) bool {
	return in >= 0 && int(in) < len(b.instrs) && b.instrs[in].Block >= 0
}

// CheckWire holds a decoded body to what Pack makes: every ID, offset and
// count inside the space it indexes, with nb blocks and nc conditions. It is
// what makes every accessor detection calls safe on any instruction or
// value the body holds; it returns the first violation. A load's slot is the
// SEG's to check.
func (b *Body) CheckWire(nb, nc int32) error {
	within := func(x, n int32) bool { return x >= 0 && x < n }
	refs, wide, symAt := b.List(lRefs), b.List(lWide), b.List(lSymAt)
	if len(symAt) < 3 || !ValidOffsets(symAt, len(b.syms)) {
		return fmt.Errorf("bad symbol offsets")
	}
	if b.retArgs < 0 {
		return fmt.Errorf("%d return operands", b.retArgs)
	}
	nsym := int32(len(symAt) - 1)
	for _, in := range b.List(lOrder) {
		if !b.HoldsInstr(in) {
			return fmt.Errorf("bad instr id %d in the block order", in)
		}
	}
	for i, p := range b.List(lParams) {
		if !b.HoldsValue(p) || b.values[p].Kind != VParam || b.values[p].num != int32(i) {
			return fmt.Errorf("bad parameter value id %d", p)
		}
	}
	for id := range b.values {
		v := &b.values[id]
		switch {
		case v.name < -1 || v.name >= nsym:
			return fmt.Errorf("value %d: bad symbol %d", id, v.name)
		case v.Def != -1 && !b.HoldsInstr(v.Def):
			return fmt.Errorf("value %d: bad def instr id %d", id, v.Def)
		case v.Kind > VConstNull:
			return fmt.Errorf("value %d has unknown kind %d", id, v.Kind)
		case v.bits&valWide != 0 && (v.Kind != VConstInt || !within(v.num, int32(len(wide))-1)):
			return fmt.Errorf("value %d: bad wide constant at %d", id, v.num)
		}
	}
	for id := range b.instrs {
		r := &b.instrs[id]
		if r.Block == -1 {
			continue // no instruction holds the ID
		}
		in := int32(id)
		if int(r.Op) >= len(arity) {
			return fmt.Errorf("instr %d has unknown op %d", id, r.Op)
		}
		switch ar := arity[r.Op]; {
		case !within(r.Block, nb):
			return fmt.Errorf("instr %d: bad block id %d", id, r.Block)
		case r.sub < -1 || r.sub >= nsym || r.Op == OpCall && r.sub < 0:
			return fmt.Errorf("instr %d: bad symbol %d", id, r.sub)
		case r.flags&^(flagSynthetic|flagEscapes) != 0:
			return fmt.Errorf("instr %d has unknown flags %#x", id, r.flags)
		case ar.Args >= 0 && int(r.nArgs) != ar.Args || r.Dst != -1 && !b.HoldsValue(r.Dst) || ar.Dst && r.Dst == -1:
			return fmt.Errorf("instr %d: bad arity for %s", id, r.Op)
		case r.refs < 0 || int(r.refs)+int(r.nArgs) > len(refs):
			return fmt.Errorf("instr %d: operands past the references", id)
		}
		for _, a := range b.Args(in) {
			if !b.HoldsValue(a) {
				return fmt.Errorf("instr %d: bad operand value id %d", id, a)
			}
		}
		more := refs[b.more(in):] // what follows the operands
		switch r.Op {
		case OpCall:
			if len(more) == 0 || more[0] < 0 || int(more[0]) >= len(more) {
				return fmt.Errorf("instr %d: receivers past the references", id)
			}
			for _, d := range more[1 : 1+more[0]] {
				if d != -1 && !b.HoldsValue(d) {
					return fmt.Errorf("instr %d: bad receiver value id %d", id, d)
				}
			}
		case OpPhi:
			if len(more) < int(r.nArgs) {
				return fmt.Errorf("instr %d: gates past the references", id)
			}
			for _, c := range more[:r.nArgs] {
				if !within(c, nc) {
					return fmt.Errorf("instr %d: bad gate cond id %d", id, c)
				}
			}
		case OpLoad:
			if len(more) == 0 {
				return fmt.Errorf("instr %d: sources past the loads", id)
			}
		}
	}
	return nil
}
