package ir

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/minic"
	"repro/internal/wirebin"
)

// This file persists a function for the artifact store. The IR is a pointer
// graph with cycles (values point at defining instructions, instructions at
// blocks, blocks at the function), so on the wire everything goes by the
// dense per-function IDs the constructors already maintain: values,
// instructions, and blocks are written once and referenced by int32 ID
// (-1 = nil). The stream is ordered so that one scan can rebuild the graph —
// whatever a record points at is either already read or sits at a known
// place in a slab:
//
//	name, return type, unit, position, aux specs, the three ID counters
//	values in ascending ID (their Def is resolved after the instructions)
//	parameter IDs
//	block IDs and instruction counts, in Func.Blocks order
//	per block: its instructions, then predecessor and successor IDs
//	entry and exit IDs
//
// Strings that repeat across a function — type base names, file names,
// callee and field names — are wirebin symbols. A decoded function is
// indistinguishable from the one the build produced, ID counters and
// constant intern tables included; what a genuine encoding cannot contain
// (dangling, duplicate or out-of-range IDs, a value nothing refers to, a
// function Verify rejects) is an error.

// Index maps a function's dense ID spaces back to pointers. The companion
// codecs (ssa, pta, seg) resolve their references through it.
type Index struct {
	Values []*Value
	Instrs []*Instr
	Blocks []*Block
}

// Value, Instr and Block resolve a serialized reference; -1 stands for nil,
// and an ID outside the function's space or held by nothing is an error.
func (ix *Index) Value(id int32) (*Value, error) { return resolve(ix.Values, id, "value") }
func (ix *Index) Instr(id int32) (*Instr, error) { return resolve(ix.Instrs, id, "instr") }
func (ix *Index) Block(id int32) (*Block, error) { return resolve(ix.Blocks, id, "block") }

func resolve[T any](tab []*T, id int32, what string) (*T, error) {
	if id == -1 {
		return nil, nil
	}
	if id < 0 || int(id) >= len(tab) || tab[id] == nil {
		return nil, fmt.Errorf("bad %s id %d", what, id)
	}
	return tab[id], nil
}

// liveValues collects every value reachable from f — parameters, interned
// constants, instruction operands and destinations — by ID; the IDs of
// IDs no value holds (variable keys, dead φs) stay nil.
func liveValues(f *Func) []*Value {
	vals := make([]*Value, f.nextValID)
	add := func(v *Value) {
		if v != nil {
			vals[v.ID] = v
		}
	}
	for _, p := range f.Params {
		add(p)
	}
	for _, c := range f.consts {
		add(c)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			add(in.Dst)
			for _, d := range in.Dsts() {
				add(d)
			}
			for _, a := range in.Args {
				add(a)
			}
		}
	}
	return vals
}

func valID(v *Value) int32 {
	if v == nil {
		return -1
	}
	return int32(v.ID)
}

func blockID(b *Block) int32 {
	if b == nil {
		return -1
	}
	return int32(b.ID)
}

func encodeValIDs(e *wirebin.Writer, vs []*Value) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.I32(valID(v))
	}
}

func encodeBlockIDs(e *wirebin.Writer, bs []*Block) {
	e.Uvarint(uint64(len(bs)))
	for _, b := range bs {
		e.I32(blockID(b))
	}
}

func encodePos(e *wirebin.Writer, p minic.Pos) {
	e.Sym(p.File)
	e.Int(p.Line)
	e.Int(p.Col)
}

func decodePos(r *wirebin.Reader) minic.Pos {
	return minic.Pos{File: r.Sym(), Line: r.Int(), Col: r.Int()}
}

// subAndCallee splits Instr.Sub into the two symbols the wire format has for
// it: the callee of a call, the operator, variable or field of anything else.
func subAndCallee(in *Instr) (sub, callee string) {
	if in.Op == OpCall {
		return "", in.Sub
	}
	return in.Sub, ""
}

func encodeAuxSpecs(e *wirebin.Writer, specs []AuxSpec) {
	e.Uvarint(uint64(len(specs)))
	for _, a := range specs {
		e.Int(a.Root)
		e.Sym(a.Global)
		e.Int(a.Depth)
	}
}

func decodeAuxSpecs(r *wirebin.Reader) []AuxSpec {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]AuxSpec, n)
	for i := range out {
		out[i] = AuxSpec{Root: r.Int(), Global: r.Sym(), Depth: r.Int()}
	}
	return out
}

// EncodeFunc appends f to e.
func EncodeFunc(e *wirebin.Writer, f *Func) {
	e.Str(f.Name)
	e.Sym(f.Ret.Base)
	e.Int(f.Ret.Ptr)
	e.Int(f.Unit)
	encodePos(e, f.Pos)
	encodeAuxSpecs(e, f.AuxIn)
	encodeAuxSpecs(e, f.AuxOut)
	e.Uvarint(uint64(f.nextValID))
	e.Uvarint(uint64(f.nextInstrID))
	e.Uvarint(uint64(f.nextBlockID))

	vals := liveValues(f)
	live := 0
	for _, v := range vals {
		if v != nil {
			live++
		}
	}
	e.Uvarint(uint64(live))
	for _, v := range vals {
		if v == nil {
			continue
		}
		e.I32(v.ID)
		e.U8(uint8(v.Kind))
		e.Str(v.Name())
		e.Sym(v.Type.Base)
		e.Int(v.Type.Ptr)
		if v.Def == nil {
			e.I32(-1)
		} else {
			e.I32(v.Def.ID)
		}
		e.Varint(v.IntVal())
		e.Bool(v.BoolVal)
		e.Int(v.ParamIdx())
		e.Bool(v.Aux)
	}
	encodeValIDs(e, f.Params)

	e.Uvarint(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		e.Int(b.ID)
		e.Uvarint(uint64(len(b.Instrs)))
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			e.I32(in.ID)
			e.U8(uint8(in.Op))
			e.I32(valID(in.Dst))
			encodeValIDs(e, in.Dsts())
			encodeValIDs(e, in.Args)
			sub, callee := subAndCallee(in)
			e.Sym(sub)
			e.Sym(callee)
			encodeBlockIDs(e, in.Blocks())
			encodePos(e, in.Position())
			e.Bool(in.Synthetic)
		}
		encodeBlockIDs(e, b.Preds)
		encodeBlockIDs(e, b.Succs)
	}
	e.I32(blockID(f.Entry))
	e.I32(blockID(f.Exit))
}

// funcDecoder holds what the passes of DecodeFunc share.
type funcDecoder struct {
	r  *wirebin.Reader
	f  *Func
	ix *Index
	// used marks, by ID, the values something refers to.
	used []bool
}

func (d *funcDecoder) errorf(format string, args ...any) error {
	return d.r.Errorf("ir: decode %s: %s", d.f.Name, fmt.Sprintf(format, args...))
}

// chunked returns an array of n records cut into the chunks of *table, which
// it is the whole of.
func chunked[T any](table *[]*[slabChunk]T, n int) []T {
	all := make([]T, (n+slabChunk-1)/slabChunk*slabChunk)
	*table = make([]*[slabChunk]T, len(all)/slabChunk)
	for k := range *table {
		(*table)[k] = (*[slabChunk]T)(all[k*slabChunk:])
	}
	return all[:n]
}

// claim enters the record p just read under its id, which must be inside
// the ID space and not taken.
func claim[T any](d *funcDecoder, what string, tab []*T, id int, p *T) error {
	if id < 0 || id >= len(tab) || tab[id] != nil {
		return d.errorf("bad %s id %d", what, id)
	}
	tab[id] = p
	return nil
}

// list reads a counted list of references, each through one, into slots of
// slab.
func list[T any](d *funcDecoder, slab *[]*T, one func() (*T, error)) ([]*T, error) {
	n := d.r.Len()
	if n == 0 {
		return nil, nil
	}
	out := carveSlots(slab, n)
	for i := range out {
		x, err := one()
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

// value reads a value reference (-1 = nil) and marks the value used.
func (d *funcDecoder) value() (*Value, error) {
	v, err := d.ix.Value(d.r.I32())
	if err != nil {
		return nil, d.errorf("%v", err)
	}
	if v != nil {
		d.used[v.ID] = true
	}
	return v, nil
}

// block reads a block reference, which may not be nil.
func (d *funcDecoder) block() (*Block, error) {
	id := d.r.I32()
	b, err := d.ix.Block(id)
	if err != nil || b == nil {
		return nil, d.errorf("bad block id %d", id)
	}
	return b, nil
}

// pos reads a position and narrows it to a Loc. One that does not fit, names
// another file than the function's, or names a file without a line cannot
// come from a genuine encoding: Instr.Position would not give it back.
func (d *funcDecoder) pos() (Loc, error) {
	p := decodePos(d.r)
	l, ok := LocOf(p)
	want := minic.Pos{}
	if l != (Loc{}) {
		want = minic.Pos{File: d.f.Pos.File, Line: int(l.Line), Col: int(l.Col)}
	}
	if !ok || p != want {
		return Loc{}, d.errorf("bad position %s:%d:%d", p.File, p.Line, p.Col)
	}
	return l, nil
}

// DecodeFunc reads one function from r, together with the Index the
// artifact's other sections resolve their references through.
func DecodeFunc(r *wirebin.Reader) (*Func, *Index, error) {
	f := &Func{Name: r.Str()}
	f.Ret = minic.Type{Base: r.Sym(), Ptr: r.Int()}
	f.Unit = r.Int()
	f.Pos = decodePos(r)
	f.AuxIn = decodeAuxSpecs(r)
	f.AuxOut = decodeAuxSpecs(r)
	// The ID spaces size the index below, so they are bounded like any
	// length: every live ID costs several bytes of what remains, and the
	// dead ones (variable keys, pruned blocks) are a fraction of the
	// live.
	nv, ni, nb := r.Len(), r.Len(), r.Len()
	d := &funcDecoder{r: r, f: f}
	if _, ok := LocOf(f.Pos); !ok {
		return nil, nil, d.errorf("bad position %s", f.Pos)
	}
	if max(nv, ni, nb) > math.MaxInt32 {
		return nil, nil, d.errorf("%d values, %d instructions and %d blocks exceed the ID width", nv, ni, nb)
	}
	f.nextValID, f.nextInstrID, f.nextBlockID = int32(nv), int32(ni), int32(nb)
	ix := &Index{
		Values: make([]*Value, nv),
		Instrs: make([]*Instr, ni),
		Blocks: make([]*Block, nb),
	}
	d.ix, d.used = ix, make([]bool, nv)
	// The lists are carved like a built function's, and the bookkeeping goes
	// when the function is complete.
	a := f.alloc()

	// Values, restoring the constant intern tables. Values, blocks and
	// instructions each come from one backing array — the artifact lives or
	// dies wholesale, and one allocation for thousands of nodes is a large
	// share of warm-restart time on the allocator alone. The values and
	// instructions arrays are cut into the function's chunks, the latter by
	// ID.
	values := chunked(&f.values, r.Len())
	f.valSlot = make([]int32, nv)
	for i := range f.valSlot {
		f.valSlot[i] = -1
	}
	defs := make([]int32, len(values))
	for i := range values {
		v := &values[i]
		id := r.Int()
		v.Kind, v.name = ValueKind(r.U8()), r.Str()
		v.Type = minic.Type{Base: r.Sym(), Ptr: r.Int()}
		defs[i] = r.I32()
		intVal, boolVal, paramIdx, aux := r.Varint(), r.Bool(), r.Int(), r.Bool()
		if err := claim(d, "value", ix.Values, id, v); err != nil {
			return nil, nil, err
		}
		f.valSlot[id] = int32(i)
		f.carved++
		v.ID, v.BoolVal, v.Aux = int32(id), boolVal, aux
		// Each kind carries one payload; a second one is not a genuine
		// value's, and would be lost in the shared field.
		switch v.Kind {
		case VVar:
		case VParam:
			v.num, paramIdx = int64(paramIdx), 0
		case VConstInt:
			v.num, intVal = intVal, 0
		case VConstBool:
			boolVal = false
		case VConstNull:
		default:
			return nil, nil, d.errorf("value %d has unknown kind %d", v.ID, v.Kind)
		}
		if v.IsConst() {
			at, dup := f.findConst(v)
			if dup {
				return nil, nil, d.errorf("value %d duplicates an interned constant", v.ID)
			}
			f.consts = slices.Insert(f.consts, at, v)
		}
		if intVal != 0 || paramIdx != 0 || boolVal || v.num < 0 && v.Kind == VParam {
			return nil, nil, d.errorf("value %d of kind %d carries a payload of another kind", v.ID, v.Kind)
		}
		d.used[v.ID] = v.IsConst() // the intern tables refer to it
	}
	var err error
	if f.Params, err = list(d, &a.valRefs, d.value); err != nil {
		return nil, nil, err
	}
	for _, p := range f.Params {
		if p == nil {
			return nil, nil, d.errorf("nil parameter")
		}
	}

	// Block shells, so instruction targets can resolve.
	blocks := make([]Block, r.Len())
	counts := make([]int, len(blocks))
	total := 0
	f.Blocks = make([]*Block, len(blocks))
	for i := range blocks {
		b := &blocks[i]
		b.ID, b.Fn = r.Int(), f
		counts[i] = r.Len()
		total += counts[i]
		if err := claim(d, "block", ix.Blocks, b.ID, b); err != nil {
			return nil, nil, err
		}
		f.Blocks[i] = b
	}
	if total > r.Rest() {
		return nil, nil, d.errorf("%d instructions exceed the input", total)
	}

	// Instructions and CFG edges. The per-block instruction lists share one
	// array; the extensions come a chunk at a time, as in a built function.
	instrs := chunked(&f.instrs, ni)
	lists := make([]*Instr, total)
	var exts []Ext
	for i, b := range f.Blocks {
		b.Instrs, lists = lists[:counts[i]:counts[i]], lists[counts[i]:]
		for j := range b.Instrs {
			id := r.Int()
			if id < 0 || id >= ni {
				return nil, nil, d.errorf("bad instr id %d", id)
			}
			in := &instrs[id]
			if err := claim(d, "instr", ix.Instrs, id, in); err != nil {
				return nil, nil, err
			}
			in.Op, in.Block = Op(r.U8()), b
			if in.Dst, err = d.value(); err != nil {
				return nil, nil, err
			}
			dsts, err := list(d, &a.valRefs, d.value)
			if err != nil {
				return nil, nil, err
			}
			if in.Args, err = list(d, &a.valRefs, d.value); err != nil {
				return nil, nil, err
			}
			sub, callee := r.Sym(), r.Sym()
			targets, err := list(d, &a.blockRefs, d.block)
			if err != nil {
				return nil, nil, err
			}
			if in.Loc, err = d.pos(); err != nil {
				return nil, nil, err
			}
			in.Synthetic = r.Bool()
			in.ID = int32(id)
			if int(in.Op) >= len(opNames) {
				return nil, nil, d.errorf("instr %d has unknown op %d", in.ID, in.Op)
			}
			// One name per instruction: a call's is its callee, and only a
			// call has one.
			if in.Sub = sub; in.Op == OpCall {
				in.Sub, callee = callee, sub
			}
			if callee != "" {
				return nil, nil, d.errorf("instr %d (%s) names both %q and %q", in.ID, in.Op, in.Sub, callee)
			}
			if dsts != nil || targets != nil {
				if len(exts) == 0 {
					exts = make([]Ext, extChunk)
				}
				in.Ext, exts = &exts[0], exts[1:]
				in.Ext.Dsts, in.Ext.Blocks = dsts, targets
			}
			b.Instrs[j] = in
		}
		if b.Preds, err = list(d, &a.blockRefs, d.block); err != nil {
			return nil, nil, err
		}
		if b.Succs, err = list(d, &a.blockRefs, d.block); err != nil {
			return nil, nil, err
		}
	}
	if f.Entry, err = d.block(); err != nil {
		return nil, nil, err
	}
	if f.Exit, err = d.block(); err != nil {
		return nil, nil, err
	}

	// Defs last: they reference instructions.
	for i := range values {
		v := &values[i]
		if v.Def, err = ix.Instr(defs[i]); err != nil {
			return nil, nil, d.errorf("value %d: %v", v.ID, err)
		}
		if !d.used[v.ID] {
			return nil, nil, d.errorf("nothing refers to value %d", v.ID)
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if err := Verify(f); err != nil {
		return nil, nil, fmt.Errorf("ir: decode: %w", err)
	}
	f.ReleaseBuildState()
	return f, ix, nil
}
