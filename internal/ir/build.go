package ir

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/minic"
)

// A body is open while it is built or rewritten, and packed (Pack) when a
// pass is done with it: its lists laid out in ID order, its symbols in the
// order the segment codec writes them, its records in arrays of exactly their
// number, and what only an open body needs dropped. Lists grow in place while
// they are the last of their array, and move to its end otherwise, so an open
// body's arrays hold lists in any order, and the ones that moved leave their
// old copy behind until Pack.

// buildState is what an open body holds besides its tables: the indexes of
// its symbols and constants, and, while lowering numbers its values (see
// NewSSA), the ID each value handle holds: slots[h] is the ID, or -2-key
// while the value is a definition of variable key that has none yet.
type buildState struct {
	strs, packed []string // the symbols, and Pack's renumbered ones
	// symIdx indexes strs, first occurrence, once they are more than a few:
	// most bodies have fewer, and a scan of a few strings costs less than
	// hashing each.
	symIdx    map[string]int32
	consts    []constKey // sorted, with the handle of each
	numbering bool
	slots     []int32
	nextVal   int32
	err       error
	symAt     []int32 // Pack's symbol offsets, before they go into the body
	// vals and instrs are the values and instructions of a body lowering
	// numbers, until Pack copies them into arrays of the body's own.
	vals   []Value
	instrs []Instr
}

type constKey struct {
	kind ValueKind
	val  int64
	h    int32
}

func compareConsts(a, b constKey) int {
	return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.val, b.val))
}

// linearSyms is how many symbols a body indexes by a scan.
const linearSyms = 32

var buildPool = sync.Pool{New: func() any { return new(buildState) }}

// reopen makes b, a draft, ready to be rewritten.
func (b *Body) reopen() *buildState {
	if b.build != nil {
		return b.build
	}
	bs := buildPool.Get().(*buildState)
	b.build = bs
	for at, k := b.lists[lSymAt], 0; k+1 < len(at); k++ {
		bs.addSym(b.syms[at[k]:at[k+1]])
	}
	for h := range b.values {
		if v := &b.values[h]; v.IsConst() {
			bs.consts = append(bs.consts, constKey{v.Kind, b.constVal(int32(h)), int32(h)})
		}
	}
	slices.SortFunc(bs.consts, compareConsts)
	return bs
}

// release returns the build state to the pool.
func (b *Body) release() {
	putBuild(b.build)
	b.build = nil
}

func putBuild(bs *buildState) {
	clear(bs.strs)
	clear(bs.packed)
	*bs = buildState{strs: bs.strs[:0], packed: bs.packed[:0], consts: bs.consts[:0], slots: bs.slots[:0], symAt: bs.symAt[:0], vals: bs.vals[:0], instrs: bs.instrs[:0]}
	buildPool.Put(bs)
}

// addSym appends symbol s, whether or not it is there already.
func (bs *buildState) addSym(s string) int32 {
	k := int32(len(bs.strs))
	bs.strs = append(bs.strs, s)
	if k == linearSyms {
		bs.symIdx = make(map[string]int32, 2*linearSyms)
		for i := k; i >= 0; i-- {
			bs.symIdx[bs.strs[i]] = i
		}
	} else if _, ok := bs.symIdx[s]; !ok && bs.symIdx != nil {
		bs.symIdx[s] = k
	}
	return k
}

// sym returns the first symbol equal to s, adding it if there is none.
func (bs *buildState) sym(s string) int32 {
	if bs.symIdx == nil {
		if i := slices.Index(bs.strs, s); i >= 0 {
			return int32(i)
		}
	} else if k, ok := bs.symIdx[s]; ok {
		return k
	}
	return bs.addSym(s)
}

func (b *Body) intern(s string) int32 { return b.reopen().sym(s) }

// addValue appends a value record of type t and returns its handle: its ID,
// unless lowering numbers the values, which gives slot as the ID it holds.
func (b *Body) addValue(v Value, t minic.Type, slot int32) int32 {
	bs := b.reopen()
	i := slices.Index(b.types, t)
	if i < 0 {
		i = len(b.types)
		b.types = append(b.types, t)
	}
	if i > 0xffff && bs.err == nil {
		bs.err = fmt.Errorf("%s: more types than a value record can name", b.Name())
	}
	v.typ = uint16(i)
	if t.Base == minic.BoolType.Base && t.Ptr == 0 {
		v.bits |= valBool
	}
	b.values = append(b.values, v)
	if bs.numbering {
		bs.slots = append(bs.slots, slot)
	}
	return int32(len(b.values) - 1)
}

// newValue appends a value under the next ID.
func (b *Body) newValue(v Value, t minic.Type) int32 {
	bs := b.reopen()
	if bs.numbering {
		bs.nextVal++
	}
	return b.addValue(v, t, bs.nextVal-1)
}

// ValueKey returns the ID value handle h holds: while lowering numbers the
// values, a variable's key for a definition not numbered yet (see NewSSA).
func (b *Body) ValueKey(h int32) int32 {
	if bs := b.build; bs != nil && bs.numbering {
		if s := bs.slots[h]; s < -1 {
			return -2 - s
		}
		return bs.slots[h]
	}
	return h
}

// ReserveID takes the next value ID for a source variable or temporary
// without creating a value under it: the ID is the variable's key while its
// definitions are created (NewSSA), and stays a hole in the function's ID
// space unless a use with no reaching definition fills it (Undef).
func (f *Func) ReserveID() int32 {
	bs := f.reopen()
	bs.nextVal++
	return bs.nextVal - 1
}

// NewSSA creates a definition of the variable key (see ReserveID), named
// like it, and returns its handle. The value holds no ID of its own until
// NumberSSA gives it one; Pack drops it if it never gets one.
func (f *Func) NewSSA(key int32, name string, t minic.Type) int32 {
	return f.addValue(Value{Def: -1, name: f.intern(name), Kind: VVar}, t, -2-key)
}

// NumberSSA gives the value NewSSA created under handle h the next value ID,
// as version version (>= 1) of its variable.
func (f *Func) NumberSSA(h int32, version int) {
	bs := f.reopen()
	bs.slots[h] = bs.nextVal
	bs.nextVal++
	f.values[h].num = int32(version)
}

// Undef returns the value a use of variable key reads where no definition of
// the variable reaches it. It is kept under key, the ID ReserveID gave the
// variable, and named like the variable with no version.
func (f *Func) Undef(key int32, name string, t minic.Type) int32 {
	return f.addValue(Value{Def: -1, name: f.intern(name), Kind: VVar}, t, key)
}

// NewDef creates a variable that is assigned once and lives as long as the
// function — what code inserted after lowering defines (the connector
// transformation's glue).
func (f *Func) NewDef(name string, t minic.Type) int32 {
	return f.newValue(Value{Def: -1, name: f.intern(name), Kind: VVar}, t)
}

// NewParam creates and appends a formal parameter.
func (f *Func) NewParam(name string, t minic.Type, aux bool) int32 {
	v := Value{Def: -1, name: f.intern(name), Kind: VParam, num: int32(len(f.Params))}
	if aux {
		v.bits |= valAux
	}
	h := f.newValue(v, t)
	f.Params = append(f.Params, Param{ID: f.ValueKey(h), Type: t, Aux: aux})
	f.lists[lParams] = append(f.lists[lParams], h)
	return h
}

// SetAux marks value v as a connector value (see Value.Aux).
func (b *Body) SetAux(v int32) { b.values[v].bits |= valAux }

// ConstInt returns the interned integer constant.
func (f *Func) ConstInt(v int64) int32 { return f.interned(VConstInt, v, minic.IntType) }

// ConstBool returns the interned boolean constant.
func (f *Func) ConstBool(v bool) int32 {
	n := int64(0)
	if v {
		n = 1
	}
	return f.interned(VConstBool, n, minic.BoolType)
}

// ConstNull returns the interned null constant.
func (f *Func) ConstNull() int32 { return f.interned(VConstNull, 0, minic.IntType.Pointer()) }

// constVal is the payload constant h is interned by.
func (b *Body) constVal(h int32) int64 {
	if b.values[h].Kind == VConstBool && b.values[h].BoolVal() {
		return 1
	}
	return b.IntVal(h)
}

// interned returns the interned constant of kind k and payload n, creating
// it on first request.
func (b *Body) interned(k ValueKind, n int64, t minic.Type) int32 {
	bs := b.reopen()
	c := constKey{kind: k, val: n}
	at, ok := slices.BinarySearchFunc(bs.consts, c, compareConsts)
	if ok {
		return bs.consts[at].h
	}
	v := Value{Def: -1, name: bs.sym(""), Kind: k}
	switch {
	case k == VConstBool && n != 0:
		v.bits |= valBoolVal
	case k == VConstInt && int64(int32(n)) == n:
		v.num = int32(n)
	case k == VConstInt:
		v.num, v.bits = int32(len(b.lists[lWide])), valWide
		b.lists[lWide] = append(b.lists[lWide], int32(n), int32(n>>32))
	}
	c.h = b.newValue(v, t)
	bs.consts = slices.Insert(bs.consts, at, c)
	return c.h
}

// NewBlock appends a fresh empty block to the function.
func (f *Func) NewBlock() int32 {
	f.reopen()
	f.blocks = append(f.blocks, Block{})
	id := int32(len(f.blocks) - 1)
	f.layout = append(f.layout, id)
	return id
}

// Spec describes an instruction to create (Func.Append, Func.InsertAt).
type Spec struct {
	Op Op
	// Dst is the value the instruction defines, ignored for an opcode that
	// defines none (stores, frees, calls, terminators); Dsts are a call's
	// receivers (-1: a void slot).
	Dst       int32
	Args      []int32
	Dsts      []int32
	Sub       string
	Loc       Loc
	Synthetic bool
}

// grow makes room for k entries at position i of the list of n entries at
// *at in arr, moving the list to the end of arr first unless it is there.
func grow(arr *[]int32, at *int32, n, i, k int32) {
	a := *arr
	if *at+n != int32(len(a)) {
		start := int32(len(a))
		a = append(a, a[*at:*at+n]...)
		*at = start
	}
	a = append(a, make([]int32, k)...)
	copy(a[*at+i+k:], a[*at+i:*at+n])
	*arr = a
}

// newInstr creates the instruction s describes in block blk.
func (b *Body) newInstr(blk int32, s *Spec) int32 {
	bs := b.reopen()
	id := int32(len(b.instrs))
	refs := &b.lists[lRefs]
	r := Instr{Loc: s.Loc, Block: blk, Dst: -1, sub: -1, refs: int32(len(*refs)), nArgs: uint16(len(s.Args)), Op: s.Op}
	if int(r.nArgs) != len(s.Args) && bs.err == nil {
		bs.err = fmt.Errorf("%s: an instruction with %d operands", b.Name(), len(s.Args))
	}
	if arity[s.Op].Dst {
		r.Dst = s.Dst
		if s.Dst >= 0 {
			b.values[s.Dst].Def = id
		}
	}
	if s.Sub != "" {
		r.sub = bs.sym(s.Sub)
	}
	if s.Synthetic {
		r.flags |= flagSynthetic
	}
	*refs = append(*refs, s.Args...)
	switch s.Op {
	case OpCall:
		*refs = append(*refs, int32(len(s.Dsts)))
		*refs = append(*refs, s.Dsts...)
		for _, d := range s.Dsts {
			if d >= 0 {
				b.values[d].Def = id
			}
		}
	case OpPhi:
		*refs = append(*refs, make([]int32, len(s.Args))...)
	case OpLoad:
		*refs = append(*refs, 0)
	}
	b.instrs = append(b.instrs, r)
	return id
}

// Append creates an instruction at the end of block blk.
func (f *Func) Append(blk int32, s Spec) int32 {
	return f.InsertAt(blk, int(f.blocks[blk].n), s)
}

// InsertAt creates an instruction at position i of block blk.
func (f *Func) InsertAt(blk int32, i int, s Spec) int32 {
	id := f.newInstr(blk, &s)
	r := &f.blocks[blk]
	order := &f.lists[lOrder]
	grow(order, &r.at, r.n, int32(i), 1)
	(*order)[r.at+int32(i)] = id
	r.n++
	return id
}

// ReserveInstrID takes the next instruction ID without creating an
// instruction under it.
func (f *Func) ReserveInstrID() {
	f.reopen()
	f.instrs = append(f.instrs, Instr{Block: -1, Dst: -1})
}

// SetArg sets operand i of instruction in to value v.
func (b *Body) SetArg(in int32, i int, v int32) { b.lists[lRefs][b.instrs[in].refs+int32(i)] = v }

// listLen is the length of instruction in's list: its operands and what
// follows them.
func (b *Body) listLen(in int32) int32 {
	r := &b.instrs[in]
	switch r.Op {
	case OpCall:
		return int32(r.nArgs) + 1 + b.lists[lRefs][b.more(in)]
	case OpPhi:
		return 2 * int32(r.nArgs)
	case OpLoad:
		return int32(r.nArgs) + 1
	}
	return int32(r.nArgs)
}

// AppendArgs appends operands to a call or a return.
func (f *Func) AppendArgs(in int32, vs ...int32) {
	f.reopen()
	r, refs := &f.instrs[in], &f.lists[lRefs]
	grow(refs, &r.refs, f.listLen(in), int32(r.nArgs), int32(len(vs)))
	copy((*refs)[r.refs+int32(r.nArgs):], vs)
	r.nArgs += uint16(len(vs))
}

// AddDst appends a receiver to a call.
func (f *Func) AddDst(in, v int32) {
	f.reopen()
	r, refs := &f.instrs[in], &f.lists[lRefs]
	n := f.listLen(in)
	grow(refs, &r.refs, n, n, 1)
	(*refs)[r.refs+n] = v
	(*refs)[f.more(in)]++
	f.values[v].Def = in
}

// Connect records a CFG edge from block a to block c. The function's
// control-flow facts do not follow it: SealCFG recomputes them.
func (f *Func) Connect(a, c int32) {
	f.reopen()
	ra := &f.blocks[a]
	grow(&f.edges, &ra.edges, ra.nPreds+ra.nSuccs, ra.nPreds+ra.nSuccs, 1)
	f.edges[ra.edges+ra.nPreds+ra.nSuccs] = c
	ra.nSuccs++
	rc := &f.blocks[c]
	grow(&f.edges, &rc.edges, rc.nPreds+rc.nSuccs, rc.nPreds, 1)
	f.edges[rc.edges+rc.nPreds] = a
	rc.nPreds++
}

// SealCFG finishes a CFG that has its final shape (lowering calls it last):
// it computes the control-flow facts, and drops the blocks the entry does
// not reach, their instructions (whose IDs become holes, as a dead φ's is)
// and the edges from them. It returns TopoOrder's error.
func (f *Func) SealCFG() error {
	c := new(cfgFacts)
	f.cfg = c
	c.analyze(f.Body)
	kept := f.layout[:0]
	for _, blk := range f.layout {
		if c.rank[blk] < 0 {
			for _, in := range f.Instrs(blk) {
				f.instrs[in].Block = -1
			}
			continue
		}
		kept = append(kept, blk)
		r := &f.blocks[blk]
		list := f.edges[r.edges : r.edges+r.nPreds+r.nSuccs]
		n := int32(0)
		for _, p := range list[:r.nPreds] {
			if c.rank[p] >= 0 {
				list[n] = p
				n++
			}
		}
		copy(list[n:], list[r.nPreds:])
		r.nPreds = n
	}
	f.layout = kept
	return c.err
}

// Pack finishes a pass over an open body: the values get the IDs lowering
// numbered them with, the lists are laid out in ID order (operand lists by
// instruction, instructions and edges block by block), the symbols are
// numbered in order of first use (the function's name and file, the
// instructions' names, the values'), the records (and, when lowering
// packs, the parameters) are left in arrays of exactly their number, and
// what only an open body needs is dropped. The records of IDs no instruction or value holds are reset. A
// packed body is what the segment codec writes, list for list.
func (f *Func) Pack() error {
	b, bs := f.Body, f.build
	if bs == nil {
		return nil
	}
	defer b.release()
	if bs.err != nil {
		return bs.err
	}
	if bs.numbering {
		b.renumber()
		// Lowering appended the instructions to the build state's array,
		// which the next function reuses.
		pooled := b.instrs
		b.instrs, bs.instrs = append(make([]Instr, 0, len(pooled)), pooled...), pooled[:0]
		// Callers read the interface from here on: it is final, but for
		// the connector transformation's aux parameters (see its Prep).
		f.Params = exact(f.Params)
	}
	b.instrs, b.values = exact(b.instrs), exact(b.values)
	b.packSyms()
	// Every list goes into one array: the ones the segment codec writes, in
	// its order (operands, wide constants, block order, parameters, symbol
	// offsets), then the blocks' layout and edges.
	lists := &b.lists
	n := len(lists[lParams]) + len(bs.symAt) + len(b.layout)
	for in := range b.instrs {
		if b.instrs[in].Block >= 0 {
			n += int(b.listLen(int32(in)))
		}
	}
	for v := range b.values {
		if b.values[v].bits&valWide != 0 {
			n += 2
		}
	}
	for _, blk := range b.layout {
		n += int(b.blocks[blk].n + b.blocks[blk].nPreds + b.blocks[blk].nSuccs)
	}
	arr := make([]int32, 0, n)
	// part returns what fill appends to arr as a list of its own; move
	// appends n entries of list at *at there, and points *at at them.
	part := func(fill func(base int)) []int32 {
		base := len(arr)
		fill(base)
		return arr[base:len(arr):len(arr)]
	}
	move := func(base int, list []int32, at *int32, n int32) {
		old := *at
		*at = int32(len(arr) - base)
		arr = append(arr, list[old:old+n]...)
	}
	refs := part(func(base int) {
		for in := range b.instrs {
			if r := &b.instrs[in]; r.Block < 0 {
				*r = Instr{Block: -1, Dst: -1}
			} else {
				move(base, lists[lRefs], &r.refs, b.listLen(int32(in)))
			}
		}
	})
	wide := part(func(base int) {
		for v := range b.values {
			if r := &b.values[v]; r.bits&valWide != 0 {
				move(base, lists[lWide], &r.num, 2)
			}
		}
	})
	order := part(func(base int) {
		for _, blk := range b.layout {
			move(base, lists[lOrder], &b.blocks[blk].at, b.blocks[blk].n)
		}
	})
	lists[lParams] = part(func(int) { arr = append(arr, lists[lParams]...) })
	lists[lSymAt] = part(func(int) { arr = append(arr, bs.symAt...) })
	b.layout = part(func(int) { arr = append(arr, b.layout...) })
	b.edges = part(func(base int) {
		for _, blk := range b.layout {
			r := &b.blocks[blk]
			move(base, b.edges, &r.edges, r.nPreds+r.nSuccs)
		}
	})
	lists[lRefs], lists[lWide], lists[lOrder] = refs, wide, order
	b.retArgs = int32(b.RetArgs())
	return nil
}

// exact returns s in an array of exactly its length: s itself if it has no
// append slack, else a copy.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// renumber moves every value that holds an ID to the record of its ID,
// rewrites the handles in the lists and records to IDs, and drops the values
// that hold none (definitions lowered in blocks the entry does not reach).
// Lowering appended the values to the build state's array, which the next
// function reuses; the body's own is allocated here, of its exact size.
func (b *Body) renumber() {
	bs := b.build
	vals := make([]Value, bs.nextVal)
	for i := range vals {
		vals[i] = Value{Def: -1, name: -1}
	}
	for h, id := range bs.slots {
		if id >= 0 {
			vals[id] = b.values[h]
		}
	}
	id := func(h int32) int32 {
		if h >= 0 && bs.slots[h] < 0 {
			panic(fmt.Sprintf("ir: %s: a value that holds no ID is used", b.Name()))
		}
		if h >= 0 {
			return bs.slots[h]
		}
		return h
	}
	refs, params := b.lists[lRefs], b.lists[lParams]
	for in := range b.instrs {
		r := &b.instrs[in]
		if r.Block < 0 {
			continue
		}
		r.Dst = id(r.Dst)
		args := refs[r.refs : r.refs+int32(r.nArgs)]
		for i, a := range args {
			args[i] = id(a)
		}
		if ds := b.Dsts(int32(in)); ds != nil {
			for i, d := range ds {
				ds[i] = id(d)
			}
		}
	}
	for i, p := range params {
		params[i] = id(p)
	}
	bs.vals, b.values = b.values[:0], vals
	bs.numbering = false
}

// packSyms numbers the symbols in order of first use: the function's name
// and file, the instructions' names by ID, the values' names by ID. The old
// symbols are distinct but for those two, so a symbol is renumbered by its
// old number.
func (b *Body) packSyms() {
	bs := b.build
	old, next := bs.strs, bs.slots[:0] // the slots are done with
	for range old {
		next = append(next, -1)
	}
	next[0], next[1] = 0, 1
	strs := append(bs.packed[:0], old[0], old[1])
	renumber := func(k *int32) {
		if *k >= 0 {
			if next[*k] < 0 {
				next[*k] = int32(len(strs))
				strs = append(strs, old[*k])
			}
			*k = next[*k]
		}
	}
	for in := range b.instrs {
		if r := &b.instrs[in]; r.Block >= 0 {
			renumber(&r.sub)
		}
	}
	for v := range b.values {
		renumber(&b.values[v].name)
	}
	n := 0
	for _, s := range strs {
		n += len(s)
	}
	var syms strings.Builder
	syms.Grow(n)
	at := bs.symAt[:0]
	for _, s := range strs {
		at = append(at, int32(syms.Len()))
		syms.WriteString(s)
	}
	bs.symAt, bs.packed = append(at, int32(syms.Len())), strs
	b.syms = syms.String()
}
