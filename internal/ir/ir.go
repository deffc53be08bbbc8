// Package ir defines the intermediate representation the analysis runs on.
//
// The IR matches the abstract language of Pinpoint §3: common assignments,
// φ-assignments, binary/unary operations, loads and stores through pointers,
// branches, calls, and returns. Programs are lowered from MiniC ASTs by
// package lower, put into SSA form by package ssa, and then transformed by
// package transform to expose side effects through Aux formal parameters and
// Aux return values (the "connector model", Figure 3 of the paper).
//
// Functions may have multiple return operands and calls multiple receivers;
// pre-transformation code uses only the first slot, the connector
// transformation appends the aux slots.
package ir

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/minic"
)

// Op enumerates instruction opcodes.
type Op uint8

const (
	// OpCopy: Dst = Args[0].
	OpCopy Op = iota
	// OpBin: Dst = Args[0] <Sub> Args[1].
	OpBin
	// OpUn: Dst = <Sub> Args[0].
	OpUn
	// OpPhi: Dst = φ(Args...); Blocks lists the incoming predecessor of
	// each argument, parallel to Args.
	OpPhi
	// OpLoad: Dst = *Args[0].
	OpLoad
	// OpStore: *Args[0] = Args[1].
	OpStore
	// OpAlloc: Dst = address of a fresh stack slot (an address-taken
	// local). Sub holds the source variable name.
	OpAlloc
	// OpMalloc: Dst = address of a fresh heap object.
	OpMalloc
	// OpFree: free(Args[0]).
	OpFree
	// OpCall: Dsts = call Callee(Args...). Dsts[0] receives the source
	// return value (nil slot for void); Dsts[1:] receive aux return
	// values after the connector transformation.
	OpCall
	// OpBr: if Args[0] goto Blocks[0] else Blocks[1]. Terminator.
	OpBr
	// OpJmp: goto Blocks[0]. Terminator.
	OpJmp
	// OpRet: return Args... (Args[0] is the source return value; it is
	// absent entirely for void functions before transformation).
	// Terminator.
	OpRet
	// OpGlobalAddr: Dst = address of global Sub.
	OpGlobalAddr
	// OpFieldAddr: Dst = address of field Sub within the struct object
	// pointed to by Args[0].
	OpFieldAddr
)

var opNames = [...]string{
	OpCopy: "copy", OpBin: "bin", OpUn: "un", OpPhi: "phi", OpLoad: "load",
	OpStore: "store", OpAlloc: "alloc", OpMalloc: "malloc", OpFree: "free",
	OpCall: "call", OpBr: "br", OpJmp: "jmp", OpRet: "ret", OpGlobalAddr: "gaddr",
	OpFieldAddr: "fieldaddr",
}

func (o Op) String() string { return opNames[o] }

// ValueKind discriminates Value forms.
type ValueKind uint8

const (
	// VVar is a single-assignment version of a source variable or
	// temporary (or the undefined value of one; see Func.Undef).
	VVar ValueKind = iota
	// VParam is a function formal parameter (single assignment).
	VParam
	// VConstInt is an integer constant.
	VConstInt
	// VConstBool is a boolean constant.
	VConstBool
	// VConstNull is the null pointer constant.
	VConstNull
)

// Value is an IR value: a variable, parameter, or constant. Variables and
// parameters are identified by pointer; constants are interned per function.
//
// A function holds about one Value per instruction, so the record is kept to
// 64 bytes: the one number a value carries — the integer of a VConstInt, the
// position of a VParam, the SSA version of a VVar — shares a field, and an SSA
// version keeps its variable's name string and renders "<name>.<version>" on
// demand (see Name) instead of owning a string of its own.
type Value struct {
	name string
	Type minic.Type
	// Def is the defining instruction of an SSA variable (nil for
	// parameters and constants).
	Def *Instr
	// num is IntVal for a VConstInt, ParamIdx for a VParam, and the SSA
	// version of a VVar (0: the variable is not a version, name is whole).
	num  int64
	ID   int32
	Kind ValueKind
	// BoolVal is the payload of a VConstBool.
	BoolVal bool
	// Aux marks connector values introduced by the transformation: aux
	// formal parameters (VParam) and aux return values.
	Aux bool
}

// Var returns a variable that belongs to no function, under an ID of the
// caller's choosing (the whole-program baselines use such values as proxy
// nodes).
func Var(id int32, name string, t minic.Type) *Value {
	return &Value{ID: id, Kind: VVar, name: name, Type: t}
}

// Name returns the value's name: the source or compiler-given name of a
// variable or parameter, "<variable>.<n>" for SSA version n, "" for a
// constant.
func (v *Value) Name() string {
	if v.Kind == VVar && v.num != 0 {
		return v.name + "." + strconv.FormatInt(v.num, 10)
	}
	return v.name
}

// BaseName returns the name of the variable a version belongs to, or the
// whole name of any other value.
func (v *Value) BaseName() string { return v.name }

// Version returns the SSA version of a variable (0 for a value that is not
// one).
func (v *Value) Version() int64 {
	if v.Kind != VVar {
		return 0
	}
	return v.num
}

// IntVal returns the payload of a VConstInt (0 for any other value).
func (v *Value) IntVal() int64 {
	if v.Kind != VConstInt {
		return 0
	}
	return v.num
}

// ParamIdx returns the 0-based position of a VParam, including aux formal
// parameters appended by the connector transformation (0 for any other
// value).
func (v *Value) ParamIdx() int {
	if v.Kind != VParam {
		return 0
	}
	return int(v.num)
}

// IsConst reports whether v is a constant of any kind.
func (v *Value) IsConst() bool {
	return v.Kind == VConstInt || v.Kind == VConstBool || v.Kind == VConstNull
}

func (v *Value) String() string {
	switch v.Kind {
	case VConstInt:
		return strconv.FormatInt(v.num, 10)
	case VConstBool:
		if v.BoolVal {
			return "true"
		}
		return "false"
	case VConstNull:
		return "null"
	default:
		return v.Name()
	}
}

// Loc is a source position within the file of the enclosing function: every
// instruction of a function comes from the function's own file, so the file
// name is kept once, in Func.Pos, and Instr.Position puts the two together.
// The zero Loc is "no position" (φs, test-built instructions).
type Loc struct {
	Line, Col int32
}

// LocOf narrows a position to a Loc; it reports false for a line or column a
// Loc cannot hold.
func LocOf(p minic.Pos) (Loc, bool) {
	l := Loc{Line: int32(p.Line), Col: int32(p.Col)}
	return l, int(l.Line) == p.Line && int(l.Col) == p.Col && p.Line >= 0 && p.Col >= 0
}

// Ext is the part of an instruction only a few opcodes have: the receivers
// of a call, and the target blocks of a branch or jump or the incoming blocks
// of a φ. Read it through Instr.Dsts and Instr.Blocks.
type Ext struct {
	Dsts   []*Value // call receivers; Dsts[0] may be nil for void calls
	Blocks []*Block // successors (OpBr/OpJmp) or phi predecessors (OpPhi)
}

// Instr is one IR instruction. Instructions are identified by pointer; ID is
// unique within the enclosing function and serves as the statement label s in
// the paper's v@s vertices.
//
// The record is the most numerous object of a built program, so it holds
// only what every opcode uses (80 bytes); see DESIGN.md, "Data layout".
type Instr struct {
	Dst  *Value
	Args []*Value
	// Sub is the one name an opcode carries: the operator of OpBin/OpUn, the
	// variable of OpAlloc/OpGlobalAddr, the field of OpFieldAddr, the callee
	// of OpCall (see Callee).
	Sub   string
	Block *Block
	// Ext is nil except for calls, branches, jumps and φs.
	Ext *Ext
	Loc Loc
	ID  int32
	Op  Op
	// Synthetic marks connector glue inserted by the transformation
	// (entry stores, exit loads, call-site load/store chains). Checkers
	// skip synthetic dereferences: they model a callee's accesses, which
	// are reported at their real site inside the callee.
	Synthetic bool
}

// Dsts returns a call's receivers: Dsts()[0] receives the source return value
// (nil for a void call), the rest the aux return values. Nil for any other
// opcode.
func (in *Instr) Dsts() []*Value {
	if in.Ext == nil {
		return nil
	}
	return in.Ext.Dsts
}

// Blocks returns the targets of a branch or jump, or a φ's incoming
// predecessors (parallel to Args). Nil for any other opcode.
func (in *Instr) Blocks() []*Block {
	if in.Ext == nil {
		return nil
	}
	return in.Ext.Blocks
}

// AddDst appends a receiver to a call.
func (in *Instr) AddDst(v *Value) {
	if in.Ext == nil {
		in.Ext = new(Ext)
	}
	in.Ext.Dsts = append(in.Ext.Dsts, v)
}

// Callee returns the name an OpCall calls ("" for any other opcode).
func (in *Instr) Callee() string {
	if in.Op != OpCall {
		return ""
	}
	return in.Sub
}

// Position returns the instruction's source position, in the file of the
// enclosing function; the zero Pos when it has none.
func (in *Instr) Position() minic.Pos {
	if in.Loc == (Loc{}) {
		return minic.Pos{}
	}
	return minic.Pos{File: in.Block.Fn.Pos.File, Line: int(in.Loc.Line), Col: int(in.Loc.Col)}
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	return in.Op == OpBr || in.Op == OpJmp || in.Op == OpRet
}

// Defs returns all values defined by the instruction.
func (in *Instr) Defs() []*Value {
	if in.Op == OpCall {
		var out []*Value
		for _, d := range in.Dsts() {
			if d != nil {
				out = append(out, d)
			}
		}
		return out
	}
	if in.Dst != nil {
		return []*Value{in.Dst}
	}
	return nil
}

// Block is a basic block. The last instruction is the terminator.
type Block struct {
	ID     int
	Fn     *Func
	Instrs []*Instr
	Preds  []*Block
	Succs  []*Block
}

// Term returns the block's terminator, or nil if the block is still open.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.IsTerminator() {
		return last
	}
	return nil
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// AuxSpec describes one connector: an access path *(root, depth) rooted at a
// formal parameter or a global (§3.1.2, Definition 3.1).
type AuxSpec struct {
	// Root identifies the access-path root: a parameter index >= 0, or
	// -1 with Global set.
	Root   int
	Global string
	// Depth is the dereference level k >= 1.
	Depth int
}

func (a AuxSpec) String() string {
	if a.Root >= 0 {
		return fmt.Sprintf("*(p%d,%d)", a.Root, a.Depth)
	}
	return fmt.Sprintf("*(@%s,%d)", a.Global, a.Depth)
}

// Func is one IR function.
type Func struct {
	// ID indexes program-level side tables (see Layout). The builder that
	// puts the function into its first module assigns it; from then on it
	// is fixed.
	ID     int
	Name   string
	Ret    minic.Type
	Params []*Value
	Blocks []*Block
	Entry  *Block
	// Exit is the unique return block (lowering normalizes functions to
	// a single return).
	Exit *Block
	Unit int // compilation unit index
	Pos  minic.Pos

	// AuxIn / AuxOut describe the connector slots appended to Params and
	// to the return operand list by the transformation, in order.
	AuxIn  []AuxSpec
	AuxOut []AuxSpec

	nextValID   int32
	nextInstrID int32
	nextBlockID int32
	// carved counts the values in values.
	carved int32
	// instrs and values are the chunks instructions and kept values are
	// carved from, in order, and all the function holds to find a record by
	// its ID: instruction i is in chunk i/slabChunk, and value v at position
	// valSlot[v] of the values (-1: no value holds the ID, see ReserveID;
	// -2-k: parameter k, see NewParam). So a side table can name a record by its ID (an int32) instead
	// of pointing at it. See Value and Instr.
	instrs  []*[slabChunk]Instr
	values  []*[slabChunk]Value
	valSlot []int32
	// build is nil when nothing has been created or asked for since the
	// function was made or released.
	build *buildState
	// consts holds the interned constants, sorted by kind, then by value
	// (compareConsts).
	consts []*Value
}

// buildState is what a function holds only while it is built: the
// control-flow facts (see cfg.go), and the chunks blocks, instruction
// extensions and the operand, receiver and target lists of instructions are
// carved out of instead of being allocated one object at a time (a chunk is
// never regrown, so pointers into it stay valid), like instructions and
// values. The chunks belong to the records in them; this is only the
// bookkeeping of where the next record goes, which ReleaseBody drops with
// the body.
type buildState struct {
	blocks    []Block
	exts      []Ext
	valRefs   []*Value
	blockRefs []*Block
	cfg       cfgFacts
}

func (f *Func) alloc() *buildState {
	if f.build == nil {
		f.build = new(buildState)
	}
	return f.build
}

// ReleaseBody drops f's body — blocks, instructions, values, constants and
// build state — and keeps its interface (name, ID, unit, position, return
// type, parameters, aux specs) and its counts: all that callers' rewriting
// and the call graph read of a function once its SEG stands. A parameter is
// an object of its own (NewParam), so it holds on to nothing of the body.
func (f *Func) ReleaseBody() {
	f.Blocks, f.Entry, f.Exit, f.build, f.consts = nil, nil, nil, nil, nil
	f.instrs, f.values, f.valSlot = nil, nil, nil
}

// HasBody reports whether f holds a body: blocks, or the chunks its
// instructions and values are carved from.
func (f *Func) HasBody() bool { return len(f.Blocks) > 0 || f.instrs != nil || f.values != nil }

// Instr returns the instruction with the given ID, or nil when no
// instruction holds it.
func (f *Func) Instr(id int32) *Instr {
	if id < 0 || id >= f.nextInstrID {
		return nil
	}
	if in := &f.instrs[id/slabChunk][id%slabChunk]; in.Block != nil {
		return in
	}
	return nil
}

// Value returns the value with the given ID, or nil when the function keeps
// no value under it (a variable's key, see ReserveID).
func (f *Func) Value(id int32) *Value {
	if id < 0 || int(id) >= len(f.valSlot) {
		return nil
	}
	switch at := f.valSlot[id]; {
	case at >= 0:
		return &f.values[at/slabChunk][at%slabChunk]
	case at < -1: // a parameter
		return f.Params[-2-at]
	}
	return nil
}

// Undef returns the value a use of variable key reads where no definition of
// the variable reaches it. It is kept under key, the ID ReserveID gave the
// variable, and named like the variable with no version.
func (f *Func) Undef(key int32, name string, t minic.Type) *Value {
	p := f.carveValue(key)
	*p = Value{ID: key, Kind: VVar, name: name, Type: t}
	return p
}

// NewFunc returns an empty function shell.
func NewFunc(name string, ret minic.Type, unit int, pos minic.Pos) *Func {
	return &Func{Name: name, Ret: ret, Unit: unit, Pos: pos}
}

// Loc returns the function's own position as instructions carry one (the
// prologue and epilogue the connector transformation adds sit there).
// Lowering and the store's decoder have both refused a Pos that does not fit.
func (f *Func) Loc() Loc {
	l, _ := LocOf(f.Pos)
	return l
}

// NewBlock appends a fresh empty block to the function.
func (f *Func) NewBlock() *Block {
	b := carve(&f.alloc().blocks, blockChunk)
	b.ID, b.Fn = int(f.nextBlockID), f
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// The chunk sizes: how many records, or list slots, are allocated at a time.
// The unused tail of a function's last chunk is waste that lives as long as
// the function, and most functions have a dozen or two instructions in a
// handful of blocks, so the chunks stay small.
const (
	slabChunk  = 4
	blockChunk = 2
	extChunk   = 2
	refChunk   = 8
)

// carve returns the next free (zero) slot of the slab, starting a new chunk
// when the current one is full.
func carve[T any](slab *[]T, chunk int) *T {
	n := len(*slab)
	if n == cap(*slab) {
		*slab, n = make([]T, 0, chunk), 0
	}
	*slab = (*slab)[:n+1]
	return &(*slab)[n]
}

// carveSlots returns n free (zero) slots of the slab as a list with no
// capacity to spare: appending to it reallocates, it never runs into the next
// list. A list longer than half a chunk that does not fit the current one
// gets an array of its own.
func carveSlots[T any](slab *[]T, n int) []T {
	if cap(*slab)-len(*slab) < n {
		if n > refChunk/2 {
			return make([]T, n)
		}
		*slab = make([]T, 0, refChunk)
	}
	at := len(*slab)
	*slab = (*slab)[:at+n]
	return (*slab)[at : at+n : at+n]
}

// carveList copies list into the slab.
func carveList[T any](slab *[]T, list []T) []T {
	if len(list) == 0 {
		return nil
	}
	out := carveSlots(slab, len(list))
	copy(out, list)
	return out
}

// carveValue hands out the next value slot and enters it under id.
func (f *Func) carveValue(id int32) *Value {
	at := f.carved
	if at%slabChunk == 0 {
		f.values = append(f.values, new([slabChunk]Value))
	}
	f.carved++
	f.valSlot[id] = at
	return &f.values[at/slabChunk][at%slabChunk]
}

// newValue hands out the next value slot with a fresh ID.
func (f *Func) newValue(v Value) *Value {
	f.valSlot = append(f.valSlot, -1)
	p := f.carveValue(f.nextValID)
	*p = v
	p.ID = f.nextValID
	f.nextValID++
	return p
}

// newInstr hands out the next instruction slot with a fresh ID. The lists of
// in are copied into the function's chunks; in's own arrays are not kept.
func (f *Func) newInstr(in *Instr, b *Block) *Instr {
	a := f.alloc()
	if f.nextInstrID%slabChunk == 0 {
		f.instrs = append(f.instrs, new([slabChunk]Instr))
	}
	p := &f.instrs[f.nextInstrID/slabChunk][f.nextInstrID%slabChunk]
	p.Dst, p.Sub, p.Loc, p.Op, p.Synthetic = in.Dst, in.Sub, in.Loc, in.Op, in.Synthetic
	p.Args = carveList(&a.valRefs, in.Args)
	if in.Ext != nil {
		p.Ext = carve(&a.exts, extChunk)
		p.Ext.Dsts = carveList(&a.valRefs, in.Ext.Dsts)
		p.Ext.Blocks = carveList(&a.blockRefs, in.Ext.Blocks)
	}
	p.ID, p.Block = f.nextInstrID, b
	f.nextInstrID++
	return p
}

// ReserveID takes the next value ID for a source variable or temporary
// without creating a value under it: the ID is the variable's key while its
// definitions are created (NewSSA), and stays a hole in the function's ID
// space unless a use with no reaching definition fills it (Undef).
func (f *Func) ReserveID() int32 {
	f.valSlot = append(f.valSlot, -1)
	f.nextValID++
	return f.nextValID - 1
}

// NewSSA creates a definition of the variable key (see ReserveID), named like
// it. The value has no ID of its own until NumberSSA gives it one; until then
// its ID is key.
func (f *Func) NewSSA(key int32, name string, t minic.Type) *Value {
	at := f.carved
	if at%slabChunk == 0 {
		f.values = append(f.values, new([slabChunk]Value))
	}
	f.carved++
	p := &f.values[at/slabChunk][at%slabChunk]
	*p = Value{ID: key, Kind: VVar, name: name, Type: t, num: int64(at)}
	return p
}

// NumberSSA gives a value NewSSA created the next value ID, as version
// version (>= 1) of its variable.
func (f *Func) NumberSSA(v *Value, version int) {
	f.valSlot = append(f.valSlot, int32(v.num))
	v.ID, v.num = f.nextValID, int64(version)
	f.nextValID++
}

// ReserveInstrID takes the next instruction ID without creating an
// instruction under it.
func (f *Func) ReserveInstrID() {
	if f.nextInstrID%slabChunk == 0 {
		f.instrs = append(f.instrs, new([slabChunk]Instr))
	}
	f.nextInstrID++
}

// NewDef creates a variable that is assigned once and lives as long as the
// function — what code inserted after lowering defines (the connector
// transformation's glue).
func (f *Func) NewDef(name string, t minic.Type) *Value {
	return f.newValue(Value{Kind: VVar, name: name, Type: t})
}

// NewParam creates and appends a formal parameter. Unlike other values it
// is not carved from the function's chunks, so that ReleaseBody can keep it.
func (f *Func) NewParam(name string, t minic.Type, aux bool) *Value {
	v := &Value{ID: f.nextValID, Kind: VParam, name: name, Type: t, num: int64(len(f.Params)), Aux: aux}
	f.valSlot = append(f.valSlot, int32(-2-len(f.Params)))
	f.nextValID++
	f.Params = append(f.Params, v)
	return v
}

// ConstInt returns the interned integer constant.
func (f *Func) ConstInt(v int64) *Value {
	return f.interned(Value{Kind: VConstInt, num: v, Type: minic.IntType})
}

// ConstBool returns the interned boolean constant.
func (f *Func) ConstBool(v bool) *Value {
	return f.interned(Value{Kind: VConstBool, BoolVal: v, Type: minic.BoolType})
}

// ConstNull returns the interned null constant.
func (f *Func) ConstNull() *Value {
	return f.interned(Value{Kind: VConstNull, Type: minic.IntType.Pointer()})
}

// interned returns the interned constant equal to c, creating it on first
// request.
func (f *Func) interned(c Value) *Value {
	at, ok := f.findConst(&c)
	if !ok {
		f.consts = slices.Insert(f.consts, at, f.newValue(c))
	}
	return f.consts[at]
}

// findConst finds the constant c among the interned ones: its position, or
// where it belongs.
func (f *Func) findConst(c *Value) (int, bool) {
	return slices.BinarySearchFunc(f.consts, c, compareConsts)
}

// compareConsts orders constants by kind, then by value.
func compareConsts(a, b *Value) int {
	bit := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.num, b.num), cmp.Compare(bit(a.BoolVal), bit(b.BoolVal)))
}

// NumValues returns the number of values created so far.
func (f *Func) NumValues() int { return int(f.nextValID) }

// NumInstrs returns the number of instructions created so far.
func (f *Func) NumInstrs() int { return int(f.nextInstrID) }

// NumBlocks returns the number of blocks created so far. Like NumValues and
// NumInstrs it bounds the IDs in use, so it sizes ID-indexed side tables;
// pruned blocks leave holes, Blocks may be shorter.
func (f *Func) NumBlocks() int { return int(f.nextBlockID) }

// Append creates an instruction and appends it to block b.
func (f *Func) Append(b *Block, in Instr) *Instr {
	p := f.newInstr(&in, b)
	b.Instrs = append(b.Instrs, p)
	return p
}

// InsertAt creates an instruction and inserts it at index i within block b.
func (f *Func) InsertAt(b *Block, i int, in Instr) *Instr {
	p := f.newInstr(&in, b)
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = p
	return p
}

// Connect records a CFG edge from a to b. The function's control-flow facts
// do not follow it: SealCFG recomputes them.
func Connect(a, b *Block) {
	a.Succs = append(a.Succs, b)
	b.Preds = append(b.Preds, a)
}

// SealCFG finishes a CFG that has its final shape (lowering calls it last):
// it computes the control-flow facts, drops the blocks the entry does not
// reach and the edges from them, and moves every block's predecessor and
// successor list into one array sized for the function. It returns Order's
// error. The lists keep no spare capacity, so a later Connect still works: it
// reallocates the one list it extends.
func (f *Func) SealCFG() error {
	c := &f.alloc().cfg
	c.analyze(f)
	kept, n := f.Blocks[:0], 0
	for _, b := range f.Blocks {
		if c.rank[b.ID] >= 0 {
			kept = append(kept, b)
			b.Preds = slices.DeleteFunc(b.Preds, func(p *Block) bool { return c.rank[p.ID] < 0 })
			n += len(b.Preds) + len(b.Succs)
		}
	}
	clear(f.Blocks[len(kept):]) // let the dropped blocks go
	f.Blocks = kept
	refs := make([]*Block, 0, n)
	seal := func(list []*Block) []*Block {
		at := len(refs)
		refs = append(refs, list...)
		return refs[at:len(refs):len(refs)]
	}
	for _, b := range f.Blocks {
		b.Preds, b.Succs = seal(b.Preds), seal(b.Succs)
	}
	return c.err
}

// Module is a whole program.
type Module struct {
	// Funcs lists the functions in declaration order.
	Funcs []*Func
	// Layout says where in Funcs each defined name lives.
	Layout       *Layout
	Globals      []*Global
	GlobalByName map[string]*Global
	// Units is the number of compilation units in the source program.
	Units int
}

// Layout is the part of a module that depends only on which functions the
// program defines and in what order: the ID of every defined name, and the
// position in Module.Funcs of the function holding each ID. IDs are dense
// enough to index side tables by (NumIDs bounds them) and, once a function
// is part of a module, never change: a builder that assembles a series of
// modules (the incremental session) keeps a name's ID from one module to the
// next, so tables indexed by ID are carried by overwriting the slots of the
// functions that were replaced. A Layout is immutable once the module that
// owns it is complete, and modules that define the same names in the same
// order share one — sharing a Layout is how two modules are known to
// resolve every callee name alike.
type Layout struct {
	ids map[string]int32
	pos []int32 // by ID; -1 for an ID no function holds
}

// NewLayout lays out the functions named names, in declaration order, with
// ids[i] the ID of names[i]; IDs must be distinct and non-negative. If two
// of the names are equal it returns nil and their indexes.
func NewLayout(names []string, ids []int32) (l *Layout, dupA, dupB int) {
	n := 0
	for _, id := range ids {
		n = max(n, int(id)+1)
	}
	l = &Layout{ids: make(map[string]int32, len(names)), pos: make([]int32, n)}
	for i := range l.pos {
		l.pos[i] = -1
	}
	for i, name := range names {
		if id, dup := l.ids[name]; dup {
			return nil, int(l.pos[id]), i
		}
		l.ids[name] = ids[i]
		l.pos[ids[i]] = int32(i)
	}
	return l, 0, 0
}

// ID returns the ID of the function named name, or -1 when the program does
// not define it.
func (l *Layout) ID(name string) int {
	if id, ok := l.ids[name]; ok {
		return int(id)
	}
	return -1
}

// Pos returns the position in Module.Funcs of the function holding id.
func (l *Layout) Pos(id int) int { return int(l.pos[id]) }

// NumIDs bounds the IDs in use; it sizes ID-indexed side tables.
func (l *Layout) NumIDs() int { return len(l.pos) }

// Global is a program-level variable.
type Global struct {
	Name string
	Type minic.Type
}

// NewModule returns an empty module.
func NewModule() *Module {
	return &Module{
		Layout:       &Layout{ids: make(map[string]int32)},
		GlobalByName: make(map[string]*Global),
	}
}

// AddFunc appends a function to the module under the next unused ID. It
// extends the module's Layout, so it is for a module under construction
// that owns its Layout.
func (m *Module) AddFunc(f *Func) {
	f.ID = len(m.Layout.pos)
	m.Layout.ids[f.Name] = int32(f.ID)
	m.Layout.pos = append(m.Layout.pos, int32(len(m.Funcs)))
	m.Funcs = append(m.Funcs, f)
}

// Lookup returns the function named name, or nil when the program does not
// define it (an external).
func (m *Module) Lookup(name string) *Func {
	if id, ok := m.Layout.ids[name]; ok {
		return m.Funcs[m.Layout.pos[id]]
	}
	return nil
}

// Holds reports whether f is the module's function for its ID — as opposed
// to a function of an earlier module of the series that has been replaced
// or removed since.
func (m *Module) Holds(f *Func) bool {
	pos := m.Layout.pos
	return f.ID < len(pos) && pos[f.ID] >= 0 && m.Funcs[pos[f.ID]] == f
}

// AddGlobal registers a global variable.
func (m *Module) AddGlobal(g *Global) {
	m.Globals = append(m.Globals, g)
	m.GlobalByName[g.Name] = g
}

// LineCount returns the total instruction count of the module, the size
// metric used when the harness reports analyzed "lines".
func (m *Module) LineCount() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}
