// Package ir defines the intermediate representation the analysis runs on.
//
// The IR matches the abstract language of Pinpoint §3: common assignments,
// φ-assignments, binary/unary operations, loads and stores through pointers,
// branches, calls, and returns. Programs are lowered from MiniC ASTs by
// package lower, put into SSA form there and gated by package ssa, and then
// transformed by package transform to expose side effects through Aux formal
// parameters and Aux return values (the "connector model", Figure 3 of the
// paper).
//
// A function's body is one set of tables (Body): instruction, value and block
// records indexed by their IDs, which hold no Go pointer, and int32 lists for
// what they refer to — operands, call receivers, the instructions of each
// block, each block's predecessors and successors. Every pass reads and
// rewrites these tables, and the SEG adopts them once the function is final
// (see package seg), so the body the checkers read is the one lowering wrote.
//
// Functions may have multiple return operands and calls multiple receivers;
// pre-transformation code uses only the first slot, the connector
// transformation appends the aux slots.
package ir

import (
	"fmt"
	"slices"
	"strconv"
	"unsafe"

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
	// OpPhi: Dst = φ(Args...); operand i arrives from the block's
	// predecessor i.
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
	// return value (-1 for void); Dsts[1:] receive aux return values after
	// the connector transformation.
	OpCall
	// OpBr: if Args[0] goto the block's first successor, else its second.
	// Terminator.
	OpBr
	// OpJmp: goto the block's successor. Terminator.
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

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpJmp || o == OpRet }

// arity is what each opcode's instructions have: the operand count (-1: any)
// and whether the instruction defines Dst.
var arity = [...]struct {
	Args int
	Dst  bool
}{
	OpCopy: {1, true}, OpBin: {2, true}, OpUn: {1, true}, OpPhi: {-1, true},
	OpLoad: {1, true}, OpStore: {2, false}, OpAlloc: {0, true}, OpMalloc: {0, true},
	OpFree: {1, false}, OpCall: {-1, false}, OpBr: {1, false}, OpJmp: {-1, false},
	OpRet: {-1, false}, OpGlobalAddr: {0, true}, OpFieldAddr: {1, true},
}

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

// Loc is a source position within the file of the enclosing function: every
// instruction of a function comes from the function's own file, so the file
// name is kept once, and Body.Position puts the two together. The zero Loc is
// "no position" (φs, test-built instructions).
type Loc struct {
	Line, Col int32
}

// LocOf narrows a position to a Loc; it reports false for a line or column a
// Loc cannot hold.
func LocOf(p minic.Pos) (Loc, bool) {
	l := Loc{Line: int32(p.Line), Col: int32(p.Col)}
	return l, int(l.Line) == p.Line && int(l.Col) == p.Col && p.Line >= 0 && p.Col >= 0
}

// Instr is the record of an instruction, by its ID, the statement label s of
// the paper's v@s vertices. It is the most numerous record of a program, so
// it holds IDs and offsets only (28 bytes, no pointer; see DESIGN.md,
// "Records").
type Instr struct {
	Loc Loc
	// Block is the ID of the instruction's block (-1: no instruction holds
	// the ID), Dst the value it defines (-1: none).
	Block, Dst int32
	// sub is the symbol of the one name an opcode carries (-1: none): the
	// operator of OpBin/OpUn, the variable of OpAlloc/OpGlobalAddr, the field
	// of OpFieldAddr, the callee of OpCall.
	sub int32
	// refs is where the operands start in the refs list. After them come a
	// call's receiver count and receivers (-1: a void slot), a φ's gate
	// condition IDs (Body.SetGate), or a load's slot for the SEG
	// (Body.SetLoadSlot).
	refs  int32
	nArgs uint16
	Op    Op
	flags uint8
}

const (
	flagSynthetic = 1 << iota
	flagEscapes
)

// Synthetic reports connector glue inserted by the transformation (entry
// stores, exit loads, call-site load/store chains). Checkers skip synthetic
// dereferences: they model a callee's accesses, which are reported at their
// real site inside the callee.
func (in *Instr) Synthetic() bool { return in.flags&flagSynthetic != 0 }

// Escapes reports a store that may write memory a caller or a global sees: a
// target the points-to analysis does not know to be a local cell (set when
// the SEG is built, Body.SetEscapes).
func (in *Instr) Escapes() bool { return in.flags&flagEscapes != 0 }

// Value is the record of a value — a variable, a parameter or a constant —
// by its ID (16 bytes, no pointer).
type Value struct {
	// Def is the ID of the defining instruction (-1: a parameter, a
	// constant, an undefined value).
	Def int32
	// name is the symbol of the value's name, a version's variable's (-1: no
	// value holds the ID).
	name int32
	// num is the position of a VParam, the SSA version of a VVar (0: the
	// variable is not a version), the payload of a VConstInt — or, if wide,
	// where it is in the wide list.
	num  int32
	Kind ValueKind
	bits uint8
	// typ indexes the function's types (an adopted body has none).
	typ uint16
}

const (
	valBoolVal = 1 << iota
	valWide
	valBool
	valAux
	// wireBits are the bits the segment codec keeps.
	wireBits = valBoolVal | valWide | valBool
)

// BoolVal is the payload of a VConstBool.
func (v *Value) BoolVal() bool { return v.bits&valBoolVal != 0 }

// Bool reports a value of the scalar bool type.
func (v *Value) Bool() bool { return v.bits&valBool != 0 }

// Aux marks connector values introduced by the transformation: aux formal
// parameters and aux return values (a draft's mark: Func.Adopt clears it).
func (v *Value) Aux() bool { return v.bits&valAux != 0 }

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

// Block is the record of a basic block, by its ID: where its instructions
// are in the order list, and its predecessors, then successors, in the edges
// list. The last instruction is the terminator; a branch's targets are its
// block's successors (true first), and a φ's operands arrive from its
// block's predecessors, in order.
type Block struct {
	at, n          int32
	edges          int32
	nPreds, nSuccs int32
}

// Body is a function's body: its records by ID and the lists they index.
// Lowering writes it, the later passes rewrite it in place, and the SEG
// adopts it once it is final (Func.Adopt); a decoded SEG brings back the
// same tables, which is all detection reads. A body is a draft until it is
// adopted: what only a draft holds — the blocks, their layout and edges, the
// values' types, the control-flow facts, the lists while they grow — is
// behind one pointer, which an adopted body does not have.
type Body struct {
	instrs []Instr
	values []Value
	// ints holds the lists of an adopted body, after their offsets: list k is
	// ints[ints[k]:ints[k+1]] (List). The body's own NumLists come first, the
	// lists of the graph that adopted it after them.
	ints []int32
	// syms holds the symbols end to end, and list lSymAt where each starts
	// (and the end): symbol 0 is the function's name, 1 its file.
	syms string
	// retArgs is the number of return operands, the aux ones included.
	retArgs int32
	*draft
}

// The body's lists. lRefs holds the instructions' operand lists (see
// Instr.refs), lWide the constants too wide for Value.num as (low, high)
// halves, lOrder the instruction IDs block by block, lParams the parameters'
// value IDs, lSymAt the symbol offsets. Once the body is packed (Pack) they
// are laid out in ID order, as the segment codec writes them.
const (
	lRefs = iota
	lWide
	lOrder
	lParams
	lSymAt
	// NumLists is the number of the body's lists; those of a graph that
	// adopts the body are numbered from it.
	NumLists
)

// draft is what a body holds until it is adopted.
type draft struct {
	// Entry and Exit are the IDs of the entry block and of the unique return
	// block (lowering normalizes functions to a single return).
	Entry, Exit int32
	// lists are the body's lists while it is a draft (see lRefs).
	lists [NumLists][]int32
	// blocks are the block records, layout the block IDs in layout order,
	// edges the blocks' predecessor and successor lists.
	blocks        []Block
	layout, edges []int32
	types         []minic.Type
	cfg           *cfgFacts
	// build is what only an open body holds (see build.go); nil once packed.
	build *buildState
}

// list returns list k.
func (b *Body) list(k int) []int32 {
	if b.draft != nil {
		return b.lists[k]
	}
	return b.List(k)
}

// List returns list k of an adopted body's array: one of the body's own
// (below NumLists) or of the graph that adopted it.
func (b *Body) List(k int) []int32 {
	at, end := b.ints[k], b.ints[k+1]
	return b.ints[at:end:end]
}

// Footprint returns the bytes an adopted body's tables occupy, each array
// by its capacity and through size, which gives what an allocation of n
// bytes occupies: the instruction and value records, the array of lists (its
// graph's included) and the symbols.
func (b *Body) Footprint(size func(n int) int) (instrs, values, lists, syms int) {
	return size(cap(b.instrs) * int(unsafe.Sizeof(Instr{}))), size(cap(b.values) * int(unsafe.Sizeof(Value{}))),
		size(cap(b.ints) * 4), size(len(b.syms))
}

// open reports whether b is being rewritten.
func (b *Body) open() bool { return b.draft != nil && b.build != nil }

// In returns the record of instruction in.
func (b *Body) In(in int32) *Instr { return &b.instrs[in] }

// Value returns the record of value v.
func (b *Body) Value(v int32) *Value { return &b.values[v] }

// NumInstrs bounds the instruction IDs.
func (b *Body) NumInstrs() int { return len(b.instrs) }

// NumValues bounds the value IDs.
func (b *Body) NumValues() int {
	if b.open() && b.build.numbering {
		return int(b.build.nextVal)
	}
	return len(b.values)
}

// NumBlocks bounds the block IDs of a draft (0 once adopted). Pruned blocks
// leave holes: Blocks may be shorter.
func (b *Body) NumBlocks() int {
	if b.draft == nil {
		return 0
	}
	return len(b.blocks)
}

// Blocks returns the block IDs in layout order (the blocks the entry
// reaches, once the CFG is sealed).
func (b *Body) Blocks() []int32 { return slices.Clip(b.layout) }

// Instrs returns the instruction IDs of block blk, in order.
func (b *Body) Instrs(blk int32) []int32 {
	r := &b.blocks[blk]
	return b.lists[lOrder][r.at : r.at+r.n : r.at+r.n]
}

// Preds returns the predecessors of block blk.
func (b *Body) Preds(blk int32) []int32 {
	r := &b.blocks[blk]
	return b.edges[r.edges : r.edges+r.nPreds : r.edges+r.nPreds]
}

// Succs returns the successors of block blk: a branch's true target first.
func (b *Body) Succs(blk int32) []int32 {
	r := &b.blocks[blk]
	at := r.edges + r.nPreds
	return b.edges[at : at+r.nSuccs : at+r.nSuccs]
}

// Term returns the terminator of block blk (-1 while the block is open).
func (b *Body) Term(blk int32) int32 {
	if ins := b.Instrs(blk); len(ins) > 0 && b.instrs[ins[len(ins)-1]].Op.IsTerminator() {
		return ins[len(ins)-1]
	}
	return -1
}

// Order returns the instruction IDs in block and instruction order.
func (b *Body) Order() []int32 { return slices.Clip(b.list(lOrder)) }

// Params returns the parameters' value IDs, the aux ones included.
func (b *Body) Params() []int32 { return slices.Clip(b.list(lParams)) }

// RetArgs returns the number of return operands, the aux ones included.
func (b *Body) RetArgs() int {
	if b.open() && b.Exit >= 0 && b.Term(b.Exit) >= 0 {
		return len(b.Args(b.Term(b.Exit)))
	}
	return int(b.retArgs)
}

// Args returns the operand value IDs of instruction in.
func (b *Body) Args(in int32) []int32 {
	r := &b.instrs[in]
	end := r.refs + int32(r.nArgs)
	return b.list(lRefs)[r.refs:end:end]
}

// more returns where the entries after instruction in's operands start.
func (b *Body) more(in int32) int32 { return b.instrs[in].refs + int32(b.instrs[in].nArgs) }

// Dsts returns the receivers of a call (-1: a void slot), nil for any other
// instruction.
func (b *Body) Dsts(in int32) []int32 {
	if b.instrs[in].Op != OpCall {
		return nil
	}
	refs, at := b.list(lRefs), b.more(in)
	return slices.Clip(refs[at+1 : at+1+refs[at]])
}

// GateID returns the condition ID of the gate of operand i of φ instruction
// in (0, the condition true, until package ssa sets it).
func (b *Body) GateID(in int32, i int) int32 { return b.list(lRefs)[b.more(in)+int32(i)] }

// SetGate sets the gate of operand i of φ instruction in to condition c.
func (b *Body) SetGate(in int32, i int, c int32) { b.list(lRefs)[b.more(in)+int32(i)] = c }

// LoadSlot returns what the SEG keeps for load instruction in.
func (b *Body) LoadSlot(in int32) int32 { return b.list(lRefs)[b.more(in)] }

// SetLoadSlot sets what the SEG keeps for load instruction in: where its
// sources are in the SEG's own lists.
func (b *Body) SetLoadSlot(in, at int32) { b.list(lRefs)[b.more(in)] = at }

// SetEscapes marks store instruction in as one that may escape (see
// Instr.Escapes).
func (b *Body) SetEscapes(in int32) { b.instrs[in].flags |= flagEscapes }

// Sub returns the one name instruction in carries (see Instr.sub).
func (b *Body) Sub(in int32) string {
	if s := b.instrs[in].sub; s >= 0 {
		return b.sym(s)
	}
	return ""
}

// Callee returns the name a call calls ("" for any other instruction).
func (b *Body) Callee(in int32) string {
	if b.instrs[in].Op != OpCall {
		return ""
	}
	return b.Sub(in)
}

// Name returns the name of the body's function.
func (b *Body) Name() string { return b.sym(0) }

// File returns the file the body's function is in.
func (b *Body) File() string { return b.sym(1) }

// sym returns symbol k.
func (b *Body) sym(k int32) string {
	if b.open() {
		return b.build.strs[k]
	}
	at := b.list(lSymAt)
	return b.syms[at[k]:at[k+1]]
}

// Position returns the source position of instruction in (the zero Pos when
// it has none).
func (b *Body) Position(in int32) minic.Pos {
	if l := b.instrs[in].Loc; l != (Loc{}) {
		return minic.Pos{File: b.File(), Line: int(l.Line), Col: int(l.Col)}
	}
	return minic.Pos{}
}

// Type returns the type of value v.
func (b *Body) Type(v int32) minic.Type { return b.types[b.values[v].typ] }

// IntVal returns the payload of a VConstInt (0 for any other value).
func (b *Body) IntVal(v int32) int64 {
	switch r := &b.values[v]; {
	case r.Kind != VConstInt:
		return 0
	case r.bits&valWide != 0:
		wide := b.list(lWide)
		return int64(uint32(wide[r.num])) | int64(wide[r.num+1])<<32
	default:
		return int64(r.num)
	}
}

// ValueName returns the value's name: the source or compiler-given name of a
// variable or parameter, "<variable>.<n>" for SSA version n, "" for a
// constant.
func (b *Body) ValueName(v int32) string {
	switch r := &b.values[v]; {
	case r.name < 0:
		return ""
	case r.Kind == VVar && r.num != 0:
		return b.sym(r.name) + "." + strconv.Itoa(int(r.num))
	default:
		return b.sym(r.name)
	}
}

// ValueString renders value v: a constant's payload, else its name.
func (b *Body) ValueString(v int32) string {
	switch r := &b.values[v]; r.Kind {
	case VConstInt:
		return strconv.FormatInt(b.IntVal(v), 10)
	case VConstBool:
		return strconv.FormatBool(r.BoolVal())
	case VConstNull:
		return "null"
	}
	return b.ValueName(v)
}

// BlockName renders block blk.
func BlockName(blk int32) string { return "b" + strconv.Itoa(int(blk)) }

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

// Param is a formal parameter as a function's interface keeps it (32 bytes:
// the type first, so the ID and the flag share its last word).
type Param struct {
	Type minic.Type
	ID   int32 // its value ID
	Aux  bool
}

// Func is one IR function: its interface, and its body while it has one.
type Func struct {
	// Body is the function's body; nil once released (ReleaseBody) and for
	// a shell decoded from a store.
	*Body
	// ID indexes program-level side tables (see Layout). The builder that
	// puts the function into its first module assigns it; from then on it
	// is fixed.
	ID     int
	Name   string
	Ret    minic.Type
	Params []Param
	Pos    minic.Pos

	// AuxIn / AuxOut describe the connector slots appended to Params and
	// to the return operand list by the transformation, in order.
	AuxIn  []AuxSpec
	AuxOut []AuxSpec

	// Unit is the compilation unit's index; it is 32 bits wide so that it
	// shares a word with the sizes of the ID spaces (once the body is
	// gone) and the shell fits 176 bytes.
	Unit                      int32
	nValues, nInstrs, nBlocks int32
}

// NewFunc returns a function with an empty body.
func NewFunc(name string, ret minic.Type, unit int, pos minic.Pos) *Func {
	f := &Func{Name: name, Ret: ret, Unit: int32(unit), Pos: pos, Body: &Body{draft: &draft{Entry: -1, Exit: -1}}}
	bs := f.reopen()
	bs.numbering = true
	f.values, f.instrs = bs.vals, bs.instrs
	bs.addSym(name)
	bs.addSym(pos.File)
	return f
}

// Adopt returns f's final body for a reader that keeps it once the function
// is built (the SEG): its records and symbols, and its lists in one array
// with extra, the reader's own lists, after them (List). What only a draft
// holds stays behind, and the value records lose what only a draft reads of
// them (their type index, their aux mark), so the body is what the segment
// codec brings back of it. f must be packed (Pack).
func (f *Func) Adopt(extra ...[]int32) Body {
	for v := range f.values {
		f.values[v].typ, f.values[v].bits = 0, f.values[v].bits&wireBits
	}
	n := NumLists + len(extra)
	total := n + 1
	for _, l := range f.lists {
		total += len(l)
	}
	for _, l := range extra {
		total += len(l)
	}
	ints := make([]int32, n+1, total)
	add := func(k int, l []int32) {
		ints[k] = int32(len(ints))
		ints = append(ints, l...)
	}
	for k, l := range f.lists {
		add(k, l)
	}
	for k, l := range extra {
		add(NumLists+k, l)
	}
	ints[n] = int32(len(ints))
	return Body{instrs: f.instrs, values: f.values, ints: ints, syms: f.syms, retArgs: f.retArgs}
}

// ReleaseBody drops f's body and keeps its interface (name, ID, unit,
// position, return type, parameters, aux specs) and the sizes of its ID
// spaces: all that callers' rewriting and the call graph read of a function
// once its SEG stands.
func (f *Func) ReleaseBody() {
	if f.Body == nil {
		return
	}
	f.nValues, f.nInstrs, f.nBlocks = int32(f.Body.NumValues()), int32(f.Body.NumInstrs()), int32(f.Body.NumBlocks())
	f.Body = nil
}

// NumValues bounds the value IDs; it sizes ID-indexed side tables.
func (f *Func) NumValues() int {
	if f.Body != nil {
		return f.Body.NumValues()
	}
	return int(f.nValues)
}

// NumInstrs bounds the instruction IDs.
func (f *Func) NumInstrs() int {
	if f.Body != nil {
		return f.Body.NumInstrs()
	}
	return int(f.nInstrs)
}

// NumBlocks bounds the block IDs.
func (f *Func) NumBlocks() int {
	if f.Body != nil {
		return f.Body.NumBlocks()
	}
	return int(f.nBlocks)
}

// Loc returns the function's own position as instructions carry one (the
// prologue and epilogue the connector transformation adds sit there).
// Lowering and the store's decoder have both refused a Pos that does not fit.
func (f *Func) Loc() Loc {
	l, _ := LocOf(f.Pos)
	return l
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
