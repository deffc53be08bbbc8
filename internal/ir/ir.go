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
	"fmt"
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
	// VVar is a variable (pre-SSA: a named slot assigned possibly many
	// times; post-SSA: a single-assignment version).
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
type Value struct {
	ID   int
	Kind ValueKind
	Name string
	Type minic.Type
	// Def is the defining instruction of an SSA variable (nil for
	// parameters and constants).
	Def *Instr
	// IntVal / BoolVal hold constant payloads.
	IntVal  int64
	BoolVal bool
	// ParamIdx is the 0-based position of a VParam, including aux formal
	// parameters appended by the connector transformation.
	ParamIdx int
	// Aux marks connector values introduced by the transformation: aux
	// formal parameters (VParam) and aux return values.
	Aux bool
}

// IsConst reports whether v is a constant of any kind.
func (v *Value) IsConst() bool {
	return v.Kind == VConstInt || v.Kind == VConstBool || v.Kind == VConstNull
}

func (v *Value) String() string {
	switch v.Kind {
	case VConstInt:
		return strconv.FormatInt(v.IntVal, 10)
	case VConstBool:
		if v.BoolVal {
			return "true"
		}
		return "false"
	case VConstNull:
		return "null"
	default:
		return v.Name
	}
}

// Instr is one IR instruction. Instructions are identified by pointer; ID is
// unique within the enclosing function and serves as the statement label s in
// the paper's v@s vertices.
type Instr struct {
	ID     int
	Op     Op
	Dst    *Value
	Dsts   []*Value // call receivers; Dsts[0] may be nil for void calls
	Args   []*Value
	Sub    string   // operator for OpBin/OpUn, var name for OpAlloc/OpGlobalAddr
	Callee string   // for OpCall
	Blocks []*Block // successors (OpBr/OpJmp) or phi predecessors (OpPhi)
	Pos    minic.Pos
	Block  *Block
	// Synthetic marks connector glue inserted by the transformation
	// (entry stores, exit loads, call-site load/store chains). Checkers
	// skip synthetic dereferences: they model a callee's accesses, which
	// are reported at their real site inside the callee.
	Synthetic bool
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	return in.Op == OpBr || in.Op == OpJmp || in.Op == OpRet
}

// Defs returns all values defined by the instruction.
func (in *Instr) Defs() []*Value {
	if in.Op == OpCall {
		var out []*Value
		for _, d := range in.Dsts {
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

	nextValID   int
	nextInstrID int
	nextBlockID int
	// instrSlab and valueSlab are the current allocation chunks:
	// instructions, and the values that live as long as their function
	// (parameters, constants, SSA versions), are carved out of chunks
	// instead of being allocated one object at a time (a chunk is never
	// regrown, so pointers into it stay valid).
	instrSlab  []Instr
	valueSlab  []Value
	intConsts  map[int64]*Value
	boolConsts [2]*Value
	nullConst  *Value
}

// NewFunc returns an empty function shell.
func NewFunc(name string, ret minic.Type, unit int, pos minic.Pos) *Func {
	return &Func{
		Name: name, Ret: ret, Unit: unit, Pos: pos,
		intConsts: make(map[int64]*Value),
	}
}

// NewBlock appends a fresh empty block to the function.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlockID, Fn: f}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// slabChunk is the number of values or instructions allocated at a time.
// The unused tail of a function's last chunk is waste that lives as long as
// the function, and most functions have a dozen or two instructions, so the
// chunk stays small.
const slabChunk = 8

// carve returns the next free (zero) slot of the slab, starting a new chunk
// when the current one is full.
func carve[T any](slab *[]T) *T {
	n := len(*slab)
	if n == cap(*slab) {
		*slab, n = make([]T, 0, slabChunk), 0
	}
	*slab = (*slab)[:n+1]
	return &(*slab)[n]
}

// newValue hands out the next value slot with a fresh ID.
func (f *Func) newValue(v Value) *Value {
	p := carve(&f.valueSlab)
	*p = v
	p.ID = f.nextValID
	f.nextValID++
	return p
}

// newInstr hands out the next instruction slot with a fresh ID.
func (f *Func) newInstr(in *Instr, b *Block) *Instr {
	p := carve(&f.instrSlab)
	*p = *in
	p.ID, p.Block = f.nextInstrID, b
	f.nextInstrID++
	return p
}

// NewVar creates a fresh variable value. It is allocated on its own, not
// from the slab: SSA renaming replaces every lowered variable by its
// versions, after which the variable itself is garbage.
func (f *Func) NewVar(name string, t minic.Type) *Value {
	v := &Value{ID: f.nextValID, Kind: VVar, Name: name, Type: t}
	f.nextValID++
	return v
}

// NewVersion creates SSA version n of the pre-SSA variable v, named
// "<v>.<n>".
func (f *Func) NewVersion(v *Value, n int) *Value {
	return f.newValue(Value{Kind: VVar, Name: v.Name + "." + strconv.Itoa(n), Type: v.Type})
}

// NewParam creates and appends a formal parameter.
func (f *Func) NewParam(name string, t minic.Type, aux bool) *Value {
	v := f.newValue(Value{
		Kind: VParam, Name: name, Type: t,
		ParamIdx: len(f.Params), Aux: aux,
	})
	f.Params = append(f.Params, v)
	return v
}

// ConstInt returns the interned integer constant.
func (f *Func) ConstInt(v int64) *Value {
	if c, ok := f.intConsts[v]; ok {
		return c
	}
	c := f.newValue(Value{Kind: VConstInt, IntVal: v, Type: minic.IntType})
	f.intConsts[v] = c
	return c
}

// ConstBool returns the interned boolean constant.
func (f *Func) ConstBool(v bool) *Value {
	i := 0
	if v {
		i = 1
	}
	if f.boolConsts[i] == nil {
		f.boolConsts[i] = f.newValue(Value{Kind: VConstBool, BoolVal: v, Type: minic.BoolType})
	}
	return f.boolConsts[i]
}

// ConstNull returns the interned null constant.
func (f *Func) ConstNull() *Value {
	if f.nullConst == nil {
		f.nullConst = f.newValue(Value{Kind: VConstNull, Type: minic.IntType.Pointer()})
	}
	return f.nullConst
}

// NumValues returns the number of values created so far.
func (f *Func) NumValues() int { return f.nextValID }

// NumInstrs returns the number of instructions created so far.
func (f *Func) NumInstrs() int { return f.nextInstrID }

// NumBlocks returns the number of blocks created so far. Like NumValues and
// NumInstrs it bounds the IDs in use, so it sizes ID-indexed side tables;
// pruned blocks leave holes, Blocks may be shorter.
func (f *Func) NumBlocks() int { return f.nextBlockID }

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

// Connect records a CFG edge from a to b.
func Connect(a, b *Block) {
	a.Succs = append(a.Succs, b)
	b.Preds = append(b.Preds, a)
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
