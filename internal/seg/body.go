package seg

import (
	"slices"
	"strconv"
	"sync"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/pta"
	"repro/internal/ssa"
)

// Instr is an instruction as detection reads it, by Instr.ID. Like the
// vertex records it holds no pointer: names are symbol indexes, lists are
// in the graph's int32 array.
type Instr struct {
	Loc ir.Loc
	// Block is the ID of the instruction's block (-1: no instruction holds
	// the ID), Dst the value it defines (-1: none).
	Block, Dst, sub int32
	// refs is where the operands start in part pRefs. After them come a
	// call's receiver count and receivers (-1: a void slot), a φ's gate
	// condition IDs, or where a load's source count and sources start in
	// part pLoads.
	refs  int32
	nArgs uint16
	Op    ir.Op
	flags uint8
}

const (
	flagSynthetic = 1 << iota
	flagEscapes
)

// Synthetic reports connector glue (see ir.Instr.Synthetic).
func (r *Instr) Synthetic() bool { return r.flags&flagSynthetic != 0 }

// Escapes reports a store that may write memory a caller or a global sees:
// a target the points-to analysis does not know to be a local cell.
func (r *Instr) Escapes() bool { return r.flags&flagEscapes != 0 }

// Value is a value as detection reads it, by Value.ID.
type Value struct {
	// Def is the defining instruction (-1: a parameter, a constant, an
	// undefined value).
	Def, name int32
	// num is ParamIdx for a VParam, the SSA version of a VVar, the payload
	// of a VConstInt — or, if wide, where it is in part pWide.
	num           int32
	Kind          ir.ValueKind
	BoolVal, wide bool
	// Bool marks a value of the scalar bool type.
	Bool bool
}

// ParamIdx returns the position of a VParam (0 for any other value).
func (v *Value) ParamIdx() int {
	if v.Kind != ir.VParam {
		return 0
	}
	return int(v.num)
}

// IsConst reports whether v is a constant of any kind.
func (v *Value) IsConst() bool {
	return v.Kind == ir.VConstInt || v.Kind == ir.VConstBool || v.Kind == ir.VConstNull
}

// The parts of a body's int32 array.
const (
	pRefs  = iota
	pLoads // per load: the source count, then (value ID, condition ID) pairs
	pWide  // VConstInt payloads too wide for Value.num, as (low, high) halves
	pOrder // instruction IDs in block and instruction order
	pParams
	// By Block.ID: block b's control dependences are the (branch block ID,
	// condition value ID, 1 if on the true edge) triples of
	// pCDeps[cdAt[b]:cdAt[b+1]].
	pCDAt
	pCDeps
	pSyms      // symbol k is syms[pSyms[k]:pSyms[k+1]]
	pAtoms     // the value IDs registered as condition atoms, ascending
	pInstrIdx  // intra-block instruction positions by Instr.ID
	pSuccStart // the vertices' edge offsets (see Graph.edges)
	// By Block.ID: the condition ID of the conjunction of the block's
	// control dependences (Graph.CD), and the blocks reachable from it
	// through at least one CFG edge, a bit per Block.ID in rows of
	// reachWords words.
	pCDCond
	pReach
	numParts
)

// body is what a Graph holds of its function, so that detection needs
// nothing else: its instructions and values, its interface, its blocks'
// control dependences and successors, and its condition builder.
type body struct {
	conds  *cond.Builder
	instrs []Instr
	values []Value
	// syms holds the symbols end to end: the function's name, its file,
	// then the names the records refer to.
	syms string
	// Part k of ints is ints[at[k]:at[k+1]].
	ints    []int32
	at      [numParts + 1]int32
	retArgs int32 // the number of return operands, the aux ones included
}

func (b *body) part(k int) []int32 { return b.ints[b.at[k]:b.at[k+1]] }

// reader is read's working state, reused from one function to the next:
// the symbols and their index, and the parts, copied out at their exact
// size.
type reader struct {
	strs  []string
	ids   map[string]int32 // of strs, once there are more than a few
	syms  []byte
	parts [numParts][]int32
}

// linearSyms is how many symbols a function has before read indexes them
// in a map: most functions have fewer, and a scan of a few strings costs
// less than hashing each.
const linearSyms = 32

var readerPool = sync.Pool{New: func() any { return &reader{ids: make(map[string]int32)} }}

// read fills the body from f and what the build made of it, and makes room
// for the edge offsets of n vertices.
func (g *Graph) read(f *ir.Func, inf *ssa.Info, pr *pta.Result, n int) {
	rd := readerPool.Get().(*reader)
	defer func() {
		clear(rd.ids)
		rd.strs, rd.syms = rd.strs[:0], rd.syms[:0]
		for k := range rd.parts {
			rd.parts[k] = rd.parts[k][:0]
		}
		readerPool.Put(rd)
	}()
	add := func(k int, vs ...int32) { rd.parts[k] = append(rd.parts[k], vs...) }
	zeros := func(k, n int) []int32 { rd.parts[k] = append(rd.parts[k], make([]int32, n)...); return rd.parts[k] }
	newSym := func(s string) int32 {
		add(pSyms, int32(len(rd.syms)))
		rd.syms = append(rd.syms, s...)
		rd.strs = append(rd.strs, s)
		return int32(len(rd.strs) - 1)
	}
	sym := func(s string) int32 {
		if len(rd.strs) <= linearSyms {
			if i := slices.Index(rd.strs, s); i >= 0 {
				return int32(i)
			}
			id := newSym(s)
			if len(rd.strs) > linearSyms {
				for i, t := range rd.strs {
					rd.ids[t] = int32(i)
				}
			}
			return id
		}
		id, ok := rd.ids[s]
		if !ok {
			id = newSym(s)
			rd.ids[s] = id
		}
		return id
	}
	newSym(f.Name)
	newSym(f.Pos.File)
	g.conds = inf.Conds
	for _, p := range f.Params {
		add(pParams, p.ID)
	}
	if ret := f.Exit.Term(); ret != nil {
		g.retArgs = int32(len(ret.Args))
	}

	g.instrs = make([]Instr, f.NumInstrs())
	for id := range g.instrs {
		in, r := f.Instr(int32(id)), &g.instrs[id]
		if in == nil {
			r.Block, r.Dst = -1, -1
			continue
		}
		*r = Instr{Loc: in.Loc, Block: int32(in.Block.ID), Dst: -1, sub: -1, refs: int32(len(rd.parts[pRefs])), nArgs: uint16(len(in.Args)), Op: in.Op}
		if in.Dst != nil {
			r.Dst = in.Dst.ID
		}
		if in.Synthetic {
			r.flags |= flagSynthetic
		}
		if in.Sub != "" {
			r.sub = sym(in.Sub)
		}
		for _, a := range in.Args {
			add(pRefs, a.ID)
		}
		switch in.Op {
		case ir.OpCall:
			add(pRefs, int32(len(in.Dsts())))
			for _, d := range in.Dsts() {
				if d == nil {
					add(pRefs, -1)
				} else {
					add(pRefs, d.ID)
				}
			}
		case ir.OpPhi:
			gates := inf.GatesOf(in)
			for i := range in.Args {
				c := inf.Conds.True()
				if gates != nil {
					c = gates[i]
				}
				add(pRefs, cond.Ref(c))
			}
		case ir.OpLoad:
			srcs := pr.LoadSources(in)
			add(pRefs, int32(len(rd.parts[pLoads])))
			add(pLoads, int32(len(srcs)))
			for _, gv := range srcs {
				add(pLoads, gv.Val.ID, cond.Ref(gv.Cond))
			}
		case ir.OpStore:
			for _, gl := range pr.StoredAt(in) {
				if gl.Loc.Kind != pta.LAlloc && gl.Loc.Kind != pta.LMalloc {
					r.flags |= flagEscapes
				}
			}
		}
	}

	g.values = make([]Value, f.NumValues())
	for id := range g.values {
		v, r := f.Value(int32(id)), &g.values[id]
		*r = Value{Def: -1, name: -1}
		if v == nil {
			continue
		}
		r.name, r.Kind, r.BoolVal, r.Bool = sym(v.BaseName()), v.Kind, v.BoolVal, v.Type.Base == "bool" && v.Type.Ptr == 0
		if v.Def != nil {
			r.Def = v.Def.ID
		}
		switch v.Kind {
		case ir.VConstInt:
			if r.num = int32(v.IntVal()); int64(r.num) != v.IntVal() {
				r.num, r.wide = int32(len(rd.parts[pWide])), true
				add(pWide, int32(v.IntVal()), int32(v.IntVal()>>32))
			}
		case ir.VParam:
			r.num = int32(v.ParamIdx())
		case ir.VVar:
			r.num = int32(v.Version())
		}
	}
	add(pSyms, int32(len(rd.syms)))
	g.syms = string(rd.syms)

	instrIdx := zeros(pInstrIdx, len(g.instrs))
	zeros(pSuccStart, n+1)
	nb := f.NumBlocks()
	cdAt := zeros(pCDAt, nb+1)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			instrIdx[in.ID] = int32(i)
			add(pOrder, in.ID)
		}
		cdAt[b.ID+1] = 3 * int32(len(inf.CD(b)))
	}
	for id := 0; id < nb; id++ {
		cdAt[id+1] += cdAt[id]
	}
	cdeps := zeros(pCDeps, int(cdAt[nb]))
	cdCond := zeros(pCDCond, nb) // a block no instruction is in keeps true, ID 0
	w := reachWords(int32(nb))
	reach := zeros(pReach, nb*int(w))
	stack := make([]*ir.Block, 0, 16)
	for _, b := range f.Blocks {
		for i, d := range inf.CD(b) {
			at := int(cdAt[b.ID]) + 3*i
			cdeps[at], cdeps[at+1] = int32(d.Branch.ID), d.Cond().ID
			if d.OnTrue {
				cdeps[at+2] = 1
			}
		}
		cdCond[b.ID] = cond.Ref(cdOf(inf, b))
		// The blocks b reaches through at least one CFG edge, by a
		// depth-first walk.
		row := reach[int32(b.ID)*w : int32(b.ID+1)*w]
		stack = append(stack[:0], b)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range x.Succs {
				if i, m := reachBit(int32(s.ID)); row[i]&m == 0 {
					row[i] |= m
					stack = append(stack, s)
				}
			}
		}
	}
	// cdOf registered the atoms of the control dependences.
	rd.parts[pAtoms] = inf.AppendAtoms(rd.parts[pAtoms])

	total := 0
	for _, p := range rd.parts {
		total += len(p)
	}
	g.ints = make([]int32, total)
	for k, p := range rd.parts {
		g.at[k+1] = g.at[k] + int32(copy(g.ints[g.at[k]:], p))
	}
}

// Name returns the name of the graph's function.
func (g *Graph) Name() string { return g.sym(0) }

// File returns the file the graph's function is in.
func (g *Graph) File() string { return g.sym(1) }

func (g *Graph) sym(k int32) string {
	o := g.part(pSyms)
	return g.syms[o[k]:o[k+1]]
}

// Conds returns the builder the graph's conditions belong to.
func (g *Graph) Conds() *cond.Builder { return g.conds }

// In returns the record of instruction in.
func (g *Graph) In(in int32) *Instr { return &g.instrs[in] }

// Value returns the record of value v.
func (g *Graph) Value(v int32) *Value { return &g.values[v] }

// Order returns the instruction IDs in block and instruction order.
func (g *Graph) Order() []int32 { return g.part(pOrder) }

// Params returns the parameters' value IDs, the aux ones included.
func (g *Graph) Params() []int32 { return g.part(pParams) }

// RetArgs returns the number of return operands, the aux ones included.
func (g *Graph) RetArgs() int { return int(g.retArgs) }

// Args returns the operand value IDs of instruction in.
func (g *Graph) Args(in int32) []int32 {
	r := &g.instrs[in]
	return g.ints[r.refs : r.refs+int32(r.nArgs)]
}

// more returns where the entries after instruction in's operands start.
func (g *Graph) more(in int32) int32 { return g.instrs[in].refs + int32(g.instrs[in].nArgs) }

// Dsts returns the receivers of a call (-1: a void slot), nil for any other
// instruction.
func (g *Graph) Dsts(in int32) []int32 {
	if g.instrs[in].Op != ir.OpCall {
		return nil
	}
	at := g.more(in)
	return g.ints[at+1 : at+1+g.ints[at]]
}

// Gate returns the gate condition of operand i of φ instruction in.
func (g *Graph) Gate(in int32, i int) *cond.Cond { return g.conds.Node(g.ints[g.more(in)+int32(i)]) }

// LoadSources returns the guarded values reaching load instruction in — the
// sources of the memory edges into its value, in the order the points-to
// analysis found them — as (value ID, condition ID) pairs.
func (g *Graph) LoadSources(in int32) []int32 {
	loads, at := g.part(pLoads), g.ints[g.more(in)]
	return loads[at+1 : at+1+2*loads[at]]
}

// Sub returns the one name instruction in carries (see ir.Instr.Sub).
func (g *Graph) Sub(in int32) string {
	if s := g.instrs[in].sub; s >= 0 {
		return g.sym(s)
	}
	return ""
}

// Callee returns the name a call calls ("" for any other instruction).
func (g *Graph) Callee(in int32) string {
	if g.instrs[in].Op != ir.OpCall {
		return ""
	}
	return g.Sub(in)
}

// Position returns the source position of instruction in (the zero Pos when
// it has none).
func (g *Graph) Position(in int32) minic.Pos {
	if l := g.instrs[in].Loc; l != (ir.Loc{}) {
		return minic.Pos{File: g.File(), Line: int(l.Line), Col: int(l.Col)}
	}
	return minic.Pos{}
}

// CDeps returns the control dependences of block b as (branch block ID,
// condition value ID, 1 if on the true edge else 0) triples.
func (g *Graph) CDeps(b int32) []int32 {
	at := g.part(pCDAt)
	return g.part(pCDeps)[at[b]:at[b+1]]
}

// numBlocks bounds the block IDs.
func (g *Graph) numBlocks() int32 { return g.at[pCDAt+1] - g.at[pCDAt] - 1 }

// IntVal returns the payload of a VConstInt (0 for any other value).
func (g *Graph) IntVal(v int32) int64 {
	switch r := &g.values[v]; {
	case r.Kind != ir.VConstInt:
		return 0
	case r.wide:
		w := g.part(pWide)
		return int64(uint32(w[r.num])) | int64(w[r.num+1])<<32
	default:
		return int64(r.num)
	}
}

// ValueName returns the name of value v, as ir.Value.Name does.
func (g *Graph) ValueName(v int32) string {
	switch r := &g.values[v]; {
	case r.name < 0:
		return ""
	case r.Kind == ir.VVar && r.num != 0:
		return g.sym(r.name) + "." + strconv.Itoa(int(r.num))
	default:
		return g.sym(r.name)
	}
}

// ValueString renders value v, as ir.Value.String does.
func (g *Graph) ValueString(v int32) string {
	switch r := &g.values[v]; r.Kind {
	case ir.VConstInt:
		return strconv.FormatInt(g.IntVal(v), 10)
	case ir.VConstBool:
		return strconv.FormatBool(r.BoolVal)
	case ir.VConstNull:
		return "null"
	}
	return g.ValueName(v)
}

// CD returns the direct control-dependence condition of the statement an
// instruction belongs to (the CD(v@s) of Equation 1, non-recursive part).
func (g *Graph) CD(in int32) *cond.Cond {
	return g.conds.Node(g.part(pCDCond)[g.instrs[in].Block])
}

// cdOf returns the conjunction of block b's control dependences (not chased
// transitively: the search recurses over the controlling branch values
// itself, per Example 3.8 of the paper), registering their atoms.
func cdOf(inf *ssa.Info, b *ir.Block) *cond.Cond {
	var few [8]*cond.Cond
	cs := few[:0]
	for _, d := range inf.CD(b) {
		a := inf.Atom(d.Cond())
		if !d.OnTrue {
			a = inf.Conds.Not(a)
		}
		cs = append(cs, a)
	}
	return inf.Conds.And(cs...)
}

// AtomValue maps a condition atom back to the value ID registered under it
// (-1 if none was).
func (g *Graph) AtomValue(atom int) int32 {
	if _, ok := slices.BinarySearch(g.part(pAtoms), int32(atom)); ok {
		return int32(atom)
	}
	return -1
}
