package seg

import (
	"slices"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/pta"
	"repro/internal/ssa"
)

// The graph's own lists, in the body's array after the body's (Graph.part):
// what Build adds to the body it adopts.
const (
	pLoads = ir.NumLists + iota // per load: the source count, then (value ID, condition ID) pairs
	// By block ID: block b's control dependences are the (branch block ID,
	// condition value ID, 1 if on the true edge) triples of
	// pCDeps[cdAt[b]:cdAt[b+1]].
	pCDAt
	pCDeps
	pAtoms     // the value IDs registered as condition atoms, ascending
	pInstrIdx  // intra-block instruction positions by instruction ID
	pSuccStart // the vertices' edge offsets (see Graph.edges)
	// By block ID: the condition ID of the conjunction of the block's
	// control dependences (Graph.CD), and the blocks reachable from it
	// through at least one CFG edge, a bit per block ID in rows of
	// reachWords words.
	pCDCond
	pReach
	// pValueAt holds, by value ID, 1 + the index of the value's vertex (0 =
	// none). The codec does not write it: the decoder rebuilds it.
	pValueAt
)

func (g *Graph) part(k int) []int32 { return g.List(k) }

// addParts fills the graph's own lists (bd.parts) from f, what the build
// made of it and the builder's vertices and pending edges, and writes what
// the SEG keeps of the body into the body: each load's place in pLoads, each
// store's escape flag.
func addParts(bd *builder, f *ir.Func, inf *ssa.Info, pr *pta.Result) {
	parts := &bd.parts
	for k := range parts {
		parts[k] = parts[k][:0]
	}
	add := func(k int, vs ...int32) { parts[k] = append(parts[k], vs...) }
	zeros := func(k, n int) []int32 { parts[k] = append(parts[k], make([]int32, n)...); return parts[k] }
	for in := int32(0); int(in) < f.NumInstrs(); in++ {
		if !f.HoldsInstr(in) {
			continue
		}
		switch f.In(in).Op {
		case ir.OpLoad:
			srcs := pr.LoadSources(in)
			f.SetLoadSlot(in, int32(len(parts[pLoads])))
			add(pLoads, int32(len(srcs)))
			for _, gv := range srcs {
				add(pLoads, gv.Val, cond.Ref(gv.Cond))
			}
		case ir.OpStore:
			for _, gl := range pr.StoredAt(in) {
				if gl.Loc.Kind != pta.LAlloc && gl.Loc.Kind != pta.LMalloc {
					f.SetEscapes(in)
				}
			}
		}
	}
	instrIdx := zeros(pInstrIdx, f.NumInstrs())
	nb := f.NumBlocks()
	cdAt := zeros(pCDAt, nb+1)
	for _, b := range f.Blocks() {
		for i, in := range f.Instrs(b) {
			instrIdx[in] = int32(i)
		}
		cdAt[b+1] = 3 * int32(len(inf.CD(b)))
	}
	for id := 0; id < nb; id++ {
		cdAt[id+1] += cdAt[id]
	}
	cdeps := zeros(pCDeps, int(cdAt[nb]))
	cdCond := zeros(pCDCond, nb) // a block no instruction is in keeps true, ID 0
	w := reachWords(int32(nb))
	reach := zeros(pReach, nb*int(w))
	stack := make([]int32, 0, 16)
	for _, b := range f.Blocks() {
		for i, d := range inf.CD(b) {
			at := int(cdAt[b]) + 3*i
			cdeps[at], cdeps[at+1] = d.Branch, d.Cond
			if d.OnTrue {
				cdeps[at+2] = 1
			}
		}
		cdCond[b] = cond.Ref(cdOf(inf, b))
		// The blocks b reaches through at least one CFG edge, by a
		// depth-first walk.
		row := reach[b*w : (b+1)*w]
		stack = append(stack[:0], b)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range f.Succs(x) {
				if i, m := reachBit(s); row[i]&m == 0 {
					row[i] |= m
					stack = append(stack, s)
				}
			}
		}
	}
	// cdOf registered the atoms of the control dependences.
	parts[pAtoms] = inf.AppendAtoms(parts[pAtoms])
	succStart := zeros(pSuccStart, len(bd.nodes)+1)
	for i := range bd.pend {
		succStart[bd.pend[i].from+1]++
	}
	for i := range bd.nodes {
		succStart[i+1] += succStart[i]
	}
	add(pValueAt, bd.valueAt...)
}

// Conds returns the builder the graph's conditions belong to.
func (g *Graph) Conds() *cond.Builder { return g.conds }

// Gate returns the gate condition of operand i of φ instruction in.
func (g *Graph) Gate(in int32, i int) *cond.Cond { return g.conds.Node(g.GateID(in, i)) }

// LoadSources returns the guarded values reaching load instruction in — the
// sources of the memory edges into its value, in the order the points-to
// analysis found them — as (value ID, condition ID) pairs.
func (g *Graph) LoadSources(in int32) []int32 {
	loads, at := g.part(pLoads), g.LoadSlot(in)
	return slices.Clip(loads[at+1 : at+1+2*loads[at]])
}

// CDeps returns the control dependences of block b as (branch block ID,
// condition value ID, 1 if on the true edge else 0) triples.
func (g *Graph) CDeps(b int32) []int32 {
	at := g.part(pCDAt)
	return slices.Clip(g.part(pCDeps)[at[b]:at[b+1]])
}

// NumBlocks bounds the block IDs.
func (g *Graph) NumBlocks() int { return len(g.part(pCDAt)) - 1 }

// CD returns the direct control-dependence condition of the statement an
// instruction belongs to (the CD(v@s) of Equation 1, non-recursive part).
func (g *Graph) CD(in int32) *cond.Cond {
	return g.conds.Node(g.part(pCDCond)[g.In(in).Block])
}

// cdOf returns the conjunction of block b's control dependences (not chased
// transitively: the search recurses over the controlling branch values
// itself, per Example 3.8 of the paper), registering their atoms.
func cdOf(inf *ssa.Info, b int32) *cond.Cond {
	var few [8]*cond.Cond
	cs := few[:0]
	for _, d := range inf.CD(b) {
		a := inf.Atom(d.Cond)
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
