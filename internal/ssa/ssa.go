// Package ssa computes the gating conditions of the φ-assignments of
// lowered IR functions, which package lower emits in SSA form already.
//
// Pinpoint's SEG (Definition 3.2) labels the data-dependence edge of each φ
// operand with the condition under which that operand is selected — the
// "gated function" of Tu and Padua, computable in near-linear time because
// the lowered CFGs are acyclic (loops are unrolled once during lowering).
// Transform computes, in one topological sweep once the function is
// complete, each block's reach condition, then each φ's gates: for a φ in
// join J with operand arriving from predecessor P, the gate is the condition
// of reaching P from idom(J) and taking the edge P→J, expressed over
// branch-condition atoms. The order, the dominators and the control
// dependences are the function's own (ir.Body.TopoOrder, Idom,
// ControlDeps), computed once when lowering sealed its CFG. The gates are
// written into the φs themselves (ir.Body.SetGate), where the points-to
// analysis and the SEG read them.
//
// Atoms in the condition domain are SSA value IDs of branch conditions, so
// downstream passes can map atoms back to program values when encoding SMT
// queries.
package ssa

import (
	"slices"

	"repro/internal/cond"
	"repro/internal/ir"
)

// Info carries the analysis artifacts of SSA conversion that later passes
// (points-to, SEG construction, detection) consume.
//
// Per-block facts are slices indexed by block ID — the IDs are dense per
// function, so they are the keys. Detection does not read an Info: the SEG
// keeps what it needs (seg.Graph).
type Info struct {
	Fn *ir.Func
	// Conds builds and interns all conditions of this function.
	Conds *cond.Builder
	// cd holds each block's control dependences, by block ID.
	cd [][]ir.CDep
	// atoms lists the IDs of the SSA values registered as condition atoms,
	// ascending (an atom's ID is its value's). Only branch conditions become
	// atoms, a handful per function.
	atoms []int32
	// reachCond holds, by block ID, the condition over branch atoms of
	// reaching the block from the entry ("canonical" reach condition; the
	// SEG uses control dependence instead, this is kept for the quasi
	// points-to analysis and for tests). Nil for unreachable blocks.
	reachCond []*cond.Cond
	// build is what only the build reads (see joinState).
	build *joinState
}

// joinState memoizes JoinGates, by block ID. Only the build reads it
// (Transform for the φ gates, pta.Analyze at joins, on one goroutine); it
// goes with the Info once the function's SEG stands.
type joinState struct {
	gates [][]*cond.Cond
}

// AppendAtoms appends to dst the IDs of the values registered as condition
// atoms, ascending.
func (inf *Info) AppendAtoms(dst []int32) []int32 { return append(dst, inf.atoms...) }

// registerAtom records value v as the value behind atom v.
func (inf *Info) registerAtom(v int32) {
	if i, ok := slices.BinarySearch(inf.atoms, v); !ok {
		inf.atoms = slices.Insert(inf.atoms, i, v)
	}
}

// Gate returns the gate condition of operand i of φ instruction in.
func (inf *Info) Gate(in int32, i int) *cond.Cond { return inf.Conds.Node(inf.Fn.GateID(in, i)) }

// CD returns the control dependences of block b.
func (inf *Info) CD(b int32) []ir.CDep { return inf.cd[b] }

// ReachCond returns the canonical condition of reaching block b from the
// entry (nil if b is unreachable).
func (inf *Info) ReachCond(b int32) *cond.Cond { return inf.reachCond[b] }

// Atom returns the condition atom for an SSA boolean value, registering the
// reverse mapping. Values are canonicalized through copies and negations
// ("t = !c" yields ¬atom(c), not a fresh atom), so complementary branch
// conditions share atoms — exactly what lets the linear-time contradiction
// solver of §3.1.1 catch "free under c, use under !c" patterns without the
// SMT solver.
func (inf *Info) Atom(v int32) *cond.Cond {
	f := inf.Fn
	neg := false
	for def := f.Value(v).Def; def >= 0; def = f.Value(v).Def {
		if op := f.In(def).Op; op == ir.OpCopy {
			v = f.Args(def)[0]
			continue
		} else if op == ir.OpUn && f.Sub(def) == "!" {
			neg = !neg
			v = f.Args(def)[0]
			continue
		}
		break
	}
	var a *cond.Cond
	if r := f.Value(v); r.Kind == ir.VConstBool {
		a = inf.Conds.True()
		if !r.BoolVal() {
			a = inf.Conds.False()
		}
	} else {
		inf.registerAtom(v)
		a = inf.Conds.Atom(int(v))
	}
	if neg {
		a = inf.Conds.Not(a)
	}
	return a
}

// EdgeCond returns the condition attached to the CFG edge from→to.
func (inf *Info) EdgeCond(from, to int32) *cond.Cond {
	f := inf.Fn
	term := f.Term(from)
	if term < 0 || f.In(term).Op != ir.OpBr {
		return inf.Conds.True()
	}
	a := inf.Atom(f.Args(term)[0])
	if f.Succs(from)[0] == to {
		return a
	}
	return inf.Conds.Not(a)
}

// Transform computes the gates of f, which lowering put into SSA form, and
// returns them as an Info. The CFG must be acyclic.
func Transform(f *ir.Func) (*Info, error) {
	order, err := f.TopoOrder()
	if err != nil {
		return nil, err
	}
	inf := newInfo(f, cond.NewBuilder())
	for _, b := range order {
		inf.reachCond[b] = inRegion
	}
	inf.reachFrom(order, inf.reachCond)
	computeGates(inf)
	return inf, nil
}

// newInfo allocates an Info's ID-indexed tables and fills the one that is a
// pure function of the CFG (control dependences).
func newInfo(f *ir.Func, conds *cond.Builder) *Info {
	return &Info{
		Fn:        f,
		Conds:     conds,
		cd:        f.ControlDeps(),
		reachCond: make([]*cond.Cond, f.NumBlocks()),
	}
}

// reachFrom fills reach, by block ID, with the condition of reaching from
// blocks[0] each later block of blocks (listed in order) that reach marks
// inRegion, through those blocks.
func (inf *Info) reachFrom(blocks []int32, reach []*cond.Cond) {
	reach[blocks[0]] = inf.Conds.True()
	var parts []*cond.Cond
	for _, b := range blocks[1:] {
		if reach[b] != inRegion {
			continue
		}
		parts = parts[:0]
		for _, p := range inf.Fn.Preds(b) {
			if rc := reach[p]; rc != nil {
				parts = append(parts, inf.Conds.And(rc, inf.EdgeCond(p, b)))
			}
		}
		reach[b] = inf.Conds.Or(parts...)
	}
}

// JoinGates returns, for a block with multiple predecessors, the gate
// condition of each incoming edge, parallel to join.Preds: the condition of
// reaching the predecessor from idom(join) and taking the edge into the
// join. Results are memoized. Single-predecessor blocks gate on the edge
// condition alone.
func (inf *Info) JoinGates(join int32) []*cond.Cond {
	f := inf.Fn
	if inf.build == nil {
		inf.build = &joinState{gates: make([][]*cond.Cond, f.NumBlocks())}
	}
	if g := inf.build.gates[join]; g != nil {
		return g
	}
	// The region is the blocks after d = idom(join) and before join in the
	// order that reach join, marked by a backward sweep. Every path from d
	// to join stays within it, and every block in it is strictly dominated
	// by d: a path from the entry that avoided d would reach join around d.
	// So a sweep of the region in order computes exact reach conditions
	// relative to d.
	order, _ := f.TopoOrder()
	region := order[f.Rank(f.Idom(join)):f.Rank(join)]
	reach := make([]*cond.Cond, f.NumBlocks())
	for i := len(region) - 1; i > 0; i-- {
		for _, s := range f.Succs(region[i]) {
			if s == join || reach[s] != nil {
				reach[region[i]] = inRegion
				break
			}
		}
	}
	inf.reachFrom(region, reach)
	preds := f.Preds(join)
	gates := make([]*cond.Cond, len(preds))
	for i, pb := range preds {
		gates[i] = inf.Conds.And(reach[pb], inf.EdgeCond(pb, join))
	}
	inf.build.gates[join] = gates
	return gates
}

// inRegion marks a block as a member of reachFrom's region before its reach
// condition is known. It is compared by identity only and never reaches a
// Builder.
var inRegion = new(cond.Cond)

// computeGates writes the join gates into the φs: operand i of a φ arrives
// from its block's predecessor i.
func computeGates(inf *Info) {
	f := inf.Fn
	for _, join := range f.Blocks() {
		for _, phi := range f.Instrs(join) {
			if f.In(phi).Op != ir.OpPhi {
				break
			}
			for i, g := range inf.JoinGates(join) {
				f.SetGate(phi, i, int32(g.ID()))
			}
		}
	}
}
