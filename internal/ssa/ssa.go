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
// dependences are the function's own (ir.Func.Order, Idom, ControlDeps),
// computed once when lowering sealed its CFG.
//
// Atoms in the condition domain are SSA value IDs of branch conditions, so
// downstream passes can map atoms back to program values when encoding SMT
// queries.
package ssa

import (
	"fmt"
	"slices"

	"repro/internal/cond"
	"repro/internal/dense"
	"repro/internal/ir"
)

// Info carries the analysis artifacts of SSA conversion that later passes
// (points-to, SEG construction, detection) consume.
//
// Per-block and per-instruction facts are slices indexed by Block.ID and
// Instr.ID — the IDs are dense per function, so they are the keys. Blocks
// are never added after SSA conversion; instructions are (by the connector
// transformation), so instruction lookups go through GatesOf, which treats
// an ID beyond the table as "no entry". Detection does not read an Info: the
// SEG copies what it needs (seg.Graph).
type Info struct {
	Fn *ir.Func
	// Conds builds and interns all conditions of this function.
	Conds *cond.Builder
	// gates holds, by Instr.ID, each φ's per-operand gate conditions
	// (parallel to the φ's Args); it covers no ID until the first φ.
	gates dense.Lists[*cond.Cond]
	// cd holds each block's control dependences, by Block.ID.
	cd [][]ir.CDep
	// atoms lists the SSA values registered as condition atoms, in ascending
	// ID order (an atom's ID is its value's). Only branch conditions become
	// atoms, a handful per function.
	atoms []*ir.Value
	// reachCond holds, by Block.ID, the condition over branch atoms of
	// reaching the block from the entry ("canonical" reach condition; the
	// SEG uses control dependence instead, this is kept for the quasi
	// points-to analysis and for tests). Nil for unreachable blocks.
	reachCond []*cond.Cond
	// build is what only the build reads (see joinState).
	build *joinState
}

// joinState memoizes JoinGates, by Block.ID. Only the build reads it
// (Transform for the φ gates, pta.Analyze at joins, on one goroutine); it
// goes with the Info once the function's SEG stands.
type joinState struct {
	gates [][]*cond.Cond
}

// AtomValue maps a condition atom ID back to the SSA value registered under
// it (nil if none was).
func (inf *Info) AtomValue(id int) *ir.Value {
	if i, ok := inf.findAtom(int32(id)); ok {
		return inf.atoms[i]
	}
	return nil
}

// AppendAtoms appends to dst the IDs of the values registered as condition
// atoms, ascending.
func (inf *Info) AppendAtoms(dst []int32) []int32 {
	for _, v := range inf.atoms {
		dst = append(dst, v.ID)
	}
	return dst
}

func (inf *Info) findAtom(id int32) (int, bool) {
	return slices.BinarySearchFunc(inf.atoms, id, func(v *ir.Value, id int32) int { return int(v.ID) - int(id) })
}

// registerAtom records v as the value behind atom v.ID.
func (inf *Info) registerAtom(v *ir.Value) {
	if i, ok := inf.findAtom(v.ID); !ok {
		inf.atoms = slices.Insert(inf.atoms, i, v)
	}
}

// GatesOf returns the per-operand gate conditions of a φ instruction
// (parallel to its Args), or nil for any other instruction.
func (inf *Info) GatesOf(in *ir.Instr) []*cond.Cond {
	gates, _ := inf.gates.Get(int(in.ID))
	return gates
}

// CD returns the control dependences of a block.
func (inf *Info) CD(b *ir.Block) []ir.CDep { return inf.cd[b.ID] }

// ReachCond returns the canonical condition of reaching b from the entry
// (nil if b is unreachable).
func (inf *Info) ReachCond(b *ir.Block) *cond.Cond { return inf.reachCond[b.ID] }

// Atom returns the condition atom for an SSA boolean value, registering the
// reverse mapping. Values are canonicalized through copies and negations
// ("t = !c" yields ¬atom(c), not a fresh atom), so complementary branch
// conditions share atoms — exactly what lets the linear-time contradiction
// solver of §3.1.1 catch "free under c, use under !c" patterns without the
// SMT solver.
func (inf *Info) Atom(v *ir.Value) *cond.Cond {
	neg := false
	for v.Def != nil {
		if v.Def.Op == ir.OpCopy {
			v = v.Def.Args[0]
			continue
		}
		if v.Def.Op == ir.OpUn && v.Def.Sub == "!" {
			neg = !neg
			v = v.Def.Args[0]
			continue
		}
		break
	}
	var a *cond.Cond
	if v.Kind == ir.VConstBool {
		a = inf.Conds.True()
		if !v.BoolVal {
			a = inf.Conds.False()
		}
	} else {
		inf.registerAtom(v)
		a = inf.Conds.Atom(int(v.ID))
	}
	if neg {
		a = inf.Conds.Not(a)
	}
	return a
}

// EdgeCond returns the condition attached to the CFG edge from→to.
func (inf *Info) EdgeCond(from, to *ir.Block) *cond.Cond {
	term := from.Term()
	if term == nil || term.Op != ir.OpBr {
		return inf.Conds.True()
	}
	a := inf.Atom(term.Args[0])
	if term.Blocks()[0] == to {
		return a
	}
	return inf.Conds.Not(a)
}

// Transform computes the gates of f, which lowering put into SSA form, and
// returns them as an Info. The CFG must be acyclic.
func Transform(f *ir.Func) (*Info, error) {
	order, err := f.Order()
	if err != nil {
		return nil, err
	}
	inf := newInfo(f, cond.NewBuilder())
	for _, b := range order {
		inf.reachCond[b.ID] = inRegion
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

// reachFrom fills reach, by Block.ID, with the condition of reaching from
// blocks[0] each later block of blocks (listed in order) that reach marks
// inRegion, through those blocks.
func (inf *Info) reachFrom(blocks []*ir.Block, reach []*cond.Cond) {
	reach[blocks[0].ID] = inf.Conds.True()
	var parts []*cond.Cond
	for _, b := range blocks[1:] {
		if reach[b.ID] != inRegion {
			continue
		}
		parts = parts[:0]
		for _, p := range b.Preds {
			if rc := reach[p.ID]; rc != nil {
				parts = append(parts, inf.Conds.And(rc, inf.EdgeCond(p, b)))
			}
		}
		reach[b.ID] = inf.Conds.Or(parts...)
	}
}

// JoinGates returns, for a block with multiple predecessors, the gate
// condition of each incoming edge, parallel to join.Preds: the condition of
// reaching the predecessor from idom(join) and taking the edge into the
// join. Results are memoized. Single-predecessor blocks gate on the edge
// condition alone.
func (inf *Info) JoinGates(join *ir.Block) []*cond.Cond {
	f := inf.Fn
	if inf.build == nil {
		inf.build = &joinState{gates: make([][]*cond.Cond, f.NumBlocks())}
	}
	if g := inf.build.gates[join.ID]; g != nil {
		return g
	}
	// The region is the blocks after d = idom(join) and before join in the
	// order that reach join, marked by a backward sweep. Every path from d
	// to join stays within it, and every block in it is strictly dominated
	// by d: a path from the entry that avoided d would reach join around d.
	// So a sweep of the region in order computes exact reach conditions
	// relative to d.
	order, _ := f.Order()
	region := order[f.Rank(f.Idom(join)):f.Rank(join)]
	reach := make([]*cond.Cond, f.NumBlocks())
	for i := len(region) - 1; i > 0; i-- {
		for _, s := range region[i].Succs {
			if s == join || reach[s.ID] != nil {
				reach[region[i].ID] = inRegion
				break
			}
		}
	}
	inf.reachFrom(region, reach)
	gates := make([]*cond.Cond, len(join.Preds))
	for i, pb := range join.Preds {
		gates[i] = inf.Conds.And(reach[pb.ID], inf.EdgeCond(pb, join))
	}
	inf.build.gates[join.ID] = gates
	return gates
}

// inRegion marks a block as a member of reachFrom's region before its reach
// condition is known. It is compared by identity only and never reaches a
// Builder.
var inRegion = new(cond.Cond)

// computeGates fills the φ gate table from the join gates.
func computeGates(inf *Info) {
	for _, join := range inf.Fn.Blocks {
		var jg []*cond.Cond
		for _, phi := range join.Instrs {
			if phi.Op != ir.OpPhi {
				break
			}
			if jg == nil {
				jg = inf.JoinGates(join)
				inf.gates.Grow(inf.Fn.NumInstrs())
			}
			gates := make([]*cond.Cond, len(phi.Args))
			for i, pb := range phi.Blocks() {
				gates[i] = jg[predIndex(join, pb)]
			}
			inf.gates.Put(int(phi.ID), gates)
		}
	}
}

// predIndex returns the position of pred in join.Preds.
func predIndex(join, pred *ir.Block) int {
	for i, p := range join.Preds {
		if p == pred {
			return i
		}
	}
	panic(fmt.Sprintf("ssa: %s is not a predecessor of %s", pred, join))
}
