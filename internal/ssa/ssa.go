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
// branch-condition atoms. Control dependences come from the post-dominator
// tree.
//
// Atoms in the condition domain are SSA value IDs of branch conditions, so
// downstream passes can map atoms back to program values when encoding SMT
// queries.
package ssa

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cfg"
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
// an ID beyond the table as "no entry". Once PrepareCDConds has run the
// tables are only read, which is what lets detection workers share an Info.
type Info struct {
	Fn *ir.Func
	// Conds builds and interns all conditions of this function.
	Conds *cond.Builder
	// gates holds, by Instr.ID, each φ's per-operand gate conditions
	// (parallel to the φ's Args); it covers no ID until the first φ.
	gates dense.Lists[*cond.Cond]
	// cd holds each block's control dependences, by Block.ID.
	cd [][]cfg.CDep
	// atoms lists the SSA values registered as condition atoms, in ascending
	// ID order (an atom's ID is its value's). Only branch conditions become
	// atoms, a handful per function.
	atoms []*ir.Value
	// reachCond holds, by Block.ID, the condition over branch atoms of
	// reaching the block from the entry ("canonical" reach condition; the
	// SEG uses control dependence instead, this is kept for the quasi
	// points-to analysis and for tests). Nil for unreachable blocks.
	reachCond []*cond.Cond
	// cdCond memoizes CDCond by Block.ID once PrepareCDConds has run, making
	// subsequent CDCond calls read-only (and therefore safe to issue from
	// concurrent detection workers).
	cdCond []*cond.Cond
	// build is what only the build reads (see joinState); ReleaseBuildState
	// drops it.
	build *joinState
}

// joinState is what the build's control-flow walks work from: the
// topological order of the blocks, the dominator tree, and JoinGates' RPO
// numbering and memo. Only the build reads it (Transform for the reach
// conditions and φ gates, pta.Analyze for its sweep and at joins), so it is
// dropped once the function's SEG stands; a later call recomputes it.
type joinState struct {
	order []*ir.Block
	dom   *cfg.DomTree
	// rpoIdx numbers the blocks by order, and gates memoizes JoinGates, by
	// Block.ID; both are made by the first JoinGates call (during the
	// single-goroutine build only).
	rpoIdx []int32
	gates  [][]*cond.Cond
}

// ReleaseBuildState drops the tables only the build reads. The build calls
// it when the function's SEG is complete.
func (inf *Info) ReleaseBuildState() { inf.build = nil }

func (inf *Info) joinState() *joinState {
	if inf.build == nil {
		order := cfg.ReversePostorder(inf.Fn)
		inf.build = &joinState{order: order, dom: cfg.Dominators(inf.Fn, order)}
	}
	return inf.build
}

// Order returns the function's blocks in a topological order (the CFG is
// acyclic): the order Transform swept. Callers must not mutate it.
func (inf *Info) Order() []*ir.Block { return inf.joinState().order }

// AtomValue maps a condition atom ID back to the SSA value registered under
// it (nil if none was).
func (inf *Info) AtomValue(id int) *ir.Value {
	if i, ok := inf.findAtom(int32(id)); ok {
		return inf.atoms[i]
	}
	return nil
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
func (inf *Info) CD(b *ir.Block) []cfg.CDep { return inf.cd[b.ID] }

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

// CDCond returns the conjunction of the direct control-dependence conditions
// of a block (not chased transitively; SEG traversal recurses over the
// controlling branch values itself, per Example 3.8 of the paper).
func (inf *Info) CDCond(b *ir.Block) *cond.Cond {
	if inf.cdCond != nil {
		return inf.cdCond[b.ID]
	}
	return inf.computeCDCond(b)
}

// PrepareCDConds computes and memoizes CDCond for every block of the
// function. Atom registration (which mutates the atom list) happens here, on one
// goroutine; after this call CDCond performs only slice reads, so detection
// workers can query control dependences concurrently.
func (inf *Info) PrepareCDConds() {
	if inf.cdCond != nil {
		return
	}
	m := make([]*cond.Cond, inf.Fn.NumBlocks())
	for _, b := range inf.Fn.Blocks {
		m[b.ID] = inf.computeCDCond(b)
	}
	inf.cdCond = m
}

func (inf *Info) computeCDCond(b *ir.Block) *cond.Cond {
	deps := inf.cd[b.ID]
	if len(deps) == 0 {
		return inf.Conds.True()
	}
	cs := make([]*cond.Cond, 0, len(deps))
	for _, d := range deps {
		a := inf.Atom(d.Cond())
		if !d.OnTrue {
			a = inf.Conds.Not(a)
		}
		cs = append(cs, a)
	}
	return inf.Conds.And(cs...)
}

// Transform computes the gates of f, which lowering put into SSA form, and
// returns them as an Info. The CFG must be acyclic.
func Transform(f *ir.Func) (*Info, error) {
	order, err := cfg.Topological(f)
	if err != nil {
		return nil, err
	}
	inf := newInfo(f, cond.NewBuilder())
	inf.build = &joinState{order: order, dom: cfg.Dominators(f, order)}
	computeReachConds(inf, order)
	computeGates(inf)
	return inf, nil
}

// newInfo allocates an Info's ID-indexed tables and fills the one that is a
// pure function of the CFG (control dependences).
func newInfo(f *ir.Func, conds *cond.Builder) *Info {
	return &Info{
		Fn:        f,
		Conds:     conds,
		cd:        cfg.ControlDeps(f, cfg.PostDominators(f)),
		reachCond: make([]*cond.Cond, f.NumBlocks()),
	}
}

// computeReachConds computes, for every block, the canonical condition of
// reaching it from the entry, in topological order.
func computeReachConds(inf *Info, order []*ir.Block) {
	inf.reachCond[inf.Fn.Entry.ID] = inf.Conds.True()
	var parts []*cond.Cond
	for _, b := range order {
		if b == inf.Fn.Entry {
			continue
		}
		parts = parts[:0]
		for _, p := range b.Preds {
			if rc := inf.reachCond[p.ID]; rc != nil {
				parts = append(parts, inf.Conds.And(rc, inf.EdgeCond(p, b)))
			}
		}
		inf.reachCond[b.ID] = inf.Conds.Or(parts...)
	}
}

// JoinGates returns, for a block with multiple predecessors, the gate
// condition of each incoming edge, parallel to join.Preds: the condition of
// reaching the predecessor from idom(join) and taking the edge into the
// join. Results are memoized. Single-predecessor blocks gate on the edge
// condition alone.
func (inf *Info) JoinGates(join *ir.Block) []*cond.Cond {
	js := inf.joinState()
	if js.gates == nil {
		js.gates, js.rpoIdx = make([][]*cond.Cond, inf.Fn.NumBlocks()), make([]int32, inf.Fn.NumBlocks())
		for i, b := range js.order {
			js.rpoIdx[b.ID] = int32(i)
		}
	}
	if g := js.gates[join.ID]; g != nil {
		return g
	}
	d := js.dom.Idom(join)
	if d == nil {
		d = inf.Fn.Entry
	}
	// Region: blocks backward-reachable from join's preds up to d.
	// Because idom(join) dominates join, every path from idom(join) to
	// join stays within this region, so a local topological sweep
	// computes exact reach conditions relative to d. reach doubles as the
	// region's membership set: non-nil = in the region, inRegion = in it
	// but not yet reached by the sweep.
	reach := make([]*cond.Cond, inf.Fn.NumBlocks())
	reach[d.ID] = inf.Conds.True()
	var blocks, stack []*ir.Block
	push := func(b *ir.Block) {
		if reach[b.ID] == nil {
			reach[b.ID] = inRegion
			blocks = append(blocks, b)
			stack = append(stack, b)
		}
	}
	for _, p := range join.Preds {
		push(p)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range b.Preds {
			push(p)
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return js.rpoIdx[blocks[i].ID] < js.rpoIdx[blocks[j].ID] })
	var parts []*cond.Cond
	for _, b := range blocks {
		parts = parts[:0]
		for _, p := range b.Preds {
			if rc := reach[p.ID]; rc != nil && rc != inRegion {
				parts = append(parts, inf.Conds.And(rc, inf.EdgeCond(p, b)))
			}
		}
		reach[b.ID] = inf.Conds.Or(parts...)
	}
	gates := make([]*cond.Cond, len(join.Preds))
	for i, pb := range join.Preds {
		gates[i] = inf.Conds.And(reach[pb.ID], inf.EdgeCond(pb, join))
	}
	js.gates[join.ID] = gates
	return gates
}

// inRegion marks a block as a member of JoinGates' region before its reach
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
