// Package ssa converts lowered IR functions into SSA form and computes the
// gating conditions of φ-assignments.
//
// Pinpoint's SEG (Definition 3.2) labels the data-dependence edge of each φ
// operand with the condition under which that operand is selected — the
// "gated function" of Tu and Padua, computable in near-linear time because
// the lowered CFGs are acyclic (loops are unrolled once during lowering).
// This package performs:
//
//  1. semi-pruned φ insertion on iterated dominance frontiers (Cytron);
//  2. stack-based renaming over the dominator tree;
//  3. dead-φ elimination;
//  4. gate computation: for a φ in join J with operand arriving from
//     predecessor P, the gate is the condition of reaching P from idom(J)
//     and taking the edge P→J, expressed over branch-condition atoms.
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

// joinState is what JoinGates works from: the dominator tree, the RPO
// numbering and the memo of its results. Only the build asks for join gates
// (Transform for the φ gates, pta.Analyze at control-flow joins), so the
// state is dropped once the function's SEG stands; a later JoinGates call
// recomputes it.
type joinState struct {
	dom    *cfg.DomTree
	rpoIdx []int32 // by Block.ID
	// gates memoizes JoinGates by Block.ID (filled lazily, during the
	// single-goroutine build only).
	gates [][]*cond.Cond
}

// ReleaseBuildState drops the tables only the build reads. The build calls
// it when the function's SEG is complete.
func (inf *Info) ReleaseBuildState() { inf.build = nil }

func (inf *Info) joinState() *joinState {
	if inf.build == nil {
		inf.build = newJoinState(inf.Fn, cfg.ReversePostorder(inf.Fn), cfg.Dominators(inf.Fn))
	}
	return inf.build
}

func newJoinState(f *ir.Func, order []*ir.Block, dom *cfg.DomTree) *joinState {
	nb := f.NumBlocks()
	js := &joinState{dom: dom, rpoIdx: make([]int32, nb), gates: make([][]*cond.Cond, nb)}
	for i, b := range order {
		js.rpoIdx[b.ID] = int32(i)
	}
	return js
}

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

// Transform converts f to SSA form in place and returns the associated Info.
// The CFG must be acyclic.
func Transform(f *ir.Func) (*Info, error) {
	order, err := cfg.Topological(f)
	if err != nil {
		return nil, err
	}
	dom := cfg.Dominators(f)
	df := cfg.DominanceFrontier(f, dom)

	insertPhis(f, df)
	rename(f, dom)
	eliminateDeadPhis(f)

	inf := newInfo(f, cond.NewBuilder())
	inf.build = newJoinState(f, order, dom)
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

// varSites records the definition sites of one pre-SSA variable.
type varSites struct {
	v *ir.Value
	// The distinct blocks defining v, in f.Blocks order: def0, then more.
	// Most variables are defined in one block and never fill more.
	def0, last *ir.Block
	more       []*ir.Block
	global     bool // used in a block other than (or before) its definition
}

// insertPhis places φ instructions for multi-block variables on iterated
// dominance frontiers. All bookkeeping is indexed by the (dense) value and
// block IDs; "is it marked for this variable/block" sets are stamp arrays,
// so nothing is cleared between variables or blocks.
func insertPhis(f *ir.Func, df [][]*ir.Block) {
	sites := make([]varSites, f.NumValues()) // by Value.ID; v == nil: not a variable
	definedIn := make([]int32, f.NumValues())
	for _, b := range f.Blocks {
		here := int32(b.ID) + 1 // definedIn[v] == here: v was defined earlier in b
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a.Kind == ir.VVar && definedIn[a.ID] != here {
					sites[a.ID].v = a
					sites[a.ID].global = true
				}
			}
			def := func(d *ir.Value) {
				if d == nil || d.Kind != ir.VVar {
					return
				}
				s := &sites[d.ID]
				s.v = d
				// Blocks are scanned one after another, so b is already
				// recorded exactly when it is the last entry.
				if s.def0 == nil {
					s.def0 = b
				} else if s.last != b {
					s.more = append(s.more, b)
				}
				s.last = b
				definedIn[d.ID] = here
			}
			if in.Op == ir.OpCall {
				for _, d := range in.Dsts() {
					def(d)
				}
			} else {
				def(in.Dst)
			}
		}
	}

	// placed[b] == stamp: the current variable has a φ in b; defSeen
	// likewise for "b defines the variable (originally or through a φ)".
	nb := f.NumBlocks()
	placed := make([]int32, nb)
	defSeen := make([]int32, nb)
	var work []*ir.Block
	var args []*ir.Value // scratch: InsertAt copies it
	// Variables in ascending ID order: the φ order inside a block, and the
	// instruction IDs φs receive, follow from it.
	for i := range sites {
		s := &sites[i]
		// With MiniC's declare-before-use discipline a variable with a
		// single def block needs no φ: the def dominates all uses.
		if s.v == nil || !s.global || len(s.more) == 0 {
			continue
		}
		stamp := int32(i) + 1
		work = append(append(work[:0], s.def0), s.more...)
		for _, b := range work {
			defSeen[b.ID] = stamp
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, w := range df[b.ID] {
				if placed[w.ID] == stamp {
					continue
				}
				placed[w.ID] = stamp
				args = args[:0]
				for range w.Preds {
					args = append(args, s.v)
				}
				f.InsertAt(w, 0, ir.Instr{Op: ir.OpPhi, Dst: s.v, Args: args, Ext: &ir.Ext{Blocks: w.Preds}})
				if defSeen[w.ID] != stamp {
					defSeen[w.ID] = stamp
					work = append(work, w)
				}
			}
		}
	}
}

// renamer carries the state of the dominator-tree renaming walk, indexed by
// the IDs of the pre-SSA variables (versions created during the walk get
// larger IDs and are never looked up).
type renamer struct {
	f       *ir.Func
	dom     *cfg.DomTree
	cur     []*ir.Value // by pre-SSA Value.ID: the reaching version, nil = none
	version []int32     // by pre-SSA Value.ID: versions created so far
	// undo logs every overwritten cur entry; a block restores back to its
	// mark on exit, which is what a stack per variable would do.
	undo []reaching
}

type reaching struct{ v, was *ir.Value }

// rename walks the dominator tree replacing variable defs with fresh SSA
// versions and uses with the reaching version.
func rename(f *ir.Func, dom *cfg.DomTree) {
	n := f.NumValues()
	r := &renamer{f: f, dom: dom, cur: make([]*ir.Value, n), version: make([]int32, n)}
	r.walk(f.Entry)
}

func (r *renamer) top(v *ir.Value) *ir.Value {
	if int(v.ID) < len(r.cur) && r.cur[v.ID] != nil {
		return r.cur[v.ID]
	}
	// Use before def: should not happen for well-formed lowering; treat
	// the variable itself as an "undef version 0", kept by the function
	// like its versions. It is never undone: no definition replaces it.
	if int(v.ID) >= len(r.cur) {
		return v
	}
	r.cur[v.ID] = r.f.Undef(v)
	return r.cur[v.ID]
}

func (r *renamer) fresh(v *ir.Value, def *ir.Instr) *ir.Value {
	r.version[v.ID]++
	nv := r.f.NewVersion(v, int(r.version[v.ID]))
	nv.Def = def
	r.undo = append(r.undo, reaching{v: v, was: r.cur[v.ID]})
	r.cur[v.ID] = nv
	return nv
}

func (r *renamer) walk(b *ir.Block) {
	mark := len(r.undo)
	for _, in := range b.Instrs {
		if in.Op != ir.OpPhi {
			for i, a := range in.Args {
				if a.Kind == ir.VVar {
					in.Args[i] = r.top(a)
				}
			}
		}
		if in.Op == ir.OpCall {
			for i, d := range in.Dsts() {
				if d != nil && d.Kind == ir.VVar {
					in.Dsts()[i] = r.fresh(d, in)
				}
			}
			continue
		}
		if in.Dst != nil && in.Dst.Kind == ir.VVar {
			in.Dst = r.fresh(in.Dst, in)
		}
	}
	// Fill φ operands of successors with the current versions.
	for _, s := range b.Succs {
		for _, in := range s.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			for i, pb := range in.Blocks() {
				if pb == b && in.Args[i].Kind == ir.VVar {
					in.Args[i] = r.top(in.Args[i])
				}
			}
		}
	}
	// Children come out of the tree in ascending ID order.
	for _, c := range r.dom.Children(b) {
		r.walk(c)
	}
	for i := len(r.undo) - 1; i >= mark; i-- {
		r.cur[r.undo[i].v.ID] = r.undo[i].was
	}
	r.undo = r.undo[:mark]
}

// eliminateDeadPhis removes φ instructions whose destination is never used,
// iterating to a fixpoint.
func eliminateDeadPhis(f *ir.Func) {
	used := make([]bool, f.NumValues())
	for {
		for i := range used {
			used[i] = false
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					used[a.ID] = true
				}
			}
		}
		removed := false
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if in.Op == ir.OpPhi && !used[in.Dst.ID] {
					removed = true
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
		if !removed {
			return
		}
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
