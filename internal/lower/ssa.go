package lower

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ir"
	"repro/internal/minic"
)

// SSA construction (Braun et al., "Simple and Efficient Construction of
// Static Single Assignment Form", CC 2013, on a CFG that is acyclic and
// structured). Every assignment creates a value; the lowerer keeps, for
// every variable, the definition that reaches the point being lowered. An
// if or a short circuit saves what each arm wrote and undoes it; at the
// join a variable whose incoming definitions differ gets a φ, created only
// when something reads it, so no φ is trivial or dead.
//
// Variables are named by key: the value ID ReserveID gave them, a hole in
// the ID space as long as no value needs it. finish numbers the values in
// dominator-tree preorder and the φs after the other instructions, in the
// order minimal SSA on dominance frontiers (Cytron et al.) would have made
// them, dead φs included; so IDs and version suffixes do not depend on which
// φs a function reads.

// def is what a variable holds at a point of the lowering: a value (v > 0),
// a φ that has not been needed yet (phi > 0), or nothing (the zero def).
type def struct {
	v   int32 // 1 + the value's handle
	phi int32 // 1 + index into scratch.phis
}

// valDef is the def holding value h.
func valDef(h int32) def { return def{v: h + 1} }

// variable is the lowering state of one key.
type variable struct {
	name string
	typ  minic.Type
	cur  def // the definition reaching the point being lowered
	// other is one arm's definition while a join merges.
	other def
	undef int32 // 1 + the handle of the variable's undefined value
	// defIn and first are 1 + the IDs of the last and the first reachable
	// block defining the variable, blocks the number of them.
	defIn, first, blocks int32
	version              int32
	stamp                int32
	// global: read in a block before (or without) a definition there.
	global bool
}

// keyDef is a variable's definition: one an arm overwrote, or the one it
// left.
type keyDef struct {
	key int32
	d   def
}

// span is a range of scratch.saved: what one arm of a join wrote.
type span struct{ from, to int }

// arm is one arm of a join: the block it ends in (-1 if it returned) and
// what it wrote.
type arm struct {
	end    int32
	writes span
}

// phi is a φ of variable key at a join, one operand per reachable
// predecessor; dst is -1 until something reads it.
type phi struct {
	block int32
	key   int32
	args  [2]def
	dst   int32
	vals  []int32
}

// site is a block defining a variable that more than one block defines.
type site struct{ key, block int32 }

// scratch is what the lowering of one function fills and drops: its tables
// are reused from one function to the next.
type scratch struct {
	// bound is the stack of live name bindings, innermost last; scopes
	// holds the stack height at which each open scope began.
	bound  []boundName
	scopes []int
	// vars holds the declared variables, slot their index by key (-1: a
	// temporary).
	vars []variable
	slot []int32
	// log records, while an arm is open (depth > 0), every overwritten
	// definition; closeArm restores them.
	log   []keyDef
	depth int
	saved []keyDef
	stamp int32
	phis  []phi
	made  []int32 // the φs read, by index into phis
	sites []site
	// rets holds ret$ at each reachable jump to the exit block, in the order
	// of its predecessors.
	rets []def
	// reached holds, by block ID, whether the entry reaches the block.
	reached []bool
	// The lists of the instruction being emitted: the function copies them
	// into its own, so one set of buffers serves every instruction
	// (callArgs is a stack, a call's operands may contain calls).
	argBuf, dstBuf, callArgs []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset empties the tables for a function with about vars declared
// variables and blocks blocks.
func (s *scratch) reset(vars, blocks int) {
	*s = scratch{
		bound:   slices.Grow(s.bound[:0], vars),
		scopes:  append(s.scopes[:0], 0),
		vars:    slices.Grow(s.vars[:0], vars),
		slot:    slices.Grow(s.slot[:0], 4*vars+16),
		log:     s.log[:0],
		saved:   s.saved[:0],
		phis:    s.phis[:0],
		made:    s.made[:0],
		sites:   s.sites[:0],
		rets:    s.rets[:0],
		reached: slices.Grow(s.reached[:0], blocks),
		// The instruction buffers hold nothing from one use to the next.
		argBuf: s.argBuf, dstBuf: s.dstBuf, callArgs: s.callArgs[:0],
	}
}

// ops returns vals as an instruction's operand list, in a buffer the next
// instruction reuses.
func (s *scratch) ops(vals ...int32) []int32 {
	s.argBuf = append(s.argBuf[:0], vals...)
	return s.argBuf
}

// reserve takes a key for a temporary: a variable defined once, which needs
// no tracking.
func (lw *lowerer) reserve() int32 {
	key := lw.f.ReserveID()
	for int(key) >= len(lw.slot) {
		lw.slot = append(lw.slot, -1)
	}
	return key
}

// declare takes a key for a variable that may be assigned more than once.
func (lw *lowerer) declare(name string, t minic.Type) int32 {
	key := lw.reserve()
	lw.slot[key] = int32(len(lw.vars))
	lw.vars = append(lw.vars, variable{name: name, typ: t})
	return key
}

// v returns the state of declared variable key.
func (lw *lowerer) v(key int32) *variable { return &lw.vars[lw.slot[key]] }

// declared returns the state of variable key, nil for a temporary.
func (lw *lowerer) declared(key int32) *variable {
	if int(key) < len(lw.slot) && lw.slot[key] >= 0 {
		return &lw.vars[lw.slot[key]]
	}
	return nil
}

// define creates a definition of variable key and makes it the current one.
func (lw *lowerer) define(key int32) int32 {
	v := lw.v(key)
	d := lw.f.NewSSA(key, v.name, v.typ)
	lw.write(key, valDef(d))
	return d
}

func (lw *lowerer) write(key int32, d def) {
	v := lw.v(key)
	if lw.depth > 0 {
		lw.log = append(lw.log, keyDef{key, v.cur})
	}
	v.cur = d
}

// read returns the value variable key holds where the lowering is.
func (lw *lowerer) read(key int32) int32 {
	if !lw.live {
		// Unreachable code is pruned: any value of the type will do, and
		// none may get an ID for it.
		return lw.f.NewSSA(key, lw.v(key).name, lw.v(key).typ)
	}
	return lw.valueOf(key, lw.v(key).cur)
}

func (lw *lowerer) valueOf(key int32, d def) int32 {
	switch {
	case d.v > 0:
		return d.v - 1
	case d.phi > 0:
		return lw.phiValue(d.phi - 1)
	}
	v := lw.v(key)
	if v.undef == 0 {
		v.undef = 1 + lw.f.Undef(key, v.name, v.typ)
	}
	return v.undef - 1
}

// phiValue makes the φ phis[i] on its first read.
func (lw *lowerer) phiValue(i int32) int32 {
	p := &lw.phis[i]
	if p.dst < 0 {
		v := lw.v(p.key)
		p.dst = lw.f.NewSSA(p.key, v.name, v.typ)
		p.vals = []int32{lw.valueOf(p.key, p.args[0]), lw.valueOf(p.key, p.args[1])}
		lw.made = append(lw.made, i)
	}
	return p.dst
}

// enter makes b the block being lowered; every predecessor is complete by
// then. b is reachable when a predecessor is.
func (lw *lowerer) enter(b int32) {
	reached := b == lw.f.Entry || slices.ContainsFunc(lw.f.Preds(b), lw.reachable)
	for int(b) >= len(lw.reached) {
		lw.reached = append(lw.reached, false)
	}
	lw.reached[b] = reached
	lw.cur, lw.live = b, reached
}

func (lw *lowerer) reachable(b int32) bool {
	return int(b) < len(lw.reached) && lw.reached[b]
}

// openArm starts an arm of a join; closeArm ends it, returning what it wrote
// and restoring what held before.
func (lw *lowerer) openArm() int {
	lw.depth++
	return len(lw.log)
}

func (lw *lowerer) closeArm(mark int) span {
	lw.depth--
	from := len(lw.saved)
	lw.stamp++
	for i := len(lw.log) - 1; i >= mark; i-- {
		u := lw.log[i]
		v := lw.v(u.key)
		if v.stamp != lw.stamp {
			v.stamp = lw.stamp
			lw.saved = append(lw.saved, keyDef{u.key, v.cur})
		}
		v.cur = u.d
	}
	lw.log = lw.log[:mark]
	return span{from, len(lw.saved)}
}

// merge sets the state at join, which is being entered, from its reachable
// predecessors (two at most): an arm's end holds what the arm wrote, any
// other predecessor (the block that branched) what holds now.
func (lw *lowerer) merge(join int32, arms [2]arm) {
	if lw.live {
		var in [2][]keyDef
		n := 0
		for _, p := range lw.f.Preds(join) {
			if !lw.reachable(p) {
				continue
			}
			in[n] = nil
			for _, a := range arms {
				if a.end == p {
					in[n] = lw.saved[a.writes.from:a.writes.to]
				}
			}
			n++
		}
		if n == 1 {
			for _, kd := range in[0] {
				lw.write(kd.key, kd.d)
			}
		} else {
			lw.meetAll(join, in[0], in[1])
		}
	}
	lw.saved = lw.saved[:arms[0].writes.from]
}

// meetAll merges two predecessors' writes at join.
func (lw *lowerer) meetAll(join int32, a, b []keyDef) {
	lw.stamp++
	for _, kd := range a {
		lw.v(kd.key).other, lw.v(kd.key).stamp = kd.d, lw.stamp
	}
	for _, kd := range b {
		v := lw.v(kd.key)
		da := v.cur
		if v.stamp == lw.stamp {
			da, v.stamp = v.other, 0
		}
		lw.meet(join, kd.key, da, kd.d)
	}
	for _, kd := range a {
		if v := lw.v(kd.key); v.stamp == lw.stamp {
			lw.meet(join, kd.key, kd.d, v.cur)
		}
	}
}

// meet makes variable key hold a at join when b is the same, else a φ.
func (lw *lowerer) meet(join int32, key int32, a, b def) {
	if a == b {
		if a != lw.v(key).cur {
			lw.write(key, a)
		}
		return
	}
	lw.phis = append(lw.phis, phi{block: join, key: key, args: [2]def{a, b}, dst: -1})
	lw.write(key, def{phi: int32(len(lw.phis))})
}

// note records what φ placement reads of an instruction just emitted: the
// variables it reads before defining them in its block, and the blocks
// defining each variable.
func (lw *lowerer) note(in int32) {
	f := lw.f
	here := int32(-1)
	if lw.live {
		here = lw.cur + 1
		for _, a := range f.Args(in) {
			if v := lw.declared(f.ValueKey(a)); f.Value(a).Kind == ir.VVar && v != nil && v.defIn != here {
				v.global = true
			}
		}
	}
	if here < 0 {
		return
	}
	if f.In(in).Op != ir.OpCall {
		if d := f.In(in).Dst; d >= 0 {
			lw.noteDef(d, here)
		}
		return
	}
	for _, d := range f.Dsts(in) {
		if d >= 0 {
			lw.noteDef(d, here)
		}
	}
}

// noteDef records that value d is defined in block here-1.
func (lw *lowerer) noteDef(d int32, here int32) {
	key := lw.f.ValueKey(d)
	v := lw.declared(key)
	if v == nil || v.defIn == here {
		return
	}
	v.defIn = here
	v.blocks++
	switch v.blocks {
	case 1:
		v.first = here
		return
	case 2:
		lw.sites = append(lw.sites, site{key, v.first - 1})
	}
	lw.sites = append(lw.sites, site{key, here - 1})
}

// finish completes the function once its body is lowered: it resolves ret$
// at the exit block, seals the CFG (which drops the unreachable blocks),
// places the φs that were read and numbers every value.
func (lw *lowerer) finish() error {
	f := lw.f
	if lw.retKey >= 0 {
		lw.v(lw.retKey).global = true
		f.SetArg(lw.retIn, 0, lw.retValue())
	}
	lw.dropUnplaced()
	if err := f.SealCFG(); err != nil {
		return err
	}
	order, pre, last := lw.preorder()
	slots, err := lw.place(pre, last)
	if err != nil {
		return err
	}
	// Values are numbered in dominator-tree preorder: a block's φs, dead
	// ones too, by descending key, then the other definitions in order.
	for _, b := range order {
		at, _ := slices.BinarySearchFunc(slots, b, func(s phiSlot, id int32) int { return cmp.Compare(s.block, id) })
		for ; at < len(slots) && slots[at].block == b; at++ {
			if d := slots[at].dst; d >= 0 {
				lw.number(d)
			} else {
				lw.v(slots[at].key).version++
				f.ReserveID()
			}
		}
		for _, in := range f.Instrs(b) {
			switch r := f.In(in); {
			case r.Op == ir.OpPhi:
			case r.Op != ir.OpCall:
				if r.Dst >= 0 {
					lw.number(r.Dst)
				}
			default:
				for _, d := range f.Dsts(in) {
					if d >= 0 {
						lw.number(d)
					}
				}
			}
		}
	}
	return nil
}

func (lw *lowerer) number(d int32) {
	v := lw.declared(lw.f.ValueKey(d))
	if v == nil {
		lw.f.NumberSSA(d, 1)
		return
	}
	v.version++
	lw.f.NumberSSA(d, int(v.version))
}

// retValue is what ret$ holds at the exit block: a φ of the returned values
// when more than one return reaches it.
func (lw *lowerer) retValue() int32 {
	rets := lw.rets
	if len(rets) == 0 {
		return lw.valueOf(lw.retKey, def{})
	}
	if slices.IndexFunc(rets, func(d def) bool { return d != rets[0] }) < 0 {
		return lw.valueOf(lw.retKey, rets[0])
	}
	v := lw.v(lw.retKey)
	p := phi{block: lw.f.Exit, key: lw.retKey, dst: lw.f.NewSSA(lw.retKey, v.name, v.typ)}
	for _, d := range rets {
		p.vals = append(p.vals, lw.valueOf(lw.retKey, d))
	}
	lw.phis = append(lw.phis, p)
	lw.made = append(lw.made, int32(len(lw.phis)-1))
	return p.dst
}

// placed reports whether variable key gets φs: it is read outside the blocks
// defining it, and more than one block defines it (the semi-pruned rule).
func (v *variable) placed() bool { return v.global && v.blocks > 1 }

// dropUnplaced replaces the φs read of variables that get none by what such
// a read has always read: no definition.
func (lw *lowerer) dropUnplaced() {
	f := lw.f
	var gone []int32
	kept := lw.made[:0]
	for _, i := range lw.made {
		if p := &lw.phis[i]; lw.v(p.key).placed() {
			kept = append(kept, i)
		} else {
			gone = append(gone, p.dst)
		}
	}
	lw.made = kept
	if gone == nil {
		return
	}
	swap := func(vals []int32) {
		for i, a := range vals {
			if slices.Contains(gone, a) {
				vals[i] = lw.valueOf(f.ValueKey(a), def{})
			}
		}
	}
	for _, b := range f.Blocks() {
		for _, in := range f.Instrs(b) {
			swap(f.Args(in))
		}
	}
	for _, i := range lw.made {
		swap(lw.phis[i].vals)
	}
}

// phiSlot is a φ placement: a made φ (dst), or one that would be dead.
type phiSlot struct {
	block, key int32
	dst        int32 // -1: dead
}

// place creates the φs that were read, in the order the frontier worklist
// places them (variables by ascending key, each from its defining blocks,
// latest first), and takes an instruction ID for each placement no read
// asked for. It returns every placement by block, then descending key.
func (lw *lowerer) place(pre, last []int32) ([]phiSlot, error) {
	f := lw.f
	if len(lw.sites) == 0 && len(lw.made) == 0 {
		return nil, nil
	}
	dom := func(a, b int32) bool { return pre[a] <= pre[b] && pre[b] <= last[a] }
	var joins []int32
	for _, b := range f.Blocks() {
		if len(f.Preds(b)) > 1 {
			joins = append(joins, b)
		}
	}
	slices.SortFunc(lw.sites, func(a, b site) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.block, b.block)) })
	placedAt := make([]int32, f.NumBlocks())
	seen := make([]int32, f.NumBlocks())
	var slots []phiSlot
	var work []int32
	placedMade := 0
	for i := 0; i < len(lw.sites); {
		key := lw.sites[i].key
		j := i
		for j < len(lw.sites) && lw.sites[j].key == key {
			j++
		}
		work = work[:0]
		for _, s := range lw.sites[i:j] {
			work = append(work, s.block)
			seen[s.block] = key + 1
		}
		i = j
		if !lw.v(key).placed() {
			continue
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, w := range joins {
				if placedAt[w] == key+1 || dom(b, w) && b != w || !slices.ContainsFunc(f.Preds(w), func(p int32) bool { return dom(b, p) }) {
					continue
				}
				placedAt[w] = key + 1
				slot := phiSlot{block: w, key: key, dst: -1}
				if k := lw.madeAt(w, key); k >= 0 {
					p := &lw.phis[k]
					f.InsertAt(w, 0, ir.Spec{Op: ir.OpPhi, Dst: p.dst, Args: p.vals})
					slot.dst = p.dst
					placedMade++
				} else {
					f.ReserveInstrID()
				}
				slots = append(slots, slot)
				if seen[w] != key+1 {
					seen[w] = key + 1
					work = append(work, w)
				}
			}
		}
	}
	if placedMade != len(lw.made) {
		return nil, fmt.Errorf("internal: %d φs read, %d placed", len(lw.made), placedMade)
	}
	slices.SortFunc(slots, func(a, b phiSlot) int { return cmp.Or(cmp.Compare(a.block, b.block), cmp.Compare(b.key, a.key)) })
	return slots, nil
}

// madeAt returns the index of the made φ of variable key in block b, or -1.
func (lw *lowerer) madeAt(b int32, key int32) int32 {
	for _, i := range lw.made {
		if p := &lw.phis[i]; p.block == b && p.key == key {
			return i
		}
	}
	return -1
}

// preorder returns the blocks in dominator-tree preorder (children by
// ascending ID) and, by block ID, each block's preorder number and the
// largest one in its subtree: a dominates b exactly when pre[a] <= pre[b] <=
// last[a].
func (lw *lowerer) preorder() (order, pre, last []int32) {
	f := lw.f
	n := f.NumBlocks()
	layout := f.Blocks()
	nums := make([]int32, 4*n+len(layout))
	pre, last = nums[:n], nums[n:2*n]
	// Each block's children as a list through first and next, in
	// ascending ID order.
	first, next := nums[2*n:3*n], nums[3*n:4*n]
	for i := range first {
		first[i] = -1
	}
	for i := len(layout) - 1; i >= 0; i-- {
		b := layout[i]
		if d := f.Idom(b); d >= 0 {
			next[b], first[d] = first[d], b
		}
	}
	order = nums[4*n : 4*n : len(nums)]
	var visit func(b int32)
	visit = func(b int32) {
		pre[b] = int32(len(order))
		order = append(order, b)
		for c := first[b]; c >= 0; c = next[c] {
			visit(c)
		}
		last[b] = int32(len(order) - 1)
	}
	visit(f.Entry)
	return order, pre, last
}
