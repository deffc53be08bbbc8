package cond

import "slices"

// This file implements the linear-time contradiction solver of Pinpoint
// §3.1.1. The solver collects, for a condition C, the sets P(C) and N(C) of
// atoms that appear positively resp. negatively along every disjunct:
//
//	C = a        =>  P = {a},          N = {}
//	C = !C1      =>  P = N(C1),        N = P(C1)
//	C = C1 & C2  =>  P = P1 ∪ P2,      N = N1 ∪ N2
//	C = C1 | C2  =>  P = P1 ∩ P2,      N = N1 ∩ N2
//
// If P(C) ∩ N(C) is non-empty then C contains an "apparent contradiction"
// a & !a and is unsatisfiable. The converse does not hold: the solver is a
// cheap filter, not a decision procedure. Per the paper's observation, the
// vast majority (>90%) of unsatisfiable path conditions arising during the
// local points-to analysis are of this easy form, so filtering them here
// avoids invoking the SMT solver at SEG-construction time entirely.

// atomSet is an immutable set of atom IDs: the sorted run atoms[lo:hi] of its
// solver. Runs are shared between memoized results (a union that adds nothing
// to an operand's set is that operand's run), so they are never written after
// they are appended.
type atomSet struct{ lo, hi int32 }

func (s atomSet) len() int { return int(s.hi - s.lo) }

type pnSets struct {
	p, n  atomSet
	known bool
}

// LinearSolver decides "apparent unsatisfiability" of conditions in time
// linear in the number of distinct nodes. Results are memoized per node, so
// repeated queries over a growing condition (the common pattern during
// points-to analysis, where guards are extended by one conjunct at a time)
// stay cheap.
//
// The memo is a slice indexed by node ID and every set is a run of one array
// of atom IDs: a solver holds three arrays however many nodes it has seen.
type LinearSolver struct {
	memo  []pnSets
	atoms []int
	// scratch is where an n-ary node's set is assembled before it is
	// appended to atoms.
	scratch []int
	// Stats counts queries and how many were filtered as unsat; the
	// ablation benchmark reports these to validate the paper's ">90% of
	// unsat constraints are easy" observation.
	Queries int
	Unsat   int
}

// NewLinearSolver returns an empty solver. A solver may be shared across all
// conditions of one Builder.
func NewLinearSolver() *LinearSolver { return &LinearSolver{} }

func (ls *LinearSolver) run(s atomSet) []int { return ls.atoms[s.lo:s.hi] }

// put returns the set of the atoms in sorted: the run of one of same when
// that set is as large (each of same is a subset or a superset of the result,
// so it is the result), else a new run.
func (ls *LinearSolver) put(sorted []int, same ...atomSet) atomSet {
	if len(sorted) == 0 {
		return atomSet{}
	}
	for _, s := range same {
		if s.len() == len(sorted) {
			return s
		}
	}
	lo := int32(len(ls.atoms))
	ls.atoms = append(ls.atoms, sorted...)
	return atomSet{lo, int32(len(ls.atoms))}
}

func (ls *LinearSolver) sets(c *Cond) pnSets {
	if c.id < len(ls.memo) && ls.memo[c.id].known {
		return ls.memo[c.id]
	}
	var r pnSets
	switch c.kind {
	case KAtom:
		r.p = ls.put([]int{c.atom})
	case KNot:
		s := ls.sets(c.ops[0])
		r = pnSets{p: s.n, n: s.p}
	case KAnd, KOr:
		// The operands first, so that combine only reads the memo.
		for _, op := range c.ops {
			ls.sets(op)
		}
		r.p = ls.combine(c.kind, c.ops, func(s pnSets) atomSet { return s.p })
		r.n = ls.combine(c.kind, c.ops, func(s pnSets) atomSet { return s.n })
	}
	r.known = true
	if c.id >= len(ls.memo) {
		ls.memo = append(ls.memo, make([]pnSets, c.id+1-len(ls.memo))...)
	}
	ls.memo[c.id] = r
	return r
}

// combine returns the union (KAnd) or the intersection (KOr) of one side of
// the operands' memoized sets.
func (ls *LinearSolver) combine(k Kind, ops []*Cond, side func(pnSets) atomSet) atomSet {
	var few [8]atomSet
	sets := few[:0]
	for _, op := range ops {
		sets = append(sets, side(ls.memo[op.id]))
	}
	out := ls.scratch[:0]
	if k == KAnd {
		for _, s := range sets {
			out = append(out, ls.run(s)...)
		}
		slices.Sort(out)
		out = slices.Compact(out)
	} else {
		// The atoms of the first set every other set holds too.
	next:
		for _, a := range ls.run(sets[0]) {
			for _, s := range sets[1:] {
				if _, found := slices.BinarySearch(ls.run(s), a); !found {
					continue next
				}
			}
			out = append(out, a)
		}
	}
	ls.scratch = out
	return ls.put(out, sets...)
}

// intersects reports whether two sorted runs share an atom.
func intersects(s, t []int) bool {
	for len(s) > 0 && len(t) > 0 {
		switch {
		case s[0] < t[0]:
			s = s[1:]
		case s[0] > t[0]:
			t = t[1:]
		default:
			return true
		}
	}
	return false
}

// ApparentlyUnsat reports whether c is unsatisfiable by the P/N contradiction
// rule. A false result means "possibly satisfiable".
func (ls *LinearSolver) ApparentlyUnsat(c *Cond) bool {
	ls.Queries++
	if c.IsFalse() {
		ls.Unsat++
		return true
	}
	if c.IsTrue() {
		return false
	}
	s := ls.sets(c)
	if intersects(ls.run(s.p), ls.run(s.n)) {
		ls.Unsat++
		return true
	}
	return false
}

// AndFeasible conjoins the given conditions and returns the result together
// with a feasibility verdict from the linear filter. It is the workhorse of
// the quasi path-sensitive points-to analysis: guards judged apparently
// unsatisfiable are pruned without ever reaching the SMT solver.
func (ls *LinearSolver) AndFeasible(b *Builder, cs ...*Cond) (*Cond, bool) {
	c := b.And(cs...)
	if ls.ApparentlyUnsat(c) {
		return b.False(), false
	}
	return c, true
}
