package smt

// Propositional core: two-watched-literal unit propagation under a plain,
// complete DPLL search with chronological backtracking. The queries that
// reach it are a handful of variables and are almost always decided by
// propagation alone (DESIGN.md, "SMT query elimination", has the census),
// so there is no clause learning, no branching heuristic and no restart:
// the search branches on the lowest-numbered unassigned variable, false
// first. Variables are numbered by the Tseitin encoder in the order it first
// meets their terms, a connective before its arguments, which makes the
// branching order — and so the model a satisfiable query yields — a function
// of the asserted formulas alone.
//
// Variables are 1-based; literals use the usual +v / -v integer encoding.

// Lit is a propositional literal: +v or -v for variable v >= 1.
type Lit int

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l > 0 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// clause is a disjunction of at least two literals; positions 0 and 1 are
// the watched ones. Watch lists share the backing array, so reordering a
// clause in one list reorders it in the other.
type clause []Lit

// SATSolver is a DPLL solver instance. Add variables with NewVar and clauses
// with AddClause, then call Solve.
type SATSolver struct {
	watches map[Lit][]clause // literal l -> clauses watching l.Neg()
	assign  []lbool          // indexed by variable; index 0 unused
	nVars   int

	// trail holds the assigned literals in assignment order; trailLim[i] is
	// the trail position of the decision that opened level i+1. Everything
	// below trailLim[0] follows from the clauses alone.
	trail    []Lit
	trailLim []int
	qhead    int // next trail position to propagate

	// unsat is set once the clauses are refuted at the root level; every
	// later AddClause and Solve reports it.
	unsat bool

	// Search effort, for the observer: both are zero for a query that unit
	// propagation decides.
	Decisions int64
	Conflicts int64
}

// NewSATSolver returns an empty solver.
func NewSATSolver() *SATSolver {
	return &SATSolver{
		watches: make(map[Lit][]clause),
		assign:  []lbool{lUndef},
	}
}

// NewVar allocates a fresh variable and returns its index (>= 1).
func (s *SATSolver) NewVar() int {
	s.nVars++
	s.assign = append(s.assign, lUndef)
	return s.nVars
}

func (s *SATSolver) value(l Lit) lbool {
	a := s.assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if (a == lTrue) == l.Sign() {
		return lTrue
	}
	return lFalse
}

// AddClause adds a problem clause. Clauses live at the root level: any
// search state left by an earlier Solve — its decisions and, with them, its
// model — is undone first, so a literal that was false only under a decision
// is never mistaken for one that is false for good. It returns false once
// the clauses are unsatisfiable by propagation alone.
func (s *SATSolver) AddClause(lits ...Lit) bool {
	s.cancelUntil(0)
	if s.unsat {
		return false
	}
	out := make(clause, 0, len(lits))
next:
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true // already satisfied
		case lFalse:
			continue // cannot help
		}
		for _, o := range out {
			if o == l {
				continue next
			}
			if o == l.Neg() {
				return true // tautology
			}
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.unsat = true
	case 1:
		s.enqueue(out[0])
		s.unsat = s.propagate()
	default:
		s.watches[out[0].Neg()] = append(s.watches[out[0].Neg()], out)
		s.watches[out[1].Neg()] = append(s.watches[out[1].Neg()], out)
	}
	return !s.unsat
}

func (s *SATSolver) enqueue(l Lit) {
	if l.Sign() {
		s.assign[l.Var()] = lTrue
	} else {
		s.assign[l.Var()] = lFalse
	}
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation to a fixpoint and reports whether some
// clause ended up with every literal false.
func (s *SATSolver) propagate() (conflict bool) {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[l]
		kept := ws[:0]
		for i, c := range ws {
			// Normalize: the falsified watch at position 1.
			if c[0].Neg() == l {
				c[0], c[1] = c[1], c[0]
			}
			if s.value(c[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			moved := false
			for k := 2; k < len(c); k++ {
				if s.value(c[k]) != lFalse {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1].Neg()] = append(s.watches[c[1].Neg()], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, c)
			if s.value(c[0]) == lFalse {
				s.watches[l] = append(kept, ws[i+1:]...)
				return true
			}
			s.enqueue(c[0]) // c is unit
		}
		s.watches[l] = kept
	}
	return false
}

// cancelUntil undoes every assignment made above decision level lvl.
func (s *SATSolver) cancelUntil(lvl int) {
	if len(s.trailLim) <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for _, l := range s.trail[bound:] {
		s.assign[l.Var()] = lUndef
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = bound
}

// Solve decides satisfiability of the clauses added so far. On true, every
// variable is assigned and ValueOf reads the model, which stands until the
// next AddClause or Solve.
//
// The search is depth-first. After propagation settles without a conflict it
// opens a level by deciding the lowest-numbered unassigned variable false. A
// conflict refutes the innermost decision d given the levels beneath it, so
// that level is undone and d's complement asserted as a consequence of the
// level below; it is retracted in turn when that level is. A conflict with
// no decision open refutes the clauses.
func (s *SATSolver) Solve() bool {
	s.cancelUntil(0)
	for !s.unsat {
		if s.propagate() {
			s.Conflicts++
			open := len(s.trailLim)
			if open == 0 {
				s.unsat = true
				break
			}
			d := s.trail[s.trailLim[open-1]]
			s.cancelUntil(open - 1)
			s.enqueue(d.Neg())
			continue
		}
		v := 1
		for v <= s.nVars && s.assign[v] != lUndef {
			v++
		}
		if v > s.nVars {
			return true
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(Lit(-v))
	}
	return false
}

// ValueOf returns the model value of variable v after a satisfiable Solve.
func (s *SATSolver) ValueOf(v int) bool { return s.assign[v] == lTrue }

// Reset returns the solver to its freshly-constructed state while keeping
// the backing allocations (watch map, assignment, trail) for reuse. A reset
// solver behaves identically to a new one.
func (s *SATSolver) Reset() {
	clear(s.watches)
	s.assign = s.assign[:1]
	s.nVars = 0
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.unsat = false
	s.Decisions, s.Conflicts = 0, 0
}
