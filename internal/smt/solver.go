package smt

// Lazy DPLL(T) driver: the propositional core (sat.go) proposes a full
// assignment, the EUF and difference-bound layers check it, and a rejected
// assignment comes back as a blocking clause until one is accepted or none
// is left.

import (
	"sort"
	"time"
)

// Result is the verdict of a Check call.
type Result uint8

const (
	// Unsat means the asserted formulas have no model.
	Unsat Result = iota
	// Sat means a model was found that the theory layer accepts.
	Sat
	// Unknown means the budget was exhausted before a verdict.
	Unknown
)

func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// Solver is the public SMT interface. Assert formulas built from the
// solver's TermBuilder, then call Check.
type Solver struct {
	TB  *TermBuilder
	sat *SATSolver
	enc *cnfEncoder
	// TheoryConflicts counts blocking clauses added by the theory layer.
	TheoryConflicts int64
	asserted        []*Term

	// Observer, when non-nil, is invoked once at the end of every Check
	// with the call's verdict, wall time, and the SAT-core effort spent by
	// that call. It must be cheap; the solver holds no locks while calling
	// it. Leaving it nil keeps Check free of clock reads.
	Observer func(CheckInfo)
}

// CheckInfo summarizes one Check call for the Observer hook. The counter
// fields are deltas attributable to that call, not solver lifetime totals.
type CheckInfo struct {
	Result          Result
	Duration        time.Duration
	Decisions       int64
	Conflicts       int64
	TheoryConflicts int64
}

// NewSolver returns an empty solver with a fresh TermBuilder.
func NewSolver() *Solver {
	sat := NewSATSolver()
	return &Solver{TB: NewTermBuilder(), sat: sat, enc: newCNFEncoder(sat)}
}

// Assert conjoins t to the formula.
func (s *Solver) Assert(t *Term) {
	s.asserted = append(s.asserted, t)
	s.enc.assert(t)
}

// Asserted returns the formulas asserted so far, in order. The returned
// slice is owned by the solver.
func (s *Solver) Asserted() []*Term { return s.asserted }

// Reset returns the solver (including its TermBuilder) to the
// freshly-constructed state while retaining allocations for reuse. A
// reset solver reproduces a fresh solver's behavior exactly, term IDs
// included.
func (s *Solver) Reset() {
	s.sat.Reset()
	s.enc.reset()
	s.TB.Reset()
	s.TheoryConflicts = 0
	s.asserted = s.asserted[:0]
	s.Observer = nil
}

// BoolModel returns the truth assignment of every boolean variable atom
// after a Sat result. Unassigned variables are omitted. The model is a
// witness for the last Check call; it is meaningless after Unsat.
func (s *Solver) BoolModel() map[string]bool {
	out := make(map[string]bool)
	for v, t := range s.enc.atoms {
		if t.Kind != TVar || t.Sort != SortBool {
			continue
		}
		if s.sat.assign[v] == lUndef {
			continue
		}
		out[t.Name] = s.sat.ValueOf(v)
	}
	return out
}

// Check decides satisfiability of the asserted formulas.
func (s *Solver) Check() Result {
	if s.Observer == nil {
		return s.check()
	}
	start := time.Now()
	d0, c0, tc0 := s.sat.Decisions, s.sat.Conflicts, s.TheoryConflicts
	res := s.check()
	s.Observer(CheckInfo{
		Result:          res,
		Duration:        time.Since(start),
		Decisions:       s.sat.Decisions - d0,
		Conflicts:       s.sat.Conflicts - c0,
		TheoryConflicts: s.TheoryConflicts - tc0,
	})
	return res
}

// maxRounds bounds the theory-refinement loop; Check answers Unknown past it.
const maxRounds = 10000

func (s *Solver) check() Result {
	for round := 0; round < maxRounds; round++ {
		if !s.sat.Solve() {
			return Unsat
		}
		conflictLits, consistent := s.theoryCheck()
		if consistent {
			return Sat
		}
		s.TheoryConflicts++
		// Block this theory-inconsistent assignment. AddClause undoes the
		// search back to the root first, so the clause is judged against what
		// the formula forces, not against the rejected model's decisions.
		blocking := make([]Lit, len(conflictLits))
		for i, l := range conflictLits {
			blocking[i] = l.Neg()
		}
		if !s.sat.AddClause(blocking...) {
			return Unsat
		}
	}
	return Unknown
}

// theoryCheck inspects the current full propositional model, gathers the
// asserted theory atoms with their polarities, and checks EUF + difference
// consistency. On inconsistency it returns the SAT literals of a
// conservative explanation.
func (s *Solver) theoryCheck() ([]Lit, bool) {
	type polAtom struct {
		t   *Term
		pos bool
		v   int
	}
	// Iterate atoms in SAT-variable order: the order determines which
	// conflict explanation (blocking clause) is found first, and through it
	// the final model, so it must not depend on map iteration order.
	vars := make([]int, 0, len(s.enc.atoms))
	for v := range s.enc.atoms {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	var atoms []polAtom
	for _, v := range vars {
		if s.sat.assign[v] == lUndef {
			continue
		}
		atoms = append(atoms, polAtom{t: s.enc.atoms[v], pos: s.sat.ValueOf(v), v: v})
	}

	// EUF: equalities and disequalities over any sort.
	var eqs, neqs [][2]*Term
	var eufLits []Lit
	for _, a := range atoms {
		if a.t.Kind != TEq {
			continue
		}
		pair := [2]*Term{a.t.Args[0], a.t.Args[1]}
		if a.pos {
			eqs = append(eqs, pair)
			eufLits = append(eufLits, Lit(a.v))
		} else {
			neqs = append(neqs, pair)
			eufLits = append(eufLits, Lit(-a.v))
		}
	}
	if !eufCheck(eqs, neqs) {
		return eufLits, false
	}

	// Difference bounds over integer comparisons (including equalities,
	// which contribute two inequalities each).
	var lits []arithLit
	var litSATLits []Lit
	for _, a := range atoms {
		switch a.t.Kind {
		case TEq, TLt, TLe:
			if a.t.Args[0].Sort != SortInt {
				continue
			}
			lits = append(lits, arithLit{t: a.t, positive: a.pos, index: len(litSATLits)})
			if a.pos {
				litSATLits = append(litSATLits, Lit(a.v))
			} else {
				litSATLits = append(litSATLits, Lit(-a.v))
			}
		}
	}
	if ok, core := arithCheck(lits); !ok {
		var out []Lit
		seen := map[Lit]bool{}
		for _, i := range core {
			l := litSATLits[i]
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
		if len(out) == 0 {
			out = litSATLits
		}
		return out, false
	}

	// Combined pass: equalities imply arithmetic equalities and vice
	// versa. A lightweight Nelson–Oppen-style exchange: propagate EUF
	// equalities into the difference solver by re-running it with
	// x - y <= 0 and y - x <= 0 for each merged pair. This is already
	// covered above because TEq atoms feed both solvers.
	return nil, true
}
