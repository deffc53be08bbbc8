package smt

// Tseitin transformation: translate a boolean term DAG into CNF clauses
// over SAT variables, introducing one proxy variable per boolean subterm.
// Theory atoms (equalities, inequalities, boolean variables, boolean-sorted
// applications) become SAT variables whose meaning the theory layer checks.

// cnfEncoder maps boolean structure to clauses and atoms to SAT variables.
type cnfEncoder struct {
	sat   *SATSolver
	vars  map[int]int   // term id -> SAT var
	atoms map[int]*Term // SAT var -> atom term
}

func newCNFEncoder(sat *SATSolver) *cnfEncoder {
	return &cnfEncoder{
		sat:   sat,
		vars:  make(map[int]int),
		atoms: make(map[int]*Term),
	}
}

func (e *cnfEncoder) reset() {
	clear(e.vars)
	clear(e.atoms)
}

// isAtom reports whether a boolean term is opaque to the propositional
// layer (no boolean connective structure).
func isAtom(t *Term) bool {
	switch t.Kind {
	case TVar, TEq, TLt, TLe, TApp:
		return true
	}
	return false
}

// lit returns a SAT literal equivalent to t (which must be boolean and not
// a constant), emitting Tseitin clauses for subterm structure on demand.
func (e *cnfEncoder) lit(t *Term) Lit {
	switch t.Kind {
	case TNot:
		return e.lit(t.Args[0]).Neg()
	case TBoolConst:
		// Encode constants as a fixed variable forced at root level.
		v := e.varFor(t)
		if t.Int == 1 {
			e.sat.AddClause(Lit(v))
		} else {
			e.sat.AddClause(Lit(-v))
		}
		return Lit(v)
	}
	if v, ok := e.vars[t.id]; ok {
		return Lit(v)
	}
	v := e.sat.NewVar()
	e.vars[t.id] = v
	p := Lit(v)
	switch {
	case isAtom(t):
		e.atoms[v] = t
	case t.Kind == TAnd:
		// p <-> a1 & ... & an
		var all []Lit
		for _, a := range t.Args {
			la := e.lit(a)
			e.sat.AddClause(p.Neg(), la) // p -> ai
			all = append(all, la.Neg())
		}
		e.sat.AddClause(append(all, p)...) // a1&..&an -> p
	case t.Kind == TOr:
		var all []Lit
		for _, a := range t.Args {
			la := e.lit(a)
			e.sat.AddClause(p, la.Neg()) // ai -> p
			all = append(all, la)
		}
		e.sat.AddClause(append(all, p.Neg())...) // p -> a1|..|an
	default:
		// Unexpected boolean structure: treat as opaque atom.
		e.atoms[v] = t
	}
	return p
}

func (e *cnfEncoder) varFor(t *Term) int {
	if v, ok := e.vars[t.id]; ok {
		return v
	}
	v := e.sat.NewVar()
	e.vars[t.id] = v
	return v
}

// assert adds the clauses forcing t to hold.
func (e *cnfEncoder) assert(t *Term) {
	switch {
	case t.IsTrue():
	case t.IsFalse():
		e.sat.AddClause() // empty clause: unsat
	case t.Kind == TAnd:
		// Top-level conjunctions assert each conjunct directly — cheaper
		// than forcing the proxy.
		for _, a := range t.Args {
			e.assert(a)
		}
	default:
		e.sat.AddClause(e.lit(t))
	}
}
