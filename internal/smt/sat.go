package smt

// CDCL SAT solver: conflict-driven clause learning with two-watched-literal
// propagation, first-UIP learning, VSIDS branching with phase saving, and
// Luby-sequence restarts. Variables are 1-based; literals use the usual
// +v / -v integer encoding.

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

type clause struct {
	lits    []Lit
	learned bool
	act     float64
}

// SATSolver is a CDCL solver instance. Add variables with NewVar, clauses
// with AddClause, and call Solve (optionally with assumptions).
type SATSolver struct {
	clauses  []*clause
	watches  map[Lit][]*clause
	assign   []lbool // indexed by variable
	level    []int
	reason   []*clause
	phase    []bool
	activity []float64
	varInc   float64

	trail    []Lit
	trailLim []int
	qhead    int

	order   *varHeap
	nVars   int
	rootCtx []Lit // assumption literals of the active Solve call

	// Stats for the harness.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learned      int64
}

// NewSATSolver returns an empty solver.
func NewSATSolver() *SATSolver {
	s := &SATSolver{
		watches: make(map[Lit][]*clause),
		varInc:  1.0,
	}
	// Index 0 unused.
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.order = newVarHeap(&s.activity)
	return s
}

// NewVar allocates a fresh variable and returns its index (>= 1).
func (s *SATSolver) NewVar() int {
	s.nVars++
	v := s.nVars
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.order.push(v)
	return v
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

// AddClause adds a problem clause. It returns false if the clause makes the
// formula trivially unsatisfiable at the root level.
func (s *SATSolver) AddClause(lits ...Lit) bool {
	// Deduplicate; drop tautologies and false literals at root level.
	seen := make(map[Lit]bool, len(lits))
	var out []Lit
	for _, l := range lits {
		if seen[l] {
			continue
		}
		if seen[l.Neg()] {
			return true // tautology
		}
		switch s.value(l) {
		case lTrue:
			if s.level[l.Var()] == 0 {
				return true // already satisfied forever
			}
		case lFalse:
			if s.level[l.Var()] == 0 {
				continue // falsified forever
			}
		}
		seen[l] = true
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		return false
	case 1:
		if s.value(out[0]) == lFalse {
			return false
		}
		if s.value(out[0]) == lUndef {
			s.enqueue(out[0], nil)
		}
		return s.propagate() == nil
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *SATSolver) watch(c *clause) {
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], c)
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
}

func (s *SATSolver) enqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assign[v] = lTrue
	} else {
		s.assign[v] = lFalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.phase[v] = l.Sign()
	s.trail = append(s.trail, l)
}

func (s *SATSolver) decisionLevel() int { return len(s.trailLim) }

// propagate runs unit propagation; it returns the conflicting clause or nil.
func (s *SATSolver) propagate() *clause {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		ws := s.watches[l]
		kept := ws[:0]
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if conflict != nil {
				kept = append(kept, c)
				continue
			}
			// Normalize: the falsified watch at position 1.
			if c.lits[0].Neg() == l {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, c)
			if s.value(c.lits[0]) == lFalse {
				conflict = c
				continue
			}
			s.enqueue(c.lits[0], c)
		}
		s.watches[l] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis; it returns the learned
// clause (with the asserting literal first) and the backjump level.
func (s *SATSolver) analyze(conflict *clause) ([]Lit, int) {
	learned := []Lit{0} // slot 0 for the asserting literal
	seen := make(map[int]bool)
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	c := conflict

	for {
		start := 0
		if p != 0 {
			start = 1 // skip the asserting literal of the reason
		}
		if c.learned {
			s.bumpClause(c)
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		seen[p.Var()] = false
		idx--
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learned[0] = p.Neg()

	// Backjump level: second-highest level in the clause.
	bl := 0
	if len(learned) > 1 {
		maxI := 1
		for i := 2; i < len(learned); i++ {
			if s.level[learned[i].Var()] > s.level[learned[maxI].Var()] {
				maxI = i
			}
		}
		learned[1], learned[maxI] = learned[maxI], learned[1]
		bl = s.level[learned[1].Var()]
	}
	return learned, bl
}

func (s *SATSolver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *SATSolver) bumpClause(c *clause) { c.act++ }

func (s *SATSolver) decayVar() { s.varInc /= 0.95 }

func (s *SATSolver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *SATSolver) pickBranchLit() Lit {
	for {
		v := s.order.pop()
		if v == 0 {
			return 0
		}
		if s.assign[v] == lUndef {
			if s.phase[v] {
				return Lit(v)
			}
			return Lit(-v)
		}
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int) int64 {
	// Find the subsequence: k such that i = 2^k - 1 -> 2^(k-1).
	k := 1
	for p := int64(2); ; p *= 2 {
		if int64(i) == p-1 {
			return p / 2
		}
		if int64(i) < p-1 {
			return luby(i - int(p/2) + 1)
		}
		k++
		_ = k
	}
}

// Reset returns the solver to its freshly-constructed state while keeping
// the backing allocations (clause slice, watch map, trail) for reuse. A
// reset solver behaves identically to a new one.
func (s *SATSolver) Reset() {
	s.clauses = s.clauses[:0]
	clear(s.watches)
	s.assign = s.assign[:1]
	s.level = s.level[:1]
	s.reason = s.reason[:1]
	s.phase = s.phase[:1]
	s.activity = s.activity[:1]
	s.varInc = 1.0
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.order.reset()
	s.nVars = 0
	s.rootCtx = nil
	s.Conflicts, s.Decisions, s.Propagations, s.Learned = 0, 0, 0, 0
}

// Solve decides satisfiability under the given assumptions. It returns
// (true, nil) when satisfiable, and (false, conflictSubset) when not, where
// conflictSubset is the subset of assumptions used in the refutation (may be
// empty when the formula is unsatisfiable on its own).
func (s *SATSolver) Solve(assumptions ...Lit) (bool, []Lit) {
	s.cancelUntil(0)
	if s.propagate() != nil {
		return false, nil
	}
	s.rootCtx = assumptions

	restart := 1
	conflictBudget := 64 * luby(restart)
	conflictsHere := int64(0)

	for {
		conflict := s.propagate()
		if conflict != nil {
			s.Conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				return false, nil
			}
			// Conflicts at assumption levels: extract the failing
			// assumption set.
			learned, bl := s.analyze(conflict)
			if bl < len(s.rootCtx) {
				// Backjumping below an assumption level: the
				// assumptions themselves conflict.
				core := s.assumptionCore(conflict)
				s.cancelUntil(0)
				return false, core
			}
			s.cancelUntil(bl)
			c := &clause{lits: learned, learned: true}
			s.Learned++
			if len(learned) == 1 {
				s.enqueue(learned[0], nil)
			} else {
				s.clauses = append(s.clauses, c)
				s.watch(c)
				s.enqueue(learned[0], c)
			}
			s.decayVar()
			if conflictsHere > conflictBudget {
				restart++
				conflictBudget = 64 * luby(restart)
				conflictsHere = 0
				s.cancelUntil(len(s.rootCtx))
			}
			continue
		}

		// Place pending assumptions as decision levels.
		if s.decisionLevel() < len(s.rootCtx) {
			a := s.rootCtx[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already implied; introduce an empty level.
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				core := s.analyzeFinal(a)
				s.cancelUntil(0)
				return false, core
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(a, nil)
			}
			continue
		}

		l := s.pickBranchLit()
		if l == 0 {
			return true, nil
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, nil)
	}
}

// assumptionCore conservatively reports all assumptions as the core when a
// conflict reaches the assumption levels.
func (s *SATSolver) assumptionCore(conflict *clause) []Lit {
	return append([]Lit(nil), s.rootCtx...)
}

// analyzeFinal computes the subset of assumptions implying the negation of
// a, for the case where assumption a is already falsified.
func (s *SATSolver) analyzeFinal(a Lit) []Lit {
	seen := map[int]bool{a.Var(): true}
	var core []Lit
	core = append(core, a)
	for i := len(s.trail) - 1; i >= 0; i-- {
		v := s.trail[i].Var()
		if !seen[v] {
			continue
		}
		if s.reason[v] == nil {
			if s.level[v] > 0 {
				core = append(core, s.trail[i])
			}
		} else {
			for _, q := range s.reason[v].lits[1:] {
				if s.level[q.Var()] > 0 {
					seen[q.Var()] = true
				}
			}
		}
	}
	return core
}

// ValueOf returns the model value of variable v after a satisfiable Solve.
func (s *SATSolver) ValueOf(v int) bool { return s.assign[v] == lTrue }

// varHeap is a max-heap of variables ordered by activity.
type varHeap struct {
	act   *[]float64
	heap  []int
	index map[int]int
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act, index: make(map[int]int)}
}

func (h *varHeap) less(i, j int) bool {
	return (*h.act)[h.heap[i]] > (*h.act)[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.index[h.heap[i]] = i
	h.index[h.heap[j]] = j
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *varHeap) push(v int) {
	if _, ok := h.index[v]; ok {
		return
	}
	h.heap = append(h.heap, v)
	h.index[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) reset() {
	h.heap = h.heap[:0]
	clear(h.index)
}

func (h *varHeap) pop() int {
	if len(h.heap) == 0 {
		return 0
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	delete(h.index, v)
	if last > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if i, ok := h.index[v]; ok {
		h.up(i)
		h.down(h.index[v])
		_ = i
	}
}
