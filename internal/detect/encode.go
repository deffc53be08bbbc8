package detect

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/seg"
	"repro/internal/smt"
)

// checkCandidate builds and solves the SMT query for the candidate path the
// engine stands at the end of (e.path) — the realization of Equations 1–3 of
// the paper:
//
//   - CD(v@s) for every step's statement (control dependence);
//   - v(i-1) = v(i) for equality-preserving flow steps;
//   - the Ld edge labels (already folded into the per-instance conditions
//     during the search);
//   - DD(·) closures for every mentioned value, recursively and memoized;
//   - actual=formal / return=receiver equalities at context boundaries.
//
// All variables are renamed per context instance, which is exactly the
// cloning-based context sensitivity of §3.3.1(2).
//
// It returns the verdict, the witness of a Sat one, the number of terms
// asserted and the step that answered, and counts the query into stats (and,
// under the checker's name, into the recorder).
func (e *Engine) checkCandidate(checker string, stats *Stats) (smt.Result, []string, int, VerdictSource) {
	start := time.Now()
	c := &e.path

	s := e.querySolver()
	enc := newEncoder(e.prog, s.TB, smtBudget)
	for inst, ic := range c.conds {
		if ic.fn != nil {
			enc.instG[inst] = e.prog.SEG(ic.fn)
		}
	}
	for _, st := range c.steps {
		if _, ok := enc.instG[st.inst]; !ok {
			// Instance without extra conditions: derive from the step's
			// vertex (when it has an instruction: a value vertex's is the
			// value's definition).
			if st.instr() >= 0 {
				enc.instG[st.inst] = st.g
			}
		}
	}

	// Per-instance accumulated conditions (edge labels + CDs collected
	// during the search) plus their DD closures. Instances are asserted in
	// ascending order: the assertion order fixes CNF variable numbering and
	// hence the SAT search, keeping witnesses reproducible run to run.
	for inst, ic := range c.conds {
		if ic.fn != nil {
			enc.assertCond(inst, enc.instG[inst], ic.cond)
		}
	}

	// Equality chain along the path. Equality holds for steps whose
	// receiving value is defined by an equality-preserving instruction
	// (copy, φ, load); operator results relate by DD instead.
	for i := 1; i < len(c.steps); i++ {
		prev, cur := c.steps[i-1], c.steps[i]
		if prev.inst != cur.inst {
			continue // boundaries carry their own equalities
		}
		if prev.kind() != seg.NValue || cur.kind() != seg.NValue {
			continue
		}
		pv, cv := prev.val(), cur.val()
		def := cur.g.Value(cv).Def
		if def < 0 {
			continue
		}
		switch cur.g.In(def).Op {
		case ir.OpCopy, ir.OpPhi, ir.OpLoad:
			a := enc.valueTerm(prev.inst, prev.g, pv)
			b := enc.valueTerm(cur.inst, cur.g, cv)
			if a.Sort == b.Sort {
				enc.add(enc.tb.Eq(a, b))
			}
			enc.emitDD(prev.inst, prev.g, pv)
			enc.emitDD(cur.inst, cur.g, cv)
		}
	}

	// Boundary equalities.
	for _, bd := range c.bounds {
		if !bd.equality {
			continue
		}
		a := enc.valueTerm(bd.instA, bd.gA, bd.valA)
		b := enc.valueTerm(bd.instB, bd.gB, bd.valB)
		if a.Sort == b.Sort {
			enc.add(enc.tb.Eq(a, b))
		}
		enc.emitDD(bd.instA, bd.gA, bd.valA)
		enc.emitDD(bd.instB, bd.gB, bd.valB)
	}

	// Control dependence of every step statement (use vertices and value
	// definitions alike), with DD of the controlling atoms.
	for _, st := range c.steps {
		in := st.instr()
		if in < 0 {
			continue
		}
		if g := enc.instG[st.inst]; g != nil {
			enc.assertCond(st.inst, g, g.CD(in))
		}
	}

	res, model, src := enc.decide(s, e.opts, checker, e.tid, start, stats)
	var witness []string
	if res == smt.Sat {
		witness = extractWitness(model, enc)
	}
	return res, witness, len(enc.terms), src
}

// decide answers the encoded query in the paper's two steps (§3.1.1): the
// linear-time contradiction filter (smt.Prefilter, which only ever answers
// Unsat), then assert-and-Check on s for the residue. s must be in its
// freshly-constructed or post-Reset state with e.tb == s.TB. It returns the
// verdict, the boolean model for Sat (nil otherwise) and the step that
// answered.
//
// start is when the caller began encoding. The one duration measured from
// it feeds stats.SMTTime and — for queries that entered the DPLL(T) loop;
// prefiltered ones land on their own counter — the smt.query_ns histogram
// and the trace span on track tid, so the three always agree.
func (e *encoder) decide(s *smt.Solver, opts Options, checker string, tid int, start time.Time, stats *Stats) (smt.Result, map[string]bool, VerdictSource) {
	rec := opts.Obs
	res, src := smt.Unsat, VerdictPrefilter
	var model map[string]bool
	if opts.DisableSMTPrefilter || smt.Prefilter(e.terms) != smt.Unsat {
		if rec != nil {
			s.Observer = smtObserver(rec)
		}
		for _, t := range e.terms {
			s.Assert(t)
		}
		res, src = s.Check(), VerdictSolved
		if res == smt.Sat {
			model = s.BoolModel()
		}
	}

	d := time.Since(start)
	stats.SMTQueries++
	stats.SMTTime += d
	switch res {
	case smt.Sat:
		stats.SMTSat++
	case smt.Unsat:
		stats.SMTUnsat++
	default:
		stats.SMTUnknown++
	}
	if src == VerdictPrefilter {
		stats.SMTPrefilterUnsat++
		rec.Counter("smt.prefilter_unsat").Inc()
	} else {
		stats.SMTSolved++
		rec.Histogram("smt.query_ns").Observe(int64(d))
		if rec.Tracing() {
			rec.Event(tid, "smt", start, d, obs.Arg{Key: "checker", Val: checker})
		}
	}
	return res, model, src
}

// smtObserver adapts a recorder to the smt.Solver observer hook, feeding
// the SAT-core effort counters and per-verdict counts into the registry.
func smtObserver(rec *obs.Recorder) func(smt.CheckInfo) {
	return func(ci smt.CheckInfo) {
		rec.Counter("smt.decisions").Add(ci.Decisions)
		rec.Counter("smt.conflicts").Add(ci.Conflicts)
		rec.Counter("smt.theory_conflicts").Add(ci.TheoryConflicts)
		rec.Counter("smt.result." + ci.Result.String()).Inc()
	}
}

// extractWitness renders the model of the branch atoms as trigger hints,
// sorted for determinism.
func extractWitness(model map[string]bool, enc *encoder) []string {
	var out []string
	for name, origin := range enc.atoms {
		v, ok := model[name]
		if !ok {
			continue
		}
		out = append(out, fmt.Sprintf("%s@%s#%d = %v", origin.g.ValueName(origin.val), origin.g.Name(), origin.inst, v))
	}
	sort.Strings(out)
	return out
}

type ddKey struct {
	inst int
	vid  int
}

type cdKey struct {
	inst int
	cid  int
}

type encoder struct {
	prog *Program
	// tb builds terms; terms accumulates the assertion sequence. The
	// encoder defers asserting into a solver so decide can prefilter the
	// sequence before any CNF is built; it asserts in exactly this order.
	tb     *smt.TermBuilder
	terms  []*smt.Term
	ddDone map[ddKey]bool
	cdDone map[cdKey]bool
	budget int
	// instG holds the graph of each context instance's function.
	instG map[int]*seg.Graph
	// atoms maps SMT variable names of branch atoms back to the program
	// value and context they came from, for witness extraction.
	atoms map[string]atomOrigin
}

// newEncoder returns an empty encoder building terms with tb; budget bounds
// the DD constraints it emits.
func newEncoder(prog *Program, tb *smt.TermBuilder, budget int) *encoder {
	return &encoder{
		prog:   prog,
		tb:     tb,
		ddDone: make(map[ddKey]bool),
		cdDone: make(map[cdKey]bool),
		budget: budget,
		instG:  make(map[int]*seg.Graph),
		atoms:  make(map[string]atomOrigin),
	}
}

// add appends t to the assertion sequence.
func (e *encoder) add(t *smt.Term) {
	e.terms = append(e.terms, t)
}

type atomOrigin struct {
	inst int
	g    *seg.Graph
	val  int32
}

// valueTerm returns the SMT term of value v of graph g within a context
// instance.
func (e *encoder) valueTerm(inst int, g *seg.Graph, v int32) *smt.Term {
	tb := e.tb
	r := g.Value(v)
	switch r.Kind {
	case ir.VConstInt:
		return tb.Int(g.IntVal(v))
	case ir.VConstBool:
		return tb.Bool(r.BoolVal())
	case ir.VConstNull:
		return tb.Int(0)
	}
	name := varName(inst, 'v', int(v))
	if r.Bool() {
		return tb.BoolVar(name)
	}
	return tb.IntVar(name)
}

// varName names the SMT variable of a value ('v') or an opaque atom ('a')
// within a context instance: "i<inst>.v<id>".
func varName(inst int, kind byte, id int) string {
	var buf [24]byte
	b := append(buf[:0], 'i')
	b = strconv.AppendInt(b, int64(inst), 10)
	b = append(b, '.', kind)
	b = strconv.AppendInt(b, int64(id), 10)
	return string(b)
}

// assertCond asserts a condition-DAG formula, translating atoms to boolean
// value terms and emitting their DD closures.
func (e *encoder) assertCond(inst int, g *seg.Graph, c *cond.Cond) {
	t := e.condTerm(inst, g, c)
	if debugSMT {
		fmt.Printf("SMT assert cond: %s\n", t)
	}
	e.add(t)
}

// debugSMT dumps every assertion (set via the PINPOINT_DEBUG_SMT env var).
var debugSMT = os.Getenv("PINPOINT_DEBUG_SMT") != ""

func (e *encoder) condTerm(inst int, g *seg.Graph, c *cond.Cond) *smt.Term {
	tb := e.tb
	switch c.Kind() {
	case cond.KTrue:
		return tb.True()
	case cond.KFalse:
		return tb.False()
	case cond.KAtom:
		v := g.AtomValue(c.Atom())
		if v < 0 {
			// Unknown atom: opaque boolean.
			return tb.BoolVar(varName(inst, 'a', c.Atom()))
		}
		e.emitDD(inst, g, v)
		t := e.valueTerm(inst, g, v)
		if e.atoms != nil && t.Kind == smt.TVar {
			e.atoms[t.Name] = atomOrigin{inst: inst, g: g, val: v}
		}
		return t
	case cond.KNot:
		return tb.Not(e.condTerm(inst, g, c.Ops()[0]))
	case cond.KAnd:
		parts := make([]*smt.Term, len(c.Ops()))
		for i, op := range c.Ops() {
			parts[i] = e.condTerm(inst, g, op)
		}
		return tb.And(parts...)
	default: // KOr
		parts := make([]*smt.Term, len(c.Ops()))
		for i, op := range c.Ops() {
			parts[i] = e.condTerm(inst, g, op)
		}
		return tb.Or(parts...)
	}
}

// emitDD asserts the data-dependence constraints defining a value,
// recursively and bounded by the budget. Constraints use the disjunctive
// form (the value equals one of its possible definitions under that
// definition's condition), which stays sound when conditions were widened.
func (e *encoder) emitDD(inst int, g *seg.Graph, v int32) {
	if g.Value(v).IsConst() {
		return
	}
	key := ddKey{inst: inst, vid: int(v)}
	if e.ddDone[key] {
		return
	}
	e.ddDone[key] = true
	if e.budget <= 0 {
		return
	}
	e.budget--

	def := g.Value(v).Def
	if debugSMT {
		fmt.Printf("SMT DD: i%d v%d (%s) def=%d\n", inst, v, g.ValueString(v), def)
	}
	if def < 0 {
		// Parameter or undef: a free variable; its range is constrained
		// at boundaries.
		return
	}
	tb := e.tb
	vt := e.valueTerm(inst, g, v)
	args := g.Args(def)

	switch g.In(def).Op {
	case ir.OpCopy:
		at := e.valueTerm(inst, g, args[0])
		if at.Sort == vt.Sort {
			e.add(tb.Eq(vt, at))
		}
		e.emitDD(inst, g, args[0])
	case ir.OpUn:
		a := args[0]
		at := e.valueTerm(inst, g, a)
		switch g.Sub(def) {
		case "-":
			e.add(tb.Eq(vt, tb.Neg(at)))
		case "!":
			if at.Sort == smt.SortBool && vt.Sort == smt.SortBool {
				e.add(tb.Eq(vt, tb.Not(at)))
			}
		}
		e.emitDD(inst, g, a)
	case ir.OpBin:
		e.emitBinDD(inst, g, v, def)
	case ir.OpPhi:
		var arms []*smt.Term
		for i, a := range args {
			at := e.valueTerm(inst, g, a)
			if at.Sort != vt.Sort {
				continue
			}
			arms = append(arms, tb.And(e.condTerm(inst, g, g.Gate(def, i)), tb.Eq(vt, at)))
			e.emitDD(inst, g, a)
		}
		if len(arms) > 0 {
			e.add(tb.Or(arms...))
		}
	case ir.OpLoad:
		var arms []*smt.Term
		srcs := g.LoadSources(def)
		for i := 0; i < len(srcs); i += 2 {
			wt := e.valueTerm(inst, g, srcs[i])
			if wt.Sort != vt.Sort {
				continue
			}
			arms = append(arms, tb.And(e.condTerm(inst, g, g.Conds().Node(srcs[i+1])), tb.Eq(vt, wt)))
			e.emitDD(inst, g, srcs[i])
		}
		if len(arms) > 0 {
			e.add(tb.Or(arms...))
		}
	case ir.OpMalloc, ir.OpAlloc, ir.OpGlobalAddr:
		// Allocation addresses are non-null.
		e.add(tb.Ne(vt, tb.Int(0)))
	case ir.OpFieldAddr:
		// An uninterpreted, per-field offset function: injective enough
		// for congruence reasoning, and field addresses of non-null
		// bases are non-null.
		base := e.valueTerm(inst, g, args[0])
		if base.Sort == smt.SortInt {
			e.add(tb.Eq(vt, tb.App("field$"+g.Sub(def), smt.SortInt, base)))
		}
		e.add(tb.Ne(vt, tb.Int(0)))
		e.emitDD(inst, g, args[0])
	case ir.OpCall:
		// Receiver: free variable (summaries constrain it only through
		// boundary equalities on traversed paths).
	}
}

// emitBinDD encodes a binary operator definition.
func (e *encoder) emitBinDD(inst int, g *seg.Graph, v, def int32) {
	tb := e.tb
	vt := e.valueTerm(inst, g, v)
	a, b := g.Args(def)[0], g.Args(def)[1]
	at, bt := e.valueTerm(inst, g, a), e.valueTerm(inst, g, b)
	boolOperands := at.Sort == smt.SortBool || bt.Sort == smt.SortBool
	op := g.Sub(def)

	defer func() {
		e.emitDD(inst, g, a)
		e.emitDD(inst, g, b)
	}()

	if vt.Sort == smt.SortBool {
		var cmp *smt.Term
		switch op {
		case "==":
			if at.Sort == bt.Sort {
				cmp = tb.Eq(at, bt)
			}
		case "!=":
			if at.Sort == bt.Sort {
				cmp = tb.Ne(at, bt)
			}
		case "<":
			if !boolOperands {
				cmp = tb.Lt(at, bt)
			}
		case "<=":
			if !boolOperands {
				cmp = tb.Le(at, bt)
			}
		case ">":
			if !boolOperands {
				cmp = tb.Gt(at, bt)
			}
		case ">=":
			if !boolOperands {
				cmp = tb.Ge(at, bt)
			}
		}
		if cmp != nil {
			e.add(tb.Eq(vt, cmp))
		}
		return
	}
	if boolOperands {
		return
	}
	switch op {
	case "+":
		e.add(tb.Eq(vt, tb.Add(at, bt)))
	case "-":
		e.add(tb.Eq(vt, tb.Sub(at, bt)))
	case "*":
		e.add(tb.Eq(vt, tb.Mul(at, bt)))
	case "/", "%":
		// Uninterpreted: congruence only.
		e.add(tb.Eq(vt, tb.App("op"+op, smt.SortInt, at, bt)))
	}
}
