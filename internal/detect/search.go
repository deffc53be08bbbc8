package detect

import (
	"repro/internal/checkers"
	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/seg"
	"repro/internal/smt"
)

// Engine runs one checker over a program. One Engine handles either a whole
// sequential run (NewEngine + Run, with a private cache set) or a single
// (checker, source) task dispatched by the parallel scheduler (which hands
// every task engine the same shared caches).
type Engine struct {
	prog   *Program
	spec   *checkers.Spec
	opts   Options
	caches *caches

	reports  []Report
	reported map[[2]*ir.Instr]bool
	stats    Stats
	// flows counts the engine's lookups in the shared flow cache.
	flows flowCounts
	// fp, when non-nil, collects what the search read of the program
	// beyond its source's own function (see replay.go).
	fp          *footprint
	lastWitness []string
	// lastCondTerms / lastVerdictSource mirror the latest checkCandidate
	// outcome; read only when opts.Witness captures provenance.
	lastCondTerms     int
	lastVerdictSource VerdictSource

	// tid is the trace track this engine's SMT query spans land on (its
	// scheduler worker + 1, or 1 for a sequential engine).
	tid int

	// solver is the engine's pooled SMT solver, acquired lazily by the
	// first candidate check and released by releaseSolver when the engine
	// finishes. It is Reset between candidates (a reset solver is
	// indistinguishable from a fresh one).
	solver *smt.Solver

	// per-source scratch
	nextInst   int
	expansions int
	candidates int
}

// NewEngine builds an engine for one checker.
func NewEngine(prog *Program, spec *checkers.Spec, opts Options) *Engine {
	return &Engine{
		prog:     prog,
		spec:     spec,
		opts:     opts.withDefaults(),
		caches:   newCaches(prog),
		reported: make(map[[2]*ir.Instr]bool),
		tid:      1,
	}
}

// querySolver returns the engine's solver ready for a candidate query:
// freshly acquired from the pool, or reset to the fresh state.
func (e *Engine) querySolver() *smt.Solver {
	if e.solver == nil {
		e.solver = smt.GetSolver()
	} else {
		e.solver.Reset()
	}
	return e.solver
}

// releaseSolver returns the engine's solver to the pool.
func (e *Engine) releaseSolver() {
	if e.solver != nil {
		smt.PutSolver(e.solver)
		e.solver = nil
	}
}

// Run searches every function's sources and returns the reports.
func (e *Engine) Run() ([]Report, Stats) {
	defer e.releaseSolver()
	if e.spec.Kind == checkers.KindUnreleased {
		return e.runUnreleased()
	}
	for _, f := range e.prog.Module.Funcs {
		g := e.prog.SEG(f)
		if g == nil {
			continue
		}
		for _, src := range e.spec.LocalSources(g) {
			e.stats.Sources++
			e.searchFromSource(f, g, src)
			if e.opts.MaxReportsPerChecker > 0 && len(e.reports) >= e.opts.MaxReportsPerChecker {
				e.stats.SummaryCapHits = e.flows.capHits
				return e.reports, e.stats
			}
		}
	}
	e.stats.SummaryCapHits = e.flows.capHits
	return e.reports, e.stats
}

// runUnreleased runs the unreleased-resource (memory-leak) interpretation of
// the spec sequentially, presenting the results through the uniform Report
// shape.
func (e *Engine) runUnreleased() ([]Report, Stats) {
	lc := newLeakChecker(e.prog, e.opts, e.caches, &e.flows)
	for _, f := range e.prog.Module.Funcs {
		g := e.prog.SEG(f)
		if g == nil {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpMalloc {
					continue
				}
				if rep := lc.checkAlloc(f, g, in, &e.stats, &e.flows, nil, e.tid); rep != nil {
					e.reports = append(e.reports, leakToReport(e.spec.Name, *rep))
					if e.opts.MaxReportsPerChecker > 0 && len(e.reports) >= e.opts.MaxReportsPerChecker {
						e.stats.SummaryCapHits = e.flows.capHits
						return e.reports, e.stats
					}
				}
			}
		}
	}
	e.stats.SummaryCapHits = e.flows.capHits
	return e.reports, e.stats
}

// frame is one function instance on the search path.
type frame struct {
	fn     *ir.Func
	inst   int
	anchor *ir.Instr // ordering anchor (source/call) or nil
	// ret links a descent frame back to its call site.
	retTo   *frame
	retCall *ir.Instr
	depth   int
}

// pathState accumulates the global path immutably-enough: explore copies
// slices before extending so sibling branches do not interfere.
type pathState struct {
	steps  []gstep
	bounds []boundary
	// conds holds the accumulated condition of each context instance,
	// indexed by instance number (instances are numbered densely per
	// source); fn == nil marks an instance without conditions yet.
	conds []instCond
}

func (p pathState) clone() pathState {
	return pathState{
		steps:  append([]gstep(nil), p.steps...),
		bounds: append([]boundary(nil), p.bounds...),
		conds:  append([]instCond(nil), p.conds...),
	}
}

// addCond conjoins a local condition into an instance's accumulated
// condition; it reports false when the result is apparently unsatisfiable.
//
// With path sensitivity disabled, conditions are not tracked at all (the
// baseline modes genuinely ignore path correlations). With only the linear
// filter disabled, conditions accumulate — including ones already folded to
// false — and the SMT solver pays for refuting them.
func (e *Engine) addCond(p *pathState, inst int, fn *ir.Func, c *cond.Cond) bool {
	if e.opts.DisablePathSensitivity {
		return true
	}
	for len(p.conds) <= inst {
		p.conds = append(p.conds, instCond{})
	}
	ic := &p.conds[inst]
	if ic.fn == nil {
		*ic = instCond{fn: fn, cond: e.prog.Info(fn).Conds.True()}
	}
	merged := e.prog.Info(fn).Conds.And(ic.cond, c)
	if e.opts.DisableLinearFilter {
		ic.cond = merged
		return true
	}
	if merged.IsFalse() || e.caches.apparentlyUnsat(fn, merged) {
		return false
	}
	ic.cond = merged
	return true
}

// searchFromSource explores all forward flows of one source.
func (e *Engine) searchFromSource(f *ir.Func, g *seg.Graph, src checkers.Source) {
	e.nextInst = 0
	e.expansions = 0
	e.candidates = 0

	roots := []*ir.Value{src.Val}
	if e.spec.WidenToRoots {
		roots = e.objectRoots(g, src.Val)
	}

	var anchor *ir.Instr
	if e.spec.OrderingRequired && !e.opts.IgnoreOrdering {
		anchor = src.At
	}
	for _, root := range roots {
		fr := &frame{fn: f, inst: e.newInst(), anchor: anchor, depth: 1}
		var p pathState
		if !e.addCond(&p, fr.inst, f, src.Cond) {
			continue
		}
		e.explore(fr, g.ValueNode(root), src.At, f, p)
	}
}

func (e *Engine) newInst() int {
	e.nextInst++
	return e.nextInst - 1
}

// objectRoots walks backward from the source value through
// equality-preserving edges to the defining allocation sites or parameters,
// so that sibling aliases of the freed object are tracked too.
func (e *Engine) objectRoots(g *seg.Graph, v *ir.Value) []*ir.Value {
	rev := e.caches.reverse(g)
	seen := make([]bool, g.NumNodes()) // by Node.Index
	// rootsSet stays a map: a handful of values out of the whole function.
	rootsSet := map[*ir.Value]bool{v: true}
	var walk func(n *seg.Node)
	walk = func(n *seg.Node) {
		if seen[n.Index()] {
			return
		}
		seen[n.Index()] = true
		if n.Kind != seg.NValue {
			return
		}
		def := n.Val.Def
		isRoot := def == nil || def.Op == ir.OpMalloc || def.Op == ir.OpAlloc ||
			def.Op == ir.OpCall || def.Op == ir.OpGlobalAddr
		if isRoot {
			rootsSet[n.Val] = true
			return
		}
		// Only walk back through object-preserving defs (field addresses
		// denote the same object as their base).
		switch def.Op {
		case ir.OpCopy, ir.OpPhi, ir.OpLoad, ir.OpFieldAddr:
			preds := rev.of(n)
			if len(preds) == 0 {
				rootsSet[n.Val] = true
				return
			}
			for _, pn := range preds {
				walk(pn)
			}
		default:
			rootsSet[n.Val] = true
		}
	}
	walk(g.ValueNode(v))
	roots := make([]*ir.Value, 0, len(rootsSet))
	for r := range rootsSet {
		roots = append(roots, r)
	}
	// Deterministic order.
	for i := 0; i < len(roots); i++ {
		for j := i + 1; j < len(roots); j++ {
			if roots[j].ID < roots[i].ID {
				roots[i], roots[j] = roots[j], roots[i]
			}
		}
	}
	return roots
}

// explore expands all local flows from a vertex within a frame.
func (e *Engine) explore(fr *frame, node *seg.Node, sourceAt *ir.Instr, sourceFn *ir.Func, p pathState) {
	if e.expansions >= e.opts.MaxExpansions || e.candidates >= e.opts.MaxCandidates {
		e.stats.TruncatedSearches++
		return
	}
	e.expansions++
	e.stats.Expansions++
	g := e.prog.SEG(fr.fn)

	// Ascent via parameter: the tracked value entered through fr.fn's
	// interface, so the caller's actual argument carries the same danger
	// after any call (only from the outermost frame — descent frames
	// return through their call site instead).
	if node.Kind == seg.NValue && node.Val.Kind == ir.VParam && fr.retTo == nil {
		e.ascendViaParam(fr, node, sourceAt, sourceFn, p)
	}

	for _, flow := range e.caches.flowsFrom(g, node, &e.flows) {
		term := flow.Terminal()
		if term == node && len(flow.Steps) == 1 && node.Kind == seg.NValue {
			continue
		}
		// Ordering: terminal actions in an anchored frame must be able
		// to execute after the anchor.
		if fr.anchor != nil && term.Instr != nil && !g.HappensAfter(fr.anchor, term.Instr) {
			continue
		}
		np := p.clone()
		if !e.addCond(&np, fr.inst, fr.fn, flow.Cond(g)) {
			e.stats.LinearFiltered++
			continue
		}
		for _, s := range flow.Steps {
			np.steps = append(np.steps, gstep{inst: fr.inst, node: s.Node})
		}

		if e.spec.IsSink(g, term, sourceAt) {
			e.emitCandidate(fr, term, sourceAt, sourceFn, np)
			continue
		}
		switch term.Role {
		case seg.RoleCallArg:
			e.throughCall(fr, term, sourceAt, sourceFn, np)
		case seg.RoleRetArg:
			e.throughReturn(fr, term, sourceAt, sourceFn, np)
		}
	}
}

// bindCallParams records actual=formal equalities for every parameter of a
// call boundary (not just the tracked one): the callee's path conditions may
// reference any of its parameters, and leaving them free loses refutations
// (a guard passed in as an argument, for example).
func (e *Engine) bindCallParams(np *pathState, callerInst int, calleeInst int, call *ir.Instr, callee *ir.Func) {
	n := len(call.Args)
	if len(callee.Params) < n {
		n = len(callee.Params)
	}
	for i := 0; i < n; i++ {
		np.bounds = append(np.bounds, boundary{
			instA: callerInst, valA: call.Args[i],
			instB: calleeInst, valB: callee.Params[i],
			equality: true,
		})
	}
}

// throughCall handles a tracked value passed as a call argument.
func (e *Engine) throughCall(fr *frame, term *seg.Node, sourceAt *ir.Instr, sourceFn *ir.Func, p pathState) {
	call := term.Instr
	callee := e.prog.Module.Lookup(call.Callee())
	if callee == nil {
		// External: taint-transfer functions propagate to the receiver.
		if e.spec.PropagateCalls[call.Callee()] && len(call.Dsts()) > 0 && call.Dsts()[0] != nil {
			np := p.clone()
			np.bounds = append(np.bounds, boundary{
				instA: fr.inst, valA: term.Val, instB: fr.inst, valB: call.Dsts()[0], equality: false,
			})
			g := e.prog.SEG(fr.fn)
			np.steps = append(np.steps, gstep{inst: fr.inst, node: g.ValueNode(call.Dsts()[0])})
			e.explore(fr, g.ValueNode(call.Dsts()[0]), sourceAt, sourceFn, np)
		}
		return
	}
	cg := e.prog.SEG(callee)
	e.fp.enter(cg)
	if e.opts.SameUnitOnly && callee.Unit != fr.fn.Unit {
		return
	}
	if fr.depth >= e.opts.MaxCallDepth {
		e.stats.TruncatedSearches++
		return
	}
	if int(term.ArgIdx) >= len(callee.Params) {
		return
	}
	param := callee.Params[term.ArgIdx]
	nfr := &frame{
		fn: callee, inst: e.newInst(), retTo: fr, retCall: call, depth: fr.depth + 1,
	}
	np := p.clone()
	e.bindCallParams(&np, fr.inst, nfr.inst, call, callee)
	np.steps = append(np.steps, gstep{inst: nfr.inst, node: cg.ValueNode(param)})
	e.explore(nfr, cg.ValueNode(param), sourceAt, sourceFn, np)
}

// throughReturn handles a tracked value reaching a return operand.
func (e *Engine) throughReturn(fr *frame, term *seg.Node, sourceAt *ir.Instr, sourceFn *ir.Func, p pathState) {
	retIdx := int(term.ArgIdx)
	if fr.retTo != nil {
		// Pop to the originating call site.
		recv := retReceiver(fr.fn, fr.retCall, retIdx)
		if recv == nil {
			return
		}
		caller := fr.retTo
		np := p.clone()
		np.bounds = append(np.bounds, boundary{
			instA: fr.inst, valA: term.Val, instB: caller.inst, valB: recv, equality: true,
		})
		g := e.prog.SEG(caller.fn)
		np.steps = append(np.steps, gstep{inst: caller.inst, node: g.ValueNode(recv)})
		e.explore(caller, g.ValueNode(recv), sourceAt, sourceFn, np)
		return
	}
	// Ascend: the search started in this function; every caller receives
	// the value.
	for i, cs := range e.callersOf(fr.fn) {
		if i >= e.opts.MaxCallers {
			e.stats.TruncatedSearches++
			break
		}
		if fr.depth >= e.opts.MaxCallDepth {
			e.stats.TruncatedSearches++
			break
		}
		if e.opts.SameUnitOnly && cs.Fn.Unit != fr.fn.Unit {
			continue
		}
		recv := retReceiver(fr.fn, cs.Instr, retIdx)
		if recv == nil {
			continue
		}
		g := e.prog.SEG(cs.Fn)
		e.fp.enter(g)
		nfr := &frame{fn: cs.Fn, inst: e.newInst(), depth: fr.depth + 1}
		if !e.opts.IgnoreOrdering && e.spec.OrderingRequired {
			nfr.anchor = cs.Instr
		}
		np := p.clone()
		np.bounds = append(np.bounds, boundary{
			instA: fr.inst, valA: term.Val, instB: nfr.inst, valB: recv, equality: true,
		})
		e.bindCallParams(&np, nfr.inst, fr.inst, cs.Instr, fr.fn)
		// The callee's events only happen if the call executes.
		if !e.addCond(&np, nfr.inst, cs.Fn, g.CD(cs.Instr)) {
			e.stats.LinearFiltered++
			continue
		}
		np.steps = append(np.steps, gstep{inst: nfr.inst, node: g.ValueNode(recv)})
		e.explore(nfr, g.ValueNode(recv), sourceAt, sourceFn, np)
	}
}

// ascendViaParam continues the search in callers when the tracked dangerous
// value is a parameter: the actual argument at every call site carries the
// danger after the call returns. The caller-side value is widened to its
// object roots (when the checker asks for root widening) so sibling
// aliases — other values loaded from the same cell the actual came from —
// are tracked too.
func (e *Engine) ascendViaParam(fr *frame, node *seg.Node, sourceAt *ir.Instr, sourceFn *ir.Func, p pathState) {
	idx := node.Val.ParamIdx()
	for i, cs := range e.callersOf(fr.fn) {
		if i >= e.opts.MaxCallers || fr.depth >= e.opts.MaxCallDepth {
			e.stats.TruncatedSearches++
			break
		}
		if e.opts.SameUnitOnly && cs.Fn.Unit != fr.fn.Unit {
			continue
		}
		if idx >= len(cs.Instr.Args) {
			continue
		}
		actual := cs.Instr.Args[idx]
		g := e.prog.SEG(cs.Fn)
		e.fp.enter(g)
		nfr := &frame{fn: cs.Fn, inst: e.newInst(), depth: fr.depth + 1}
		if !e.opts.IgnoreOrdering && e.spec.OrderingRequired {
			nfr.anchor = cs.Instr
		}
		np := p.clone()
		e.bindCallParams(&np, nfr.inst, fr.inst, cs.Instr, fr.fn)
		// The callee's events only happen if the call executes.
		if !e.addCond(&np, nfr.inst, cs.Fn, g.CD(cs.Instr)) {
			e.stats.LinearFiltered++
			continue
		}
		np.steps = append(np.steps, gstep{inst: nfr.inst, node: g.ValueNode(actual)})
		roots := []*ir.Value{actual}
		if e.spec.WidenToRoots {
			roots = e.objectRoots(g, actual)
		}
		for _, root := range roots {
			e.explore(nfr, g.ValueNode(root), sourceAt, sourceFn, np)
		}
	}
}

// callersOf returns fn's call sites for an ascent, noting the read: what
// the ascent finds depends on the list, not only on the functions it then
// enters.
func (e *Engine) callersOf(fn *ir.Func) []CallSite {
	sites := e.prog.Callers(fn)
	e.fp.readCallers(fn, sites)
	return sites
}

// retReceiver maps a return-operand index to the call-site receiver value.
func retReceiver(callee *ir.Func, call *ir.Instr, retIdx int) *ir.Value {
	ret := callee.Exit.Term()
	auxStart := len(ret.Args) - len(callee.AuxOut)
	var dstIdx int
	if retIdx >= auxStart {
		dstIdx = 1 + (retIdx - auxStart)
	} else {
		dstIdx = 0
	}
	if dstIdx >= len(call.Dsts()) {
		return nil
	}
	return call.Dsts()[dstIdx]
}

// sanitized reports whether the sink is guarded by a sanitizer predicate
// applied to one of the tainted values on the path (the WithSanitizers
// extension). The check walks the sink's transitive control dependences and
// the defining chains of their branch conditions looking for a sanitizer
// call whose argument is a path value.
func (e *Engine) sanitized(fr *frame, sink *seg.Node, p pathState) bool {
	if len(e.spec.SanitizerCalls) == 0 {
		return false
	}
	pathVals := make([]bool, fr.fn.NumValues()) // by Value.ID
	for _, st := range p.steps {
		if st.inst == fr.inst && st.node.Val != nil {
			pathVals[st.node.Val.ID] = true
		}
	}
	inf := e.prog.Info(fr.fn)
	seenBlocks := make([]bool, fr.fn.NumBlocks()) // by Block.ID
	var fromBlock func(b *ir.Block) bool
	var fromValue func(v *ir.Value, depth int) bool
	fromValue = func(v *ir.Value, depth int) bool {
		if depth > 8 || v.Def == nil {
			return false
		}
		def := v.Def
		if def.Op == ir.OpCall && e.spec.SanitizerCalls[def.Callee()] {
			for _, a := range def.Args {
				if pathVals[a.ID] {
					return true
				}
			}
		}
		for _, a := range def.Args {
			if fromValue(a, depth+1) {
				return true
			}
		}
		return false
	}
	fromBlock = func(b *ir.Block) bool {
		if seenBlocks[b.ID] {
			return false
		}
		seenBlocks[b.ID] = true
		for _, dep := range inf.CD(b) {
			if fromValue(dep.Cond(), 0) {
				return true
			}
			if fromBlock(dep.Branch) {
				return true
			}
		}
		return false
	}
	return fromBlock(sink.Instr.Block)
}

// emitCandidate finalizes a candidate path and runs the feasibility check.
func (e *Engine) emitCandidate(fr *frame, sink *seg.Node, sourceAt *ir.Instr, sourceFn *ir.Func, p pathState) {
	key := [2]*ir.Instr{sourceAt, sink.Instr}
	if e.reported[key] {
		return
	}
	if e.sanitized(fr, sink, p) {
		return
	}
	e.candidates++
	e.stats.Candidates++
	c := &candidate{
		steps:     p.steps,
		bounds:    p.bounds,
		conds:     p.conds,
		sink:      sink,
		sinkInst:  fr.inst,
		sourceAt:  sourceAt,
		sourceFn:  sourceFn,
		instances: e.nextInst,
	}
	verdict := smt.Sat
	e.lastWitness = nil
	e.lastCondTerms, e.lastVerdictSource = 0, VerdictUnchecked
	if !e.opts.DisablePathSensitivity {
		verdict = e.checkCandidate(c)
	}
	if verdict != smt.Sat {
		return
	}
	e.reported[key] = true
	var prov *Provenance
	if e.opts.Witness {
		prov = &Provenance{
			Hops:          hopsFromSteps(p.steps, p.conds),
			CondTerms:     e.lastCondTerms,
			VerdictSource: e.lastVerdictSource,
		}
	}
	e.reports = append(e.reports, Report{
		Checker:    e.spec.Name,
		SourceFn:   sourceFn.Name,
		SinkFn:     fr.fn.Name,
		SourcePos:  sourceAt.Position(),
		SinkPos:    sink.Instr.Position(),
		Source:     sourceAt,
		Sink:       sink.Instr,
		PathLen:    len(p.steps),
		Contexts:   countInstances(p.steps),
		Verdict:    verdict,
		Witness:    e.lastWitness,
		Provenance: prov,
	})
}

func countInstances(steps []gstep) int {
	seen := map[int]bool{}
	for _, s := range steps {
		seen[s.inst] = true
	}
	return len(seen)
}
