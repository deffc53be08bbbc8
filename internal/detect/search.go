package detect

import (
	"slices"

	"repro/internal/checkers"
	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/seg"
	"repro/internal/smt"
)

// Engine searches the sources of one scheduler worker, one task after the
// other, over the caches all workers share. A task is one source of one group
// of specs that share a walk (checkers.Spec.SharesWalk): the walk is made
// once, and each member keeps the reports and the counters its own run would
// have produced.
type Engine struct {
	prog   *Program
	opts   Options
	caches *caches

	// tid is the trace track the engine's SMT query spans land on (its
	// scheduler worker + 1).
	tid int

	// solver is the engine's pooled SMT solver, acquired lazily by the
	// first candidate check and released by releaseSolver when the worker
	// finishes. It is Reset between candidates (a reset solver is
	// indistinguishable from a fresh one).
	solver *smt.Solver

	// The task at hand: the group's members, the spec whose walk parameters
	// they all share, and the source.
	members []member
	lead    *checkers.Spec
	srcAt   int32
	srcFn   *ir.Func
	srcG    *seg.Graph
	// fp collects what the search read of the program beyond its source's
	// own function (see replay.go).
	fp *footprint
	// walked and solved count the expansions the task made and the queries
	// it encoded, each once however many members counted them.
	walked, solved int
	nextInst       int
	// path is the global path from the source to the vertex being expanded.
	path pathState

	// Scratch kept from task to task: w walks local flows (and counts the
	// walks over all the engine's tasks), roots is a stack of objectRoots
	// results, seen a set of vertex indexes or instance numbers.
	w     walker
	roots []int32
	seen  markSet
}

// member is one spec of the task's group with what its own search from the
// source has produced so far.
type member struct {
	memberResult
	spec     *checkers.Spec
	reported map[Site]bool // by sink
	// expansions and candidates are what the per-source caps are held
	// against.
	expansions, candidates int
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

// frame is one function instance on the search path.
type frame struct {
	fn     *ir.Func
	g      *seg.Graph // fn's, read once per instance, not per step
	inst   int
	anchor int32 // ordering anchor (source/call) or -1
	// ret links a descent frame back to its call site.
	retTo   *frame
	retCall int32
	depth   int
}

// pathState is the global path as a stack: a step of the search pushes what
// it adds, explores, and resets to the mark it took first. Nothing keeps a
// slice of it beyond that — a candidate is checked before emitCandidate
// returns and Provenance copies its hops.
type pathState struct {
	steps  []gstep
	bounds []boundary
	// conds holds the accumulated condition of each context instance,
	// indexed by instance number (instances are numbered densely per
	// source); fn == nil marks an instance without conditions yet.
	conds []instCond
}

// pathMark is what reset needs to undo an extension: the three lengths, and
// the condition of the one instance the extension may conjoin into in place.
type pathMark struct {
	steps, bounds, conds int
	inst                 int
	cond                 instCond
}

func (p *pathState) mark(inst int) pathMark {
	m := pathMark{steps: len(p.steps), bounds: len(p.bounds), conds: len(p.conds), inst: inst}
	if inst < m.conds {
		m.cond = p.conds[inst]
	}
	return m
}

func (p *pathState) reset(m pathMark) {
	p.steps, p.bounds, p.conds = p.steps[:m.steps], p.bounds[:m.bounds], p.conds[:m.conds]
	if m.inst < m.conds {
		p.conds[m.inst] = m.cond
	}
}

// addCond conjoins a local condition into an instance's accumulated
// condition; it reports false when the result is apparently unsatisfiable.
//
// With path sensitivity disabled, conditions are not tracked at all (the
// baseline modes genuinely ignore path correlations). With only the linear
// filter disabled, conditions accumulate — including ones already folded to
// false — and the SMT solver pays for refuting them.
func (e *Engine) addCond(inst int, fn *ir.Func, g *seg.Graph, c *cond.Cond) bool {
	if e.opts.DisablePathSensitivity {
		return true
	}
	p := &e.path
	for len(p.conds) <= inst {
		p.conds = append(p.conds, instCond{})
	}
	ic := &p.conds[inst]
	cb := g.Conds()
	if ic.fn == nil {
		*ic = instCond{fn: fn, cond: cb.True()}
	}
	if c.IsTrue() {
		// The instance's condition stands: it passed when it was conjoined.
		return true
	}
	merged := cb.And(ic.cond, c)
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

// count adds one to a walk counter of every member in live.
func (e *Engine) count(live uint64, counter func(*Stats) *int) {
	for i := range e.members {
		if live>>i&1 != 0 {
			*counter(&e.members[i].stats)++
		}
	}
}

func linearFiltered(s *Stats) *int    { return &s.LinearFiltered }
func truncatedSearches(s *Stats) *int { return &s.TruncatedSearches }

// searchFromSource explores all forward flows of one source for the members
// set up by runTask.
func (e *Engine) searchFromSource(f *ir.Func, g *seg.Graph, src checkers.Source) {
	e.srcAt, e.srcFn, e.srcG = src.At, f, g
	e.nextInst = 0

	anchor := int32(-1)
	if e.lead.OrderingRequired && !e.opts.IgnoreOrdering {
		anchor = src.At
	}
	live := uint64(1)<<len(e.members) - 1
	for _, root := range e.widen(f, g, src.Val) {
		fr := &frame{fn: f, g: g, inst: e.newInst(), anchor: anchor, depth: 1}
		e.path.reset(pathMark{})
		if !e.addCond(fr.inst, f, g, src.Cond) {
			continue
		}
		e.explore(fr, g.ValueNode(root), live)
	}
	e.roots = e.roots[:0]
}

func (e *Engine) newInst() int {
	e.nextInst++
	return e.nextInst - 1
}

// widen returns the values the search tracks for v: its object roots when
// the checker asks for root widening, v itself otherwise. The result sits on
// top of e.roots; the caller pops it when done.
func (e *Engine) widen(f *ir.Func, g *seg.Graph, v int32) []int32 {
	base := len(e.roots)
	e.roots = append(e.roots, v)
	if e.lead.WidenToRoots {
		e.seen.reset(g.NumNodes())
		e.walkRoots(g, e.caches.reverse(f, g), g.ValueNode(v), v)
		slices.Sort(e.roots[base:])
	}
	return e.roots[base:]
}

// walkRoots walks backward from v's vertex through equality-preserving
// edges to the defining allocation sites or parameters, so that sibling
// aliases of the freed object are tracked too, and pushes them on e.roots.
func (e *Engine) walkRoots(g *seg.Graph, rev *revEntry, n int32, v int32) {
	if !e.seen.add(n) {
		return
	}
	if g.Node(n).Kind != seg.NValue {
		return
	}
	val := g.Val(n)
	if def := g.Value(val).Def; def >= 0 {
		// Only walk back through object-preserving defs (field addresses
		// denote the same object as their base).
		switch g.In(def).Op {
		case ir.OpCopy, ir.OpPhi, ir.OpLoad, ir.OpFieldAddr:
			if preds := rev.of(n); len(preds) > 0 {
				for _, pn := range preds {
					e.walkRoots(g, rev, pn, v)
				}
				return
			}
		}
	}
	if val != v {
		e.roots = append(e.roots, val)
	}
}

// explore expands all local flows from a vertex within a frame, for the
// members in live: those whose own search would have reached this call.
func (e *Engine) explore(fr *frame, node int32, live uint64) {
	for i := range e.members {
		m := &e.members[i]
		switch {
		case live>>i&1 == 0:
		case m.expansions >= e.opts.MaxExpansions || m.candidates >= e.opts.MaxCandidates:
			m.stats.TruncatedSearches++
			live &^= 1 << i
		default:
			m.expansions++
			m.stats.Expansions++
		}
	}
	if live == 0 {
		return
	}
	e.walked++
	g := fr.g

	// Ascent via parameter: the tracked value entered through fr.fn's
	// interface, so the caller's actual argument carries the same danger
	// after any call (only from the outermost frame — descent frames
	// return through their call site instead).
	isValue := g.Node(node).Kind == seg.NValue
	if isValue && g.Value(g.Val(node)).Kind == ir.VParam && fr.retTo == nil {
		e.ascendViaParam(fr, g, node, live)
	}

	// The source's instruction, as a sink predicate tells it apart: an
	// instruction of the graph at hand.
	srcAt := int32(-1)
	if fr.fn == e.srcFn {
		srcAt = e.srcAt
	}
	// The walk's flows stay on the stack while the steps below explore on
	// from them, each pushing and popping its own above; the stack may move,
	// so each flow is copied out.
	wm := e.w.walk(g, node)
	for i, end := wm.flows, len(e.w.flows); i < end; i++ {
		flow := e.w.flows[i]
		term := flow.term
		// Ordering: terminal actions in an anchored frame must be able
		// to execute after the anchor.
		if in := g.Instr(term); fr.anchor >= 0 && in >= 0 && !g.HappensAfter(fr.anchor, in) {
			continue
		}
		mark := e.path.mark(fr.inst)
		if !e.addCond(fr.inst, fr.fn, g, flow.cond) {
			e.count(live, linearFiltered)
			e.path.reset(mark)
			continue
		}
		e.path.steps = e.w.appendSteps(e.path.steps, fr.inst, g, &flow)

		var sinks uint64
		for i := range e.members {
			if live>>i&1 != 0 && e.members[i].spec.IsSink(g, term, srcAt) {
				sinks |= 1 << i
			}
		}
		switch role := g.Node(term).Role; {
		case sinks != 0:
			e.emitCandidate(fr, g, term, sinks)
		case role == seg.RoleCallArg:
			e.throughCall(fr, g, term, live)
		case role == seg.RoleRetArg:
			e.throughReturn(fr, g, term, live)
		}
		e.path.reset(mark)
	}
	e.w.pop(wm)
}

// bindCallParams records actual=formal equalities for every parameter of a
// call boundary (not just the tracked one): the callee's path conditions may
// reference any of its parameters, and leaving them free loses refutations
// (a guard passed in as an argument, for example).
func (e *Engine) bindCallParams(callerInst, calleeInst int, caller *seg.Graph, call int32, callee *seg.Graph) {
	args, params := caller.Args(call), callee.Params()
	for i := range min(len(args), len(params)) {
		e.path.bounds = append(e.path.bounds, boundary{
			instA: callerInst, gA: caller, valA: args[i],
			instB: calleeInst, gB: callee, valB: params[i],
			equality: true,
		})
	}
}

// throughCall handles a tracked value passed as a call argument. Like
// throughReturn's pop, it leaves what it pushed on the path to the reset of
// the explore step that called it.
func (e *Engine) throughCall(fr *frame, g *seg.Graph, term int32, live uint64) {
	call := g.Instr(term)
	callee := e.prog.Module.Lookup(g.Callee(call))
	if callee == nil {
		// External: taint-transfer functions propagate to the receiver.
		if dsts := g.Dsts(call); e.lead.PropagateCalls[g.Callee(call)] && len(dsts) > 0 && dsts[0] >= 0 {
			e.path.bounds = append(e.path.bounds, boundary{
				instA: fr.inst, gA: g, valA: g.Val(term), instB: fr.inst, gB: g, valB: dsts[0], equality: false,
			})
			recv := g.ValueNode(dsts[0])
			e.path.steps = append(e.path.steps, gstep{inst: fr.inst, g: g, node: recv})
			e.explore(fr, recv, live)
		}
		return
	}
	cg := e.prog.SEG(callee)
	e.fp.enter(callee, cg)
	if e.opts.SameUnitOnly && callee.Unit != fr.fn.Unit {
		return
	}
	if fr.depth >= e.opts.MaxCallDepth {
		e.count(live, truncatedSearches)
		return
	}
	argIdx := g.Node(term).ArgIdx
	if int(argIdx) >= len(cg.Params()) {
		return
	}
	param := cg.ValueNode(cg.Params()[argIdx])
	nfr := &frame{
		fn: callee, g: cg, inst: e.newInst(), anchor: -1, retTo: fr, retCall: call, depth: fr.depth + 1,
	}
	e.bindCallParams(fr.inst, nfr.inst, g, call, cg)
	e.path.steps = append(e.path.steps, gstep{inst: nfr.inst, g: cg, node: param})
	e.explore(nfr, param, live)
}

// throughReturn handles a tracked value reaching a return operand.
func (e *Engine) throughReturn(fr *frame, g *seg.Graph, term int32, live uint64) {
	retIdx, retVal := int(g.Node(term).ArgIdx), g.Val(term)
	if fr.retTo != nil {
		// Pop to the originating call site.
		caller := fr.retTo
		cg := caller.g
		recv := retReceiver(fr.fn, g, cg, fr.retCall, retIdx)
		if recv < 0 {
			return
		}
		e.path.bounds = append(e.path.bounds, boundary{
			instA: fr.inst, gA: g, valA: retVal, instB: caller.inst, gB: cg, valB: recv, equality: true,
		})
		at := cg.ValueNode(recv)
		e.path.steps = append(e.path.steps, gstep{inst: caller.inst, g: cg, node: at})
		e.explore(caller, at, live)
		return
	}
	// Ascend: the search started in this function; every caller receives
	// the value.
	for i, cs := range e.callersOf(fr.fn) {
		if i >= maxCallers || fr.depth >= e.opts.MaxCallDepth {
			e.count(live, truncatedSearches)
			break
		}
		if e.opts.SameUnitOnly && cs.Fn.Unit != fr.fn.Unit {
			continue
		}
		recv := retReceiver(fr.fn, g, e.prog.SEG(cs.Fn), cs.Instr, retIdx)
		if recv < 0 {
			continue
		}
		cg, nfr, mark := e.ascend(fr, cs)
		e.path.bounds = append(e.path.bounds, boundary{
			instA: fr.inst, gA: g, valA: retVal, instB: nfr.inst, gB: cg, valB: recv, equality: true,
		})
		if e.enterCaller(fr, nfr, cs, cg, recv, live) {
			e.explore(nfr, cg.ValueNode(recv), live)
		}
		e.path.reset(mark)
	}
}

// ascend opens the frame of one caller of fr.fn — a fresh instance, anchored
// at the call when the checker orders its sinks — and marks the path for the
// reset that ends the ascent.
func (e *Engine) ascend(fr *frame, cs CallSite) (*seg.Graph, *frame, pathMark) {
	g := e.prog.SEG(cs.Fn)
	e.fp.enter(cs.Fn, g)
	nfr := &frame{fn: cs.Fn, g: g, inst: e.newInst(), anchor: -1, depth: fr.depth + 1}
	if !e.opts.IgnoreOrdering && e.lead.OrderingRequired {
		nfr.anchor = cs.Instr
	}
	return g, nfr, e.path.mark(nfr.inst)
}

// enterCaller binds the call's parameters, conjoins the call's control
// dependence (the callee's events only happen if the call executes) and
// steps onto the caller-side value; false means the linear filter refuted
// the ascent.
func (e *Engine) enterCaller(fr, nfr *frame, cs CallSite, g *seg.Graph, at int32, live uint64) bool {
	e.bindCallParams(nfr.inst, fr.inst, g, cs.Instr, fr.g)
	if !e.addCond(nfr.inst, cs.Fn, g, g.CD(cs.Instr)) {
		e.count(live, linearFiltered)
		return false
	}
	e.path.steps = append(e.path.steps, gstep{inst: nfr.inst, g: g, node: g.ValueNode(at)})
	return true
}

// ascendViaParam continues the search in callers when the tracked dangerous
// value is a parameter: the actual argument at every call site carries the
// danger after the call returns. The caller-side value is widened to its
// object roots (when the checker asks for root widening) so sibling
// aliases — other values loaded from the same cell the actual came from —
// are tracked too.
func (e *Engine) ascendViaParam(fr *frame, g *seg.Graph, node int32, live uint64) {
	idx := g.Value(g.Val(node)).ParamIdx()
	for i, cs := range e.callersOf(fr.fn) {
		if i >= maxCallers || fr.depth >= e.opts.MaxCallDepth {
			e.count(live, truncatedSearches)
			break
		}
		if e.opts.SameUnitOnly && cs.Fn.Unit != fr.fn.Unit {
			continue
		}
		args := e.prog.SEG(cs.Fn).Args(cs.Instr)
		if idx >= len(args) {
			continue
		}
		actual := args[idx]
		cg, nfr, mark := e.ascend(fr, cs)
		if e.enterCaller(fr, nfr, cs, cg, actual, live) {
			base := len(e.roots)
			for _, root := range e.widen(cs.Fn, cg, actual) {
				e.explore(nfr, cg.ValueNode(root), live)
			}
			e.roots = e.roots[:base]
		}
		e.path.reset(mark)
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

// retReceiver maps a return-operand index of callee (whose graph is g) to
// the receiver value of a call in caller's graph (-1: none).
func retReceiver(callee *ir.Func, g, caller *seg.Graph, call int32, retIdx int) int32 {
	auxStart := g.RetArgs() - len(callee.AuxOut)
	var dstIdx int
	if retIdx >= auxStart {
		dstIdx = 1 + (retIdx - auxStart)
	}
	if dsts := caller.Dsts(call); dstIdx < len(dsts) {
		return dsts[dstIdx]
	}
	return -1
}

// sanitized reports whether the sink is guarded by a sanitizer predicate
// applied to one of the tainted values on the path (the WithSanitizers
// extension). The check walks the sink's transitive control dependences and
// the defining chains of their branch conditions looking for a sanitizer
// call whose argument is a path value.
func (e *Engine) sanitized(fr *frame, g *seg.Graph, sink int32) bool {
	if len(e.lead.SanitizerCalls) == 0 {
		return false
	}
	pathVals := make([]bool, fr.fn.NumValues()) // by value ID
	for _, st := range e.path.steps {
		if st.inst == fr.inst {
			pathVals[st.val()] = true
		}
	}
	seenBlocks := make([]bool, fr.fn.NumBlocks()) // by block ID
	var fromBlock func(b int32) bool
	var fromValue func(v int32, depth int) bool
	fromValue = func(v int32, depth int) bool {
		def := g.Value(v).Def
		if depth > 8 || def < 0 {
			return false
		}
		if g.In(def).Op == ir.OpCall && e.lead.SanitizerCalls[g.Callee(def)] {
			for _, a := range g.Args(def) {
				if pathVals[a] {
					return true
				}
			}
		}
		for _, a := range g.Args(def) {
			if fromValue(a, depth+1) {
				return true
			}
		}
		return false
	}
	fromBlock = func(b int32) bool {
		if seenBlocks[b] {
			return false
		}
		seenBlocks[b] = true
		deps := g.CDeps(b)
		for i := 0; i < len(deps); i += 3 {
			if fromValue(deps[i+1], 0) || fromBlock(deps[i]) {
				return true
			}
		}
		return false
	}
	return fromBlock(g.In(sink).Block)
}

// emitCandidate finalizes a candidate path for the members whose sink the
// terminal is: each counts it and reports it as its own search would, but the
// feasibility query is encoded and decided once.
func (e *Engine) emitCandidate(fr *frame, g *seg.Graph, term int32, sinks uint64) {
	sink := g.Instr(term)
	key := Site{fr.fn, sink}
	p := &e.path
	var (
		checked bool
		verdict smt.Result
		query   Stats // what the one query adds to the counters of a member
		witness []string
		prov    *Provenance
	)
	for i := range e.members {
		m := &e.members[i]
		if sinks>>i&1 == 0 || m.reported[key] {
			continue
		}
		if !checked {
			// The members agree on the sanitizers, so on this too.
			if e.sanitized(fr, g, sink) {
				return
			}
			checked, verdict = true, smt.Sat
			condTerms, answered := 0, VerdictUnchecked
			if !e.opts.DisablePathSensitivity {
				verdict, witness, condTerms, answered = e.checkCandidate(m.spec.Name, &query)
				e.solved++
			}
			if e.opts.Witness && verdict == smt.Sat {
				prov = &Provenance{
					Hops:          hopsFromSteps(p.steps, p.conds),
					CondTerms:     condTerms,
					VerdictSource: answered,
				}
			}
		}
		m.candidates++
		m.stats.Candidates++
		addStats(&m.stats, query)
		query.SMTTime = 0 // the member that asked first has it
		if verdict != smt.Sat {
			continue
		}
		if m.reported == nil {
			m.reported = make(map[Site]bool)
		}
		m.reported[key] = true
		m.reports = append(m.reports, Report{
			Checker:    m.spec.Name,
			SourceFn:   e.srcFn.Name,
			SinkFn:     fr.fn.Name,
			SourcePos:  e.srcG.Position(e.srcAt),
			SinkPos:    g.Position(sink),
			Source:     Site{e.srcFn, e.srcAt},
			Sink:       key,
			PathLen:    len(p.steps),
			Contexts:   e.countInstances(p.steps),
			Verdict:    verdict,
			Witness:    witness,
			Provenance: prov,
		})
	}
}

// countInstances returns the number of function instances the steps visit.
func (e *Engine) countInstances(steps []gstep) int {
	e.seen.reset(e.nextInst)
	n := 0
	for _, s := range steps {
		if e.seen.add(int32(s.inst)) {
			n++
		}
	}
	return n
}
