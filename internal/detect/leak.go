package detect

import (
	"slices"
	"time"

	"repro/internal/ir"
	"repro/internal/seg"
	"repro/internal/smt"
)

// Memory-leak detection — the classic "source without a mandatory sink"
// value-flow property (Fastcheck/Saber, cited in §1 of the paper). Unlike
// the source–sink checkers, a leak is the *absence* of a flow: an
// allocation leaks when, on some feasible path, its value reaches no free.
//
// The checker is path-sensitive in the Pinpoint style: it collects every
// free the allocation may reach together with the conditions under which
// that free executes, then asks the SMT solver whether
//
//	CD(malloc) ∧ ¬(cond(free₁) ∨ cond(free₂) ∨ …)
//
// is satisfiable. Escaping allocations — returned past the program
// boundary, stored into caller-visible or global memory, or passed to an
// unknown external — are conservatively assumed freed elsewhere.

// LeakKind classifies leak reports.
type LeakKind uint8

const (
	// LeakNeverFreed: no free is reachable from the allocation at all.
	LeakNeverFreed LeakKind = iota
	// LeakConditional: frees exist but some feasible path avoids all of
	// them.
	LeakConditional
)

func (k LeakKind) String() string {
	if k == LeakNeverFreed {
		return "never-freed"
	}
	return "conditionally-freed"
}

// leakReport starts the report of a leaked allocation: the uniform Report
// shape with Kind set and no sink.
func leakReport(checker string, f *ir.Func, g *seg.Graph, alloc int32, kind LeakKind) *Report {
	return &Report{
		Checker: checker, Kind: kind.String(), SourceFn: f.Name, SourcePos: g.Position(alloc),
		Source: Site{f, alloc}, Verdict: smt.Sat,
	}
}

// computeFreesParam builds the transitive may-free-parameter relation of
// the stale functions: a worklist over what prepare recorded of each
// parameter's local flows (caches.paramFacts) — whether one ends at a free,
// and the call arguments the others end at. A function's vector is recomputed
// when the vector of one of its callees grew, until none does. On fresh
// caches every function is stale and this is the whole-program least
// fixpoint. After a carry-over the stale set is closed under callers, so
// every other function reaches only functions whose entries were carried
// with it: its value is final, and the least fixpoint over the stale set
// against those constants is the whole program's.
//
// The relation is only ever read for the callee of a call site, so a
// function nobody calls is left out — and stays stale, to be picked up if an
// edit gives it a caller. Entry points tend to be the largest fan-outs of a
// program; enumerating their parameters' flows for an answer no one can ask
// for is the bulk of what this pass used to allocate on them.
//
// It leaves the relation read-only for the concurrent per-allocation queries
// (checkAlloc).
func computeFreesParam(prog *Program, c *caches) {
	called := func(f *ir.Func) bool { return len(prog.Callers(f)) > 0 }
	if !slices.ContainsFunc(c.stale, called) {
		return // what is stale stays so: a warm request's usual case
	}
	var work, uncalled []*ir.Func
	for _, f := range c.stale {
		if !called(f) {
			uncalled = append(uncalled, f)
			continue
		}
		c.frees[f.ID] = make([]bool, len(f.Params))
		if prog.SEG(f) != nil {
			work = append(work, f)
		}
	}
	c.stale = uncalled
	if len(work) == 0 {
		return
	}
	// By Func.ID: whether the function is one of work's, and already waiting.
	const idle, queued = 1, 2
	state := make([]uint8, len(c.frees))
	for _, f := range work {
		state[f.ID] = queued
	}
	var r reach
	for i := 0; i < len(work); i++ {
		f := work[i]
		state[f.ID] = idle
		grew := false
		g := prog.SEG(f)
		for pi, pf := range c.paramFacts(f, g, &r) {
			if !c.frees[f.ID][pi] && (pf.frees || c.passedToFree(prog.Module, g, pf.passed)) {
				c.frees[f.ID][pi], grew = true, true
			}
		}
		if !grew {
			continue
		}
		for _, cs := range prog.Callers(f) {
			if state[cs.Fn.ID] == idle {
				state[cs.Fn.ID] = queued
				work = append(work, cs.Fn)
			}
		}
	}
}

// mayFree reads the relation; an argument beyond the callee's parameter
// list (a call with too many arguments) is freed by no one.
func (c *caches) mayFree(callee *ir.Func, argIdx int) bool {
	fr := c.frees[callee.ID]
	return argIdx < len(fr) && fr[argIdx]
}

// passedToFree reports whether one of the call arguments (vertices of g)
// reaches a defined callee that may free it.
func (c *caches) passedToFree(m *ir.Module, g *seg.Graph, args []int32) bool {
	for _, arg := range args {
		if callee := m.Lookup(g.Callee(g.Instr(arg))); callee != nil && c.mayFree(callee, int(g.Node(arg).ArgIdx)) {
			return true
		}
	}
	return false
}

// checkAlloc analyzes one allocation for the named checker, counting it (and
// whether it escapes, and any SMT query it needs) into stats and the may-free
// vectors it consults into the footprint; it returns a report or nil.
func (e *Engine) checkAlloc(checker string, f *ir.Func, g *seg.Graph, alloc int32, stats *Stats) *Report {
	stats.Sources++
	var frees []localFlow
	escaped := false

	wm := e.w.walk(g, g.ValueNode(g.In(alloc).Dst))
	for _, fl := range e.w.flows[wm.flows:] {
		term := g.Node(fl.term)
		switch term.Role {
		case seg.RoleFreeArg:
			frees = append(frees, fl)
		case seg.RoleCallArg:
			callee := e.prog.Module.Lookup(g.Callee(g.Instr(fl.term)))
			if callee == nil {
				// Passed to an external: assume it takes ownership.
				escaped = true
				continue
			}
			e.fp.readMayFree(callee.Name, e.caches.frees[callee.ID])
			if e.caches.mayFree(callee, int(term.ArgIdx)) {
				// A callee may free it; treat like a reached free with
				// the call's conditions.
				frees = append(frees, fl)
			}
		case seg.RoleRetArg:
			// Returned: ownership moves to callers; with no callers the
			// program boundary takes it.
			escaped = true
		case seg.RoleStoreVal:
			// Stored: escapes if the target may be caller-visible or
			// global memory. Stores into program-local stack or heap
			// cells keep the value tracked (the SEG's load edges carry
			// it onward).
			if g.In(g.Instr(fl.term)).Escapes() {
				escaped = true
			}
		}
	}
	e.w.pop(wm)
	if escaped {
		stats.Escaped++
		return nil
	}
	if len(frees) == 0 {
		rep := leakReport(checker, f, g, alloc, LeakNeverFreed)
		if e.opts.Witness {
			rep.Provenance = &Provenance{
				Hops:          []Hop{allocHop(f, g, alloc)},
				VerdictSource: VerdictStructural,
			}
		}
		return rep
	}

	// Path-sensitive residue: is there an execution where the allocation
	// happens but none of the reached frees does?
	start := time.Now()
	s := smt.GetSolver()
	defer smt.PutSolver(s)
	enc := newEncoder(e.prog, s.TB, smtBudget)
	enc.instG[0] = g
	// The allocation executes...
	enc.assertCond(0, g, g.CD(alloc))
	// ...and every reached free is avoided.
	for _, rf := range frees {
		t := enc.condTerm(0, g, rf.cond)
		enc.add(enc.tb.Not(t))
	}
	res, model, src := enc.decide(s, e.opts, checker, e.tid, start, stats)
	if res != smt.Sat {
		return nil
	}
	rep := leakReport(checker, f, g, alloc, LeakConditional)
	rep.Witness = extractWitness(model, enc)
	if e.opts.Witness {
		// The "path" of a leak is the set of flows whose frees the model
		// avoids: the allocation first, then each reached free terminal in
		// the deterministic flow-enumeration order.
		hops := []Hop{allocHop(f, g, alloc)}
		for _, rf := range frees {
			term := rf.term
			h := Hop{Fn: f.Name, Node: g.NodeString(term)}
			if in := g.Instr(term); in >= 0 {
				h.Pos = g.Position(in)
			}
			hops = append(hops, h)
		}
		rep.Provenance = &Provenance{
			Hops:          hops,
			CondTerms:     len(enc.terms),
			VerdictSource: src,
		}
	}
	return rep
}

// allocHop renders the allocation site of a leak report as the path's first
// hop.
func allocHop(f *ir.Func, g *seg.Graph, alloc int32) Hop {
	return Hop{Fn: f.Name, Node: g.ValueString(g.In(alloc).Dst), Pos: g.Position(alloc)}
}
