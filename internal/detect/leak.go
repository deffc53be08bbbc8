package detect

import (
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/smt"
	"repro/internal/summary"
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

// LeakReport is one leaked allocation.
type LeakReport struct {
	Fn    string
	Pos   minic.Pos
	Alloc *ir.Instr
	Kind  LeakKind
	// Witness is a branch assignment avoiding every reachable free
	// (LeakConditional only).
	Witness []string
	// Provenance, captured only when Options.Witness is on, records the
	// allocation-to-free hops considered, the query size, and the verdict
	// source (VerdictStructural for never-freed allocations).
	Provenance *Provenance
}

func (r LeakReport) String() string {
	return fmt.Sprintf("[memory-leak] allocation at %s (%s) is %s", r.Pos, r.Fn, r.Kind)
}

type leakChecker struct {
	prog   *Program
	opts   Options
	caches *caches
}

// newLeakChecker builds the checker and brings the may-free-parameter
// relation (caches.frees) up to date, counting the flow lookups that takes
// into n. The relation is read-only afterwards, so the checker can serve
// concurrent per-allocation queries (checkAlloc) against shared caches.
func newLeakChecker(prog *Program, opts Options, c *caches, n *flowCounts) *leakChecker {
	lc := &leakChecker{prog: prog, opts: opts, caches: c}
	lc.computeFreesParam(n)
	return lc
}

// computeFreesParam builds the transitive may-free-parameter relation of
// the stale functions by iterating over them to a fixpoint (the call graph
// is small relative to the SEGs; a global loop converges in few rounds). On
// fresh caches every function is stale and this is the whole-program least
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
func (lc *leakChecker) computeFreesParam(n *flowCounts) {
	c := lc.caches
	var work, uncalled []*ir.Func
	for _, f := range c.stale {
		if len(lc.prog.Callers(f)) == 0 {
			uncalled = append(uncalled, f)
			continue
		}
		c.frees[f.ID] = make([]bool, len(f.Params))
		if lc.prog.SEG(f) != nil {
			work = append(work, f)
		}
	}
	for changed := len(work) > 0; changed; {
		changed = false
		for _, f := range work {
			g := lc.prog.SEG(f)
			for _, p := range f.Params {
				if c.frees[f.ID][p.ParamIdx()] {
					continue
				}
				if lc.paramMayFree(g, p, n) {
					c.frees[f.ID][p.ParamIdx()] = true
					changed = true
				}
			}
		}
	}
	c.stale = uncalled
}

// mayFree reads the relation; an argument beyond the callee's parameter
// list (a call with too many arguments) is freed by no one.
func (lc *leakChecker) mayFree(callee *ir.Func, argIdx int) bool {
	fr := lc.caches.frees[callee.ID]
	return argIdx < len(fr) && fr[argIdx]
}

func (lc *leakChecker) paramMayFree(g *seg.Graph, p *ir.Value, n *flowCounts) bool {
	for _, fl := range lc.caches.flowsFrom(g, g.ValueNode(p), n) {
		term := fl.Terminal()
		switch term.Role {
		case seg.RoleFreeArg:
			return true
		case seg.RoleCallArg:
			if callee := lc.prog.Module.Lookup(term.Instr.Callee()); callee != nil && lc.mayFree(callee, int(term.ArgIdx)) {
				return true
			}
		}
	}
	return false
}

// checkAlloc analyzes one allocation, counting it (and whether it escapes,
// and any SMT query it needs) into stats, its flow lookups into n, and the
// may-free vectors it consults into fp (nil = not recording); it returns a
// report or nil. tid is the trace track of the calling worker (its SMT query
// span lands there when the run is being traced).
func (lc *leakChecker) checkAlloc(f *ir.Func, g *seg.Graph, alloc *ir.Instr, stats *Stats, n *flowCounts, fp *footprint, tid int) *LeakReport {
	stats.Sources++
	type reachedFree struct {
		flow summary.Flow
	}
	var frees []reachedFree
	escaped := false

	for _, fl := range lc.caches.flowsFrom(g, g.ValueNode(alloc.Dst), n) {
		term := fl.Terminal()
		switch term.Role {
		case seg.RoleFreeArg:
			frees = append(frees, reachedFree{flow: fl})
		case seg.RoleCallArg:
			callee := lc.prog.Module.Lookup(term.Instr.Callee())
			if callee == nil {
				// Passed to an external: assume it takes ownership.
				escaped = true
				continue
			}
			fp.readMayFree(callee.Name, lc.caches.frees[callee.ID])
			if lc.mayFree(callee, int(term.ArgIdx)) {
				// A callee may free it; treat like a reached free with
				// the call's conditions.
				frees = append(frees, reachedFree{flow: fl})
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
			for _, gl := range g.PTA.StoredAt(term.Instr) {
				if gl.Loc.Kind != pta.LAlloc && gl.Loc.Kind != pta.LMalloc {
					escaped = true
				}
			}
		}
	}
	if escaped {
		stats.Escaped++
		return nil
	}
	if len(frees) == 0 {
		rep := &LeakReport{
			Fn: f.Name, Pos: alloc.Position(), Alloc: alloc, Kind: LeakNeverFreed,
		}
		if lc.opts.Witness {
			rep.Provenance = &Provenance{
				Hops:          []Hop{allocHop(f, alloc)},
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
	enc := newEncoder(lc.prog, s.TB, lc.opts.SMTBudget)
	enc.instFn[0] = f
	// The allocation executes...
	enc.assertCond(0, f, g.CD(alloc))
	// ...and every reached free is avoided.
	for _, rf := range frees {
		c := rf.flow.Cond(g)
		t := enc.condTerm(0, f, c)
		enc.add(enc.tb.Not(t))
	}
	res, model, src := enc.decide(s, lc.opts, "memory-leak", tid, start, stats)
	if res != smt.Sat {
		return nil
	}
	rep := &LeakReport{
		Fn: f.Name, Pos: alloc.Position(), Alloc: alloc, Kind: LeakConditional,
		Witness: extractWitness(model, enc),
	}
	if lc.opts.Witness {
		// The "path" of a leak is the set of flows whose frees the model
		// avoids: the allocation first, then each reached free terminal in
		// the deterministic flow-enumeration order.
		hops := []Hop{allocHop(f, alloc)}
		for _, rf := range frees {
			term := rf.flow.Terminal()
			h := Hop{Fn: f.Name, Node: term.String()}
			if term.Instr != nil {
				h.Pos = term.Instr.Position()
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
func allocHop(f *ir.Func, alloc *ir.Instr) Hop {
	return Hop{Fn: f.Name, Node: alloc.Dst.String(), Pos: alloc.Position()}
}
