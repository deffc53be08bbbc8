// Package detect implements Pinpoint's demand-driven, compositional,
// context- and path-sensitive global value-flow analysis (§3.3).
//
// Given the per-function SEGs, a checker spec (package checkers) and a
// source, the engine searches forward along value-flow edges, composing
// memoized local flows (package summary) across function boundaries:
//
//   - at a call argument it descends into the callee's parameter (the
//     context grows by the call site — cloning-based context sensitivity);
//   - at a return operand it pops back to the originating call site's
//     receiver, or, when the search started inside the callee, ascends to
//     every caller (capped);
//   - when the tracked value is a parameter of the source's own function,
//     the search likewise ascends: the caller's actual argument is the
//     dangling value after the call (the VF3 pattern of §3.3.2).
//
// Each candidate source→sink path is translated to an SMT query
// implementing Equations 1–3: the conjunction of edge conditions, control
// dependences, inter-procedural boundary equalities, and the recursive
// data-dependence closure DD(·), with every variable renamed per context
// instance. Apparently-contradictory candidates are discarded by the
// linear-time solver first; only survivors reach the SMT solver.
package detect

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/seg"
	"repro/internal/smt"
	"repro/internal/ssa"
)

// CallSite locates one call instruction.
type CallSite struct {
	Fn    *ir.Func
	Instr *ir.Instr
}

// Program bundles the whole-program analysis artifacts.
type Program struct {
	Module  *ir.Module
	Infos   map[*ir.Func]*ssa.Info
	SEGs    map[*ir.Func]*seg.Graph
	Callers map[*ir.Func][]CallSite

	// sticky, when non-nil, holds detection caches that persist across
	// CheckAll calls on this Program (and, via NewProgramFrom, across
	// incremental rebuilds). Plain NewProgram leaves it nil, so each
	// CheckAll starts cold — the historical behavior that scaling
	// measurements rely on.
	sticky *caches
}

// NewProgram indexes the call sites of a fully analyzed module.
func NewProgram(m *ir.Module, infos map[*ir.Func]*ssa.Info, segs map[*ir.Func]*seg.Graph) *Program {
	return &Program{Module: m, Infos: infos, SEGs: segs, Callers: indexCallers(m)}
}

// EnableCachePersistence makes detection caches survive across CheckAll
// calls on this Program. Cache contents are memoized pure functions of the
// frozen per-function SEGs, so persistence changes wall-clock and the
// hit/miss and run/replay counters but never the reports.
func (p *Program) EnableCachePersistence() {
	if p.sticky == nil {
		p.sticky = newCaches(p)
	}
}

// ReplayTableSize reports how many task results the Program's persistent
// caches currently hold for replay (0 without persistence).
func (p *Program) ReplayTableSize() int {
	if p.sticky == nil {
		return 0
	}
	n := 0
	for _, fc := range p.sticky.fn {
		for _, st := range fc.specs {
			for i := range st.tasks {
				if st.tasks[i].memo != nil {
					n++
				}
			}
		}
	}
	return n
}

// NewProgramFrom indexes a rebuilt module and carries over prev's persistent
// detection caches for every function whose SEG pointer survived the rebuild
// — exactly the functions the incremental session retained: their flow
// summaries, linear solvers, reverse indexes, frozen preparation state, task
// lists and recorded task results (each of which replays only while its
// footprint holds in the new Program; see replay.go). Rebuilt functions get
// fresh (empty) cache entries, and only they are walked to bring the
// call-site index up to date. The may-free-parameter relation is carried for
// every function that cannot reach a rebuilt one. The returned Program has
// cache persistence enabled.
func NewProgramFrom(prev *Program, m *ir.Module, infos map[*ir.Func]*ssa.Info, segs map[*ir.Func]*seg.Graph) *Program {
	if prev == nil || prev.sticky == nil {
		p := NewProgram(m, infos, segs)
		p.sticky = newCaches(p)
		return p
	}
	p := &Program{Module: m, Infos: infos, SEGs: segs}
	old := prev.sticky
	c := &caches{fn: make(map[*ir.Func]*fnCache, len(m.Funcs)), names: old.names}
	p.sticky = c
	retained := func(f *ir.Func) bool {
		g := segs[f]
		return g != nil && prev.SEGs[f] == g
	}
	// fresh lists the functions without a predecessor object (rebuilt or
	// new). sameNames: the two modules define the same names, so every
	// fresh function replaces the previous holder of its name and every
	// callee name resolves as it did.
	var fresh []*ir.Func
	sameNames := len(m.Funcs) == len(prev.Module.Funcs)
	for _, f := range m.Funcs {
		if retained(f) {
			c.fn[f] = old.fn[f]
			continue
		}
		fresh = append(fresh, f)
		if segs[f] != nil {
			c.fn[f] = newFnCache()
		}
		if _, had := prev.Module.ByName[f.Name]; !had {
			sameNames = false
		}
	}
	switch {
	case !sameNames:
		// Name resolution moved under retained callers too: re-index, and
		// let neither the relation nor any recorded task result survive.
		p.Callers = indexCallers(m)
		c.names = new(nameSet)
		c.frees = make(map[*ir.Func][]bool, len(m.Funcs))
		c.stale = m.Funcs
	case len(fresh) == 0:
		p.Callers, c.frees, c.stale = prev.Callers, old.frees, old.stale
	default:
		p.Callers = patchCallers(prev, m, fresh, retained)
		// May-free relation: a function's vector depends on its own flows
		// and on the vectors of what it calls, so exactly the functions
		// that reach a fresh one (or one that was stale already) need
		// recomputing: seed with those and close under callers.
		c.frees = maps.Clone(old.frees)
		c.stale = slices.Clone(fresh)
		for _, f := range fresh {
			delete(c.frees, prev.Module.ByName[f.Name])
		}
		for _, f := range old.stale {
			if retained(f) {
				c.stale = append(c.stale, f)
			}
		}
		queued := make(map[*ir.Func]bool, len(c.stale))
		for _, f := range c.stale {
			queued[f] = true
		}
		for i := 0; i < len(c.stale); i++ {
			for _, cs := range p.Callers[c.stale[i]] {
				if !queued[cs.Fn] {
					queued[cs.Fn] = true
					delete(c.frees, cs.Fn)
					c.stale = append(c.stale, cs.Fn)
				}
			}
		}
	}
	return p
}

// patchCallers derives m's call-site index from prev's when the two modules
// define the same names and differ in the fresh functions, each of which
// replaces the previous holder of its name: the sites inside replaced
// functions go, the sites inside their replacements come. Only the lists of
// callees named on either side (and the replaced functions' own lists, which
// change key) are rebuilt; every other list is shared with prev, slice and
// all — which is what lets a recorded ascent compare equal afterwards.
func patchCallers(prev *Program, m *ir.Module, fresh []*ir.Func, retained func(*ir.Func) bool) map[*ir.Func][]CallSite {
	callers := maps.Clone(prev.Callers)
	affected := make(map[string]bool)
	added := make(map[string][]CallSite) // by callee name
	for _, f := range fresh {
		was := prev.Module.ByName[f.Name]
		delete(callers, was)
		affected[f.Name] = true
		forEachCall(was, func(in *ir.Instr) { affected[in.Callee] = true })
		forEachCall(f, func(in *ir.Instr) {
			affected[in.Callee] = true
			added[in.Callee] = append(added[in.Callee], CallSite{Fn: f, Instr: in})
		})
	}
	rank := make(map[*ir.Func]int, len(m.Funcs))
	for i, f := range m.Funcs {
		rank[f] = i
	}
	for name := range affected {
		callee, defined := m.ByName[name]
		if !defined {
			continue
		}
		var sites []CallSite
		for _, cs := range prev.Callers[prev.Module.ByName[name]] {
			if retained(cs.Fn) {
				sites = append(sites, cs)
			}
		}
		sites = append(sites, added[name]...)
		// Callers in module order; stable, so that each caller's sites
		// stay in instruction order.
		sort.SliceStable(sites, func(i, j int) bool { return rank[sites[i].Fn] < rank[sites[j].Fn] })
		if len(sites) > 0 {
			callers[callee] = sites
		} else {
			delete(callers, callee)
		}
	}
	return callers
}

// forEachCall visits f's call instructions in block and instruction order.
func forEachCall(f *ir.Func, visit func(*ir.Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				visit(in)
			}
		}
	}
}

// indexCallers lists every defined function's call sites, callers in module
// order and each caller's sites in instruction order.
func indexCallers(m *ir.Module) map[*ir.Func][]CallSite {
	callers := make(map[*ir.Func][]CallSite)
	for _, f := range m.Funcs {
		forEachCall(f, func(in *ir.Instr) {
			if callee, ok := m.ByName[in.Callee]; ok {
				callers[callee] = append(callers[callee], CallSite{Fn: f, Instr: in})
			}
		})
	}
	return callers
}

// Options tunes the engine. The zero value selects paper-like defaults.
type Options struct {
	// MaxCallDepth bounds the number of function instances on one path
	// (the paper uses six nested levels).
	MaxCallDepth int
	// MaxExpansions bounds search work per source.
	MaxExpansions int
	// MaxCandidates bounds candidate paths per source.
	MaxCandidates int
	// MaxCallers bounds call sites enumerated per ascent.
	MaxCallers int
	// DisablePathSensitivity skips the SMT feasibility check and reports
	// every candidate (the path-sensitivity ablation).
	DisablePathSensitivity bool
	// SMTBudget bounds DD constraints emitted per query.
	SMTBudget int
	// MaxReportsPerChecker stops after this many reports (0 = unlimited).
	MaxReportsPerChecker int
	// SameUnitOnly confines the search to one compilation unit (the
	// Infer-/CSA-like baselines of §5.4 analyze one unit at a time).
	SameUnitOnly bool
	// IgnoreOrdering drops the happens-after requirement of
	// ordering-sensitive checkers (a deliberate imprecision of the
	// Infer-like baseline).
	IgnoreOrdering bool
	// DisableLinearFilter turns off the linear-time contradiction
	// pre-filter on accumulated path conditions, sending every candidate
	// to the SMT solver (the §3.1.1 ablation).
	DisableLinearFilter bool
	// DisableSMTPrefilter turns off the linear-time semi-decision
	// refutation pass that answers Unsat without entering the DPLL(T)
	// loop. Reports are identical either way; the differential tests use
	// the prefilter-off run as their reference.
	DisableSMTPrefilter bool
	// Workers sets the detection worker-pool size used by CheckAll: 0 or
	// 1 runs sequentially, negative selects GOMAXPROCS. The reported
	// results are identical at every setting; only wall-clock changes.
	Workers int
	// Witness enables per-report provenance capture (Report.Provenance):
	// the ordered value-flow hops of the reported path, the
	// path-condition term count, and the verdict source. Off by default,
	// in which case the search allocates nothing for provenance.
	Witness bool
	// TraceID, when non-empty, tags every scheduler task span with a
	// trace_id argument so trace events can be correlated with the
	// request-scoped log lines and reports of the analysis service.
	TraceID string
	// Obs, when non-nil, receives detection metrics (SMT latency
	// histograms, SAT-core counters, summary-cache hit rates, per-worker
	// utilization) and — when the recorder is tracing — per-task and
	// per-SMT-query spans. Recording never changes the reported results;
	// nil disables all of it.
	Obs *obs.Recorder
}

// resultKey strips the options that cannot change a task's outcome — how
// the work is scheduled, observed, and capped at merge time — leaving the
// key a recorded task result is valid under.
func (o Options) resultKey() Options {
	o.Workers, o.MaxReportsPerChecker, o.TraceID, o.Obs = 0, 0, "", nil
	return o
}

func (o Options) withDefaults() Options {
	if o.MaxCallDepth == 0 {
		o.MaxCallDepth = 6
	}
	if o.MaxExpansions == 0 {
		o.MaxExpansions = 8000
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 128
	}
	if o.MaxCallers == 0 {
		o.MaxCallers = 8
	}
	if o.SMTBudget == 0 {
		o.SMTBudget = 500
	}
	return o
}

// Report is one warning. Source–sink checkers fill the sink fields; the
// unreleased-resource (memory-leak) checker leaves Sink nil and sets Kind.
type Report struct {
	Checker string
	// Kind sub-classifies reports of checkers that distinguish flavors
	// (memory-leak: "never-freed" / "conditionally-freed"); empty for
	// plain source–sink reports.
	Kind      string
	SourceFn  string
	SinkFn    string
	SourcePos minic.Pos
	SinkPos   minic.Pos
	Source    *ir.Instr
	Sink      *ir.Instr
	// PathLen is the number of SEG vertices on the witnessing path.
	PathLen int
	// Contexts is the number of function instances traversed.
	Contexts int
	// Verdict records the SMT result (Sat unless path sensitivity is
	// disabled, in which case candidates are reported unchecked).
	Verdict smt.Result
	// Witness is a satisfying assignment of the branch conditions along
	// the path — the trigger recipe for the bug. Entries look like
	// "c@f = true". Empty when path sensitivity is disabled.
	Witness []string
	// Provenance, captured only when Options.Witness is on, explains the
	// report: the traversed value-flow hops, the path-condition size, and
	// the verdict source. Nil otherwise.
	Provenance *Provenance
}

func (r Report) String() string {
	if r.Sink == nil && r.Kind != "" {
		return fmt.Sprintf("[%s] allocation at %s (%s) is %s", r.Checker, r.SourcePos, r.SourceFn, r.Kind)
	}
	return fmt.Sprintf("[%s] value from %s (%s) reaches %s (%s); path %d vertices, %d contexts",
		r.Checker, r.SourcePos, r.SourceFn, r.SinkPos, r.SinkFn, r.PathLen, r.Contexts)
}

// Stats aggregates engine effort counters.
type Stats struct {
	Sources        int
	Expansions     int
	Candidates     int
	LinearFiltered int
	SMTQueries     int
	SMTSat         int
	SMTUnsat       int
	SMTUnknown     int
	// SMTSolved and SMTPrefilterUnsat partition SMTQueries by the step
	// that answered (see encoder.decide); both are deterministic
	// properties of each candidate.
	SMTSolved         int
	SMTPrefilterUnsat int
	// SMTCacheHits is always zero; it stays only because benchmark/ reads it.
	SMTCacheHits      int `json:"-"`
	SMTTime           time.Duration
	SummaryCapHits    int
	TruncatedSearches int
	// Escaped counts allocations conservatively assumed freed elsewhere
	// (unreleased-resource checkers only).
	Escaped int
}

// String renders the source–sink effort counters in the one-line shape
// shared by cmd/pinpoint's -stats output and the examples.
func (s Stats) String() string {
	return fmt.Sprintf("%d sources, %d candidates, %d SMT queries (%d sat/%d unsat; %d solved/%d prefiltered), %s solving",
		s.Sources, s.Candidates, s.SMTQueries, s.SMTSat, s.SMTUnsat,
		s.SMTSolved, s.SMTPrefilterUnsat, s.SMTTime)
}

// instCond tracks the accumulated local condition of one context instance.
type instCond struct {
	fn   *ir.Func
	cond *cond.Cond
}

// boundary is an inter-procedural value equality (actual=formal or
// return=receiver) between two context instances.
type boundary struct {
	instA int
	valA  *ir.Value
	instB int
	valB  *ir.Value
	// equality is false for taint-transfer steps through external
	// calls, where the value changes but the property propagates.
	equality bool
}

// gstep is one SEG vertex on a global path, tagged with its instance.
type gstep struct {
	inst int
	node *seg.Node
}

// candidate is a complete source→sink path awaiting feasibility checking.
type candidate struct {
	steps     []gstep
	bounds    []boundary
	conds     []instCond // by instance number; fn == nil = none
	sink      *seg.Node
	sinkInst  int
	sourceAt  *ir.Instr
	sourceFn  *ir.Func
	instances int
}
