// Package detect implements Pinpoint's demand-driven, compositional,
// context- and path-sensitive global value-flow analysis (§3.3).
//
// Given the per-function SEGs, a checker spec (package checkers) and a
// source, the engine searches forward along value-flow edges, composing the
// local flows a walk of each function's graph yields (walk.go) across
// function boundaries:
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
	"slices"
	"sort"
	"time"

	"repro/internal/cond"
	"repro/internal/dense"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/seg"
	"repro/internal/smt"
	"repro/internal/ssa"
)

// Site locates one instruction: its function, and its ID there.
type Site struct {
	Fn    *ir.Func
	Instr int32
}

// CallSite locates one call instruction.
type CallSite = Site

// Program bundles the whole-program analysis artifacts. The per-function
// tables are indexed by ir.Func.ID. Detection reads the functions' SEGs only;
// of a function itself, only its shell (name, ID, unit, interface).
type Program struct {
	Module  *ir.Module
	segs    dense.Table[*seg.Graph]
	callers dense.Table[[]CallSite]

	// c holds the detection caches, which persist across CheckAll calls on
	// this Program and, via NewProgramFrom, across incremental rebuilds: the
	// calls share linear solvers and parameter facts and replay recorded
	// task results. They are made by the first CheckAll (or carry-over) that
	// needs them, so a Program that is never checked holds none.
	c caches
}

// SEG returns f's symbolic expression graph (nil for a function without one).
func (p *Program) SEG(f *ir.Func) *seg.Graph { return p.segs.At(f.ID) }

// Callers returns the call sites of f, callers in module order and each
// caller's sites in instruction order.
func (p *Program) Callers(f *ir.Func) []CallSite { return p.callers.At(f.ID) }

// NewProgram indexes the call sites of a fully analyzed module. The SSA
// infos are not read: a SEG carries what detection needs of its function.
func NewProgram(m *ir.Module, _ map[*ir.Func]*ssa.Info, segs map[*ir.Func]*seg.Graph) *Program {
	gs := dense.NewTable[*seg.Graph](m.Layout.NumIDs())
	for pos := range m.NumFuncs() {
		f := m.Func(pos)
		gs.Set(f.ID, segs[f])
	}
	return NewProgramIndexed(m, gs.Fork())
}

// NewProgramIndexed is NewProgram over a table of SEGs indexed by ir.Func.ID,
// which no one writes any more.
func NewProgramIndexed(m *ir.Module, segs dense.Table[*seg.Graph]) *Program {
	return &Program{Module: m, segs: segs, callers: indexCallers(m, segs)}
}

// EnableCachePersistence does nothing: every Program keeps its detection
// caches across CheckAll calls. It stays because the benchmark module, whose
// surface is frozen, calls it.
func (p *Program) EnableCachePersistence() {}

// detectionCaches returns the Program's caches, making them on first use.
func (p *Program) detectionCaches() *caches {
	if p.c.names == nil {
		p.c = newCaches(p)
	}
	return &p.c
}

// ReplayTableSize reports how many task results the Program's caches
// currently hold for replay.
func (p *Program) ReplayTableSize() int {
	n := 0
	for id := range p.c.fn.Len() {
		fc := p.c.fn.At(id)
		if fc == nil {
			continue
		}
		for _, ts := range fc.tasks {
			for i := range ts {
				if ts[i].memo != nil {
					n++
				}
			}
		}
	}
	return n
}

// NewProgramFrom builds the Program of the module that succeeds prev's in an
// incremental session: segs is the new per-function table (indexed by
// ir.Func.ID, which no one writes any more) and fresh lists the functions of
// m that prev's module does not hold — rebuilt or new. It carries over prev's
// detection caches for every other function: their linear solvers, reverse
// indexes, parameter facts, task lists and recorded task results (each of
// which replays only while its footprint holds in the new Program; see
// replay.go). When the two modules share a Layout, nothing but the entries of
// the fresh functions is touched: their cache entries start empty, only they
// are walked to bring the call-site index up to date, the may-free-parameter
// relation is carried for every function that cannot reach one of them, and
// the task plan waits for prepare to splice their tasks in. The per-function
// tables are forks of prev's (dense.Table): they copy only the chunks those
// entries live in, and prev keeps answering as it did.
// With prev nil the Program starts cold, like NewProgramIndexed's.
func NewProgramFrom(prev *Program, m *ir.Module, segs dense.Table[*seg.Graph], fresh []*ir.Func) *Program {
	if prev == nil {
		return NewProgramIndexed(m, segs)
	}
	p := &Program{Module: m, segs: segs}
	old := prev.detectionCaches()
	if m.Layout != prev.Module.Layout {
		// Name resolution moved under retained callers too: re-index, and
		// let neither the relation, the plan, nor any recorded task result
		// survive. Per-function caches still do.
		p.callers = indexCallers(m, segs)
		p.c = newCachesFrom(p, prev)
		return p
	}
	p.c = caches{names: old.names, walks: old.walks, specs: old.specs, plan: old.plan,
		ran: old.ran, changed: old.changed, readers: old.readers, runs: old.runs}
	c := &p.c
	p.callers, c.fn, c.frees = prev.callers.Fork(), old.fn.Fork(), old.frees.Fork()
	if len(fresh) == 0 {
		c.stale, c.unplanned = old.stale, old.unplanned
		return p
	}
	for _, f := range fresh {
		var fc *fnCache
		if segs.At(f.ID) != nil {
			fc = new(fnCache)
		}
		c.fn.Set(f.ID, fc)
	}
	// A function prev's plan is still waiting for is either fresh again or
	// still waiting.
	c.unplanned = slices.Clone(fresh)
	for _, f := range old.unplanned {
		if m.Holds(f) {
			c.unplanned = append(c.unplanned, f)
		}
	}
	moved := patchCallers(prev, p, fresh)
	// What the run to come must hold the memos that read it against: the
	// graphs replaced, the caller lists that name other sites. (The may-free
	// vectors that move are known once that run recomputes them.)
	c.changed = slices.Clip(old.changed)
	for _, f := range fresh {
		c.changed = append(c.changed, fnChange{f.ID, readsGraph})
	}
	for _, id := range moved {
		c.changed = append(c.changed, fnChange{id, readsCallers})
	}
	// May-free relation: a function's vector depends on its own flows and on
	// the vectors of what it calls, so exactly the functions that reach a
	// fresh one (or one that was stale already) need recomputing. A function
	// is stale exactly when its entry is nil, and prev's stale set is closed
	// under prev's callers already: add each fresh function whose entry was
	// its predecessor's vector, and close what was added under callers. The
	// usual edit, of a function no one calls and that is stale already,
	// shares prev's list.
	c.stale = slices.Clip(old.stale)
	for _, f := range fresh {
		if c.frees.At(f.ID) != nil {
			c.frees.Set(f.ID, nil)
			c.stale = append(c.stale, int32(f.ID))
		}
	}
	for i := len(old.stale); i < len(c.stale); i++ {
		for _, cs := range p.callers.At(int(c.stale[i])) {
			if c.frees.At(cs.Fn.ID) != nil {
				c.frees.Set(cs.Fn.ID, nil)
				c.stale = append(c.stale, int32(cs.Fn.ID))
			}
		}
	}
	return p
}

// patchCallers brings p's call-site index, a fork of prev's, up to date when
// the two modules share a Layout and differ in the fresh functions, each of
// which replaces the previous holder of its ID — at its module position: the
// sites inside replaced functions go, the sites inside their replacements
// come. Only the lists of callees named on either side are rebuilt, each by
// splicing the runs of sites at the fresh functions' positions (a list is in
// module order); every other list is shared with prev, slice and all — which
// is what lets a recorded ascent compare equal afterwards. It returns the IDs
// of the callees whose rebuilt list differs.
func patchCallers(prev, p *Program, fresh []*ir.Func) (moved []int) {
	m := p.Module
	pos := func(f *ir.Func) int { return m.Layout.Pos(f.ID) }
	// By callee: a run per fresh function whose old or new graph calls it,
	// with the sites of the new graph's calls.
	type run struct {
		at    int
		sites []CallSite
	}
	runs := make(map[*ir.Func][]run)
	touch := func(callee *ir.Func, at int) *run {
		rs := runs[callee]
		if len(rs) == 0 || rs[len(rs)-1].at != at {
			rs = append(rs, run{at: at})
			runs[callee] = rs
		}
		return &rs[len(rs)-1]
	}
	for _, f := range fresh {
		at := pos(f)
		forEachCall(prev.segs.At(f.ID), func(callee string, _ int32) {
			if callee := m.Lookup(callee); callee != nil {
				touch(callee, at)
			}
		})
		forEachCall(p.segs.At(f.ID), func(callee string, in int32) {
			if callee := m.Lookup(callee); callee != nil {
				r := touch(callee, at)
				r.sites = append(r.sites, CallSite{Fn: f, Instr: in})
			}
		})
	}
	for callee, rs := range runs {
		slices.SortFunc(rs, func(a, b run) int { return a.at - b.at })
		was, n := prev.Callers(callee), 0
		for _, r := range rs {
			n += len(r.sites)
		}
		sites := make([]CallSite, 0, len(was)+n)
		from := 0
		for _, r := range rs {
			lo := from + sort.Search(len(was)-from, func(i int) bool { return pos(was[from+i].Fn) >= r.at })
			hi := lo
			for hi < len(was) && pos(was[hi].Fn) == r.at {
				hi++
			}
			sites = append(append(sites, was[from:lo]...), r.sites...)
			from = hi
		}
		sites = append(sites, was[from:]...)
		if !slices.Equal(sites, was) {
			moved = append(moved, callee.ID)
			p.callers.Set(callee.ID, sites)
		}
	}
	return moved
}

// forEachCall visits the calls of g's function in block and instruction
// order: the callee's name and the call's instruction ID. A nil graph has
// none.
func forEachCall(g *seg.Graph, visit func(callee string, in int32)) {
	if g == nil {
		return
	}
	for _, in := range g.Order() {
		if g.In(in).Op == ir.OpCall {
			visit(g.Callee(in), in)
		}
	}
}

// indexCallers lists every defined function's call sites, by callee ID:
// callers in module order and each caller's sites in instruction order.
func indexCallers(m *ir.Module, segs dense.Table[*seg.Graph]) dense.Table[[]CallSite] {
	callers := dense.NewTable[[]CallSite](m.Layout.NumIDs())
	for pos := range m.NumFuncs() {
		f := m.Func(pos)
		forEachCall(segs.At(f.ID), func(callee string, in int32) {
			if callee := m.Lookup(callee); callee != nil {
				callers.Set(callee.ID, append(callers.At(callee.ID), CallSite{Fn: f, Instr: in}))
			}
		})
	}
	return callers
}

// The search's fixed bounds: call sites enumerated per ascent, and DD
// constraints emitted per SMT query.
const (
	maxCallers = 8
	smtBudget  = 500
)

// Options tunes the engine. The zero value selects paper-like defaults.
type Options struct {
	// MaxCallDepth bounds the number of function instances on one path
	// (the paper uses six nested levels).
	MaxCallDepth int
	// MaxExpansions bounds search work per source.
	MaxExpansions int
	// MaxCandidates bounds candidate paths per source.
	MaxCandidates int
	// DisablePathSensitivity skips the SMT feasibility check and reports
	// every candidate (the path-sensitivity ablation).
	DisablePathSensitivity bool
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
	// Obs, when non-nil, receives detection metrics (SMT latency
	// histograms, SAT-core counters, local-flow walk counters, per-worker
	// utilization) and — when the recorder is tracing — per-task and
	// per-SMT-query spans. Recording never changes the reported results;
	// nil disables all of it.
	Obs *obs.Recorder
}

// resultKey strips the options that cannot change a task's outcome — how
// the work is scheduled and observed — leaving the key a recorded task result
// is valid under.
func (o Options) resultKey() Options {
	o.Workers, o.Obs = 0, nil
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
	Source    Site
	// Sink is the zero Site for a report without one.
	Sink Site
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
	if r.Sink.Fn == nil && r.Kind != "" {
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
// return=receiver) between two context instances: value valA of graph gA in
// instance instA and value valB of gB in instB.
type boundary struct {
	instA int
	gA    *seg.Graph
	valA  int32
	instB int
	gB    *seg.Graph
	valB  int32
	// equality is false for taint-transfer steps through external
	// calls, where the value changes but the property propagates.
	equality bool
}

// gstep is one SEG vertex on a global path, tagged with its instance.
type gstep struct {
	inst int
	g    *seg.Graph
	node int32
}

func (s gstep) kind() seg.NodeKind { return s.g.Node(s.node).Kind }
func (s gstep) val() int32         { return s.g.Val(s.node) }
func (s gstep) instr() int32       { return s.g.Instr(s.node) }
