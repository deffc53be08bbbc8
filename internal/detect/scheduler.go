package detect

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/checkers"
	"repro/internal/conc"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/seg"
)

// This file implements the parallel detection scheduler. The paper's
// detection phase (§3.3) is embarrassingly parallel across demand sources:
// each source→sink search composes immutable per-function SEGs and
// memoized local summaries, so independent (checker, source) pairs never
// need to observe each other. CheckAll enumerates every pair up front,
// dispatches them to a bounded worker pool, and merges the per-task results
// in task order, which makes the output bit-for-bit identical to a
// sequential run:
//
//   - prepare() freezes the shared program state (control-dependence
//     conditions, SEG value vertices, block reachability) so workers only
//     read it; the remaining mutable state (flow summaries, linear solvers,
//     reverse indexes, the per-function condition builders) is lock-guarded
//     and memoizes pure functions of the frozen program, so cache contents
//     never depend on scheduling;
//   - each task runs a fresh Engine whose per-source instance counter
//     starts at zero, so SMT variable names, assertion order, and hence
//     witnesses are per-task deterministic;
//   - per-task stats are merged in task order and reports are sorted by
//     (checker, source position, sink position) at the end.

// CheckerStats pairs a checker name with its aggregated effort counters.
type CheckerStats struct {
	Checker string
	Stats   Stats
}

// String renders the per-checker -stats line shared by cmd/pinpoint and
// the examples. Unreleased-resource checkers use the allocation-shaped
// counters; everything else the source–sink shape.
func (cs CheckerStats) String() string {
	if sp, ok := checkers.ByName(cs.Checker); ok && sp.Kind == checkers.KindUnreleased {
		s := cs.Stats
		return fmt.Sprintf("%s: %d allocations, %d escaped, %d SMT queries (%d solved/%d prefiltered)",
			cs.Checker, s.Sources, s.Escaped, s.SMTQueries, s.SMTSolved, s.SMTPrefilterUnsat)
	}
	return fmt.Sprintf("%s: %s", cs.Checker, cs.Stats)
}

// WorkerStat describes one worker's share of a CheckAll run. Recorded only
// when Options.Obs is set; task counts and busy times depend on scheduling
// and are not part of the deterministic result surface.
type WorkerStat struct {
	// Worker is the worker index (0-based; trace track Worker+1).
	Worker int
	// Tasks is the number of detection tasks the worker executed.
	Tasks int
	// Busy is the total wall-clock the worker spent inside tasks;
	// Busy/Results.Wall is the worker's utilization.
	Busy time.Duration
}

// Results is the outcome of one CheckAll run.
type Results struct {
	// Reports holds every checker's reports, sorted by (checker, source
	// position, sink position).
	Reports []Report
	// Checkers aggregates per-checker stats, parallel to the specs given
	// to CheckAll. SummaryCapHits is zero here — the summary cache is
	// shared across checkers; see SummaryCapHits below. A replayed task
	// contributes the effort counters of the run that recorded it but no
	// SMTTime, which therefore measures solving done by this call.
	Checkers []CheckerStats
	// SummaryCapHits counts the summary enumerations this call truncated
	// (deterministic: truncation is a property of each vertex, not of
	// scheduling).
	SummaryCapHits int
	// Workers is the resolved worker-pool size.
	Workers int
	// Wall is the detection wall-clock time, including preparation,
	// search, SMT solving, and merging.
	Wall time.Duration
	// SummaryHits/SummaryMisses are this call's lookups in the shared flow
	// cache (hit rate = Hits / (Hits + Misses)).
	SummaryHits   int
	SummaryMisses int
	// TasksRun and TasksReplayed partition the call's (checker, source)
	// tasks into those executed and those whose recorded result was
	// reused (always zero on a Program without persistent caches).
	TasksRun      int
	TasksReplayed int
	// WorkerStats is the per-worker task/busy-time breakdown, populated
	// only when Options.Obs is set. Replayed tasks are not counted.
	WorkerStats []WorkerStat
}

// task is one unit of detection work: a (checker, source) pair for
// source–sink checkers, or a (checker, allocation) pair for
// unreleased-resource checkers. Tasks live in their function's fnCache.
type task struct {
	fn    *ir.Func
	g     *seg.Graph
	src   checkers.Source // KindSourceSink
	alloc *ir.Instr       // KindUnreleased
	// memo is the outcome recorded by the task's last execution on a
	// Program with persistent caches (see replay.go); nil otherwise.
	memo *replayEntry
}

// pos locates the task's demand source for trace annotations.
func (t *task) pos() minic.Pos {
	if t.alloc != nil {
		return t.alloc.Position()
	}
	return t.src.At.Position()
}

// scheduled is a task in one CheckAll's canonical order, tagged with the
// position of its checker among that call's specs.
type scheduled struct {
	specIdx int
	*task
}

type taskResult struct {
	reports []Report
	stats   Stats
}

// CheckAll runs every given checker over the program on a bounded worker
// pool (opts.Workers; 0/1 = sequential, negative = GOMAXPROCS). Reports and
// stats are identical at every worker count, and — on a Program with
// persistent caches — whether a task ran or was replayed.
func CheckAll(prog *Program, specs []*checkers.Spec, opts Options) Results {
	start := time.Now()
	opts = opts.withDefaults()
	rec := opts.Obs
	workers := conc.Workers(opts.Workers)

	// key, when non-nil, makes executed tasks record their outcome under it.
	var key *Options
	c := prog.sticky
	if c == nil {
		c = newCaches(prog)
	} else {
		k := opts.resultKey()
		key = &k
	}
	var flows flowCounts // lookups outside tasks: prepare and the leak fixpoint
	prepSp := rec.Phase("detect/prepare")
	tasks := prepare(prog, specs, c, workers, &flows)
	prepSp.End()

	var lc *leakChecker
	for _, sp := range specs {
		if sp.Kind == checkers.KindUnreleased {
			lc = newLeakChecker(prog, opts, c, &flows)
			break
		}
	}

	results := make([]*taskResult, len(tasks))
	// Per worker, like wstats: the tasks it replayed and the flow lookups
	// of those it ran.
	replayed := make([]int, workers)
	looked := make([]flowCounts, workers)
	var wstats []WorkerStat
	if rec != nil {
		wstats = make([]WorkerStat, workers)
		for w := range wstats {
			wstats[w].Worker = w
		}
	}
	searchSp := rec.Phase("detect/search")
	_ = conc.ForEach(len(tasks), workers, func(w, i int) error { // tasks cannot fail
		t := tasks[i]
		if m := t.memo; m != nil && m.holds(prog, c, key) {
			results[i] = &m.result
			replayed[w]++
			return nil
		}
		sp := specs[t.specIdx]
		if rec == nil {
			results[i] = runTask(prog, sp, opts, key, c, lc, t.task, w, &looked[w])
			return nil
		}
		t0 := time.Now()
		results[i] = runTask(prog, sp, opts, key, c, lc, t.task, w, &looked[w])
		d := time.Since(t0)
		// wstats[w] is only ever touched by worker w: no lock needed.
		wstats[w].Tasks++
		wstats[w].Busy += d
		if rec.Tracing() {
			args := []obs.Arg{
				{Key: "func", Val: t.fn.Name},
				{Key: "at", Val: t.pos().String()},
			}
			if opts.TraceID != "" {
				// Correlates this span with the request-scoped log lines
				// and the report envelope of the analysis service.
				args = append(args, obs.Arg{Key: "trace_id", Val: opts.TraceID})
			}
			rec.Event(w+1, "task:"+sp.Name, t0, d, args...)
		}
		return nil
	})
	searchSp.End()

	mergeSp := rec.Phase("detect/merge")
	res := Results{Workers: workers, WorkerStats: wstats}
	for w := range replayed {
		res.TasksReplayed += replayed[w]
		flows.add(looked[w])
	}
	res.TasksRun = len(tasks) - res.TasksReplayed
	// One pass over the plan, which lists the tasks spec by spec.
	total := 0
	for _, tr := range results {
		total += len(tr.reports)
	}
	if total > 0 {
		res.Reports = make([]Report, 0, total)
	}
	res.Checkers = make([]CheckerStats, 0, len(specs))
	seen := make(map[[2]*ir.Instr]bool)
	ti := 0
	for si, sp := range specs {
		merged := Stats{}
		clear(seen)
		first, capped := len(res.Reports), false
		for ; ti < len(tasks) && tasks[ti].specIdx == si; ti++ {
			if capped {
				continue
			}
			tr := results[ti]
			addStats(&merged, tr.stats)
			for _, r := range tr.reports {
				key := [2]*ir.Instr{r.Source, r.Sink}
				if r.Sink != nil && seen[key] {
					continue
				}
				seen[key] = true
				res.Reports = append(res.Reports, r)
			}
			capped = opts.MaxReportsPerChecker > 0 && len(res.Reports)-first >= opts.MaxReportsPerChecker
		}
		res.Checkers = append(res.Checkers, CheckerStats{Checker: sp.Name, Stats: merged})
	}
	res.SummaryCapHits = flows.capHits
	res.SummaryHits, res.SummaryMisses = flows.hits, flows.misses
	SortReports(res.Reports)
	mergeSp.End()
	res.Wall = time.Since(start)

	if rec != nil {
		rec.Counter("detect.tasks").Add(int64(len(tasks)))
		rec.Counter("detect.tasks_replayed").Add(int64(res.TasksReplayed))
		rec.Counter("detect.reports").Add(int64(len(res.Reports)))
		rec.Counter("summary.cache_hits").Add(int64(res.SummaryHits))
		rec.Counter("summary.cache_misses").Add(int64(res.SummaryMisses))
		rec.Counter("summary.cap_hits").Add(int64(res.SummaryCapHits))
		rec.Gauge("detect.workers").Set(int64(workers))
		for _, ws := range wstats {
			rec.Histogram("detect.worker_busy_ns").Observe(int64(ws.Busy))
		}
	}
	return res
}

// prepare freezes the shared program state and enumerates the detection
// tasks. Per function: control-dependence conditions are memoized per block,
// every value vertex the search can name is pre-created, block reachability
// is pre-filled (when some checker needs ordering), the local flows of every
// parameter are enumerated into the shared cache (when an
// unreleased-resource checker will run its may-free-parameter fixpoint over
// them — which it does for functions that have callers), and every checker's
// sources are extracted. Each of these happens once per function object —
// its fnCache remembers which passes ran and keeps the task lists — and the
// assembled plan is kept with the caches, so on a Program carried over from
// a previous one (same checkers) only the functions that replaced others are
// visited, in one parallel pass, and only their tasks are spliced into the
// plan; without a plan to start from the pass covers every function. Each
// function is touched by exactly one goroutine, so the per-function work —
// including condition-node interning — happens in a deterministic order.
//
// The tasks come back in the canonical order — specs in argument order,
// functions in module order, sources in extraction order — which the merge
// phase walks to reproduce the sequential engine's dedup and cap semantics
// exactly.
//
// Warming the parameter flows moves their first enumeration here from the
// leak checker's fixpoint, whose lookups then all hit: Results.SummaryHits
// rises by one per parameter while SummaryMisses — the number of distinct
// vertices enumerated — and everything derived from the flows stay the same.
func prepare(prog *Program, specs []*checkers.Spec, c *caches, workers int, n *flowCounts) []scheduled {
	// Task lists are kept per checker. Caches that outlive the call number
	// the checkers by what they do (specs are built fresh per request);
	// throwaway caches need no more than the spec's position, and the
	// one-shot paths — a thousand tiny programs in the Juliet suite — skip
	// rendering the identity.
	ks := make([]int, len(specs))
	numbers := len(specs)
	for si, sp := range specs {
		if prog.sticky != nil {
			ks[si] = c.specs.of(sp.Identity())
			numbers = len(c.specs.ids)
		} else {
			ks[si] = si
		}
	}
	m := prog.Module
	todo := m.Funcs
	if c.plan != nil && slices.Equal(ks, c.planFor) {
		if len(c.unplanned) == 0 {
			return c.plan // same program, same checkers: nothing left to do
		}
		todo = c.unplanned
	} else {
		c.plan = nil
	}
	needReach, warmParams := false, false
	// dup marks a spec given twice: its tasks are private copies, so that
	// no two scheduled tasks share a memo slot.
	dup := make([]bool, len(specs))
	for si, sp := range specs {
		if sp.OrderingRequired {
			needReach = true
		}
		if sp.Kind == checkers.KindUnreleased {
			warmParams = true
		}
		dup[si] = slices.Contains(ks[:si], ks[si])
	}
	warmed := make([]flowCounts, workers)
	warm := func(w int, f *ir.Func, g *seg.Graph, fc *fnCache) {
		if warmParams && !fc.warm && len(prog.callers[f.ID]) > 0 {
			for _, p := range f.Params {
				c.flowsFrom(g, g.ValueNode(p), &warmed[w])
			}
			fc.warm = true
		}
	}
	_ = conc.ForEach(len(todo), workers, func(w, i int) error { // nothing here can fail
		f := todo[i]
		g := prog.segs[f.ID]
		if g == nil {
			return nil
		}
		fc := c.fn[f.ID]
		if !fc.frozen {
			prog.infos[f.ID].PrepareCDConds()
			g.EnsureValueNodes()
			fc.frozen = true
		}
		if needReach && !fc.reach {
			g.PrecomputeReach()
			fc.reach = true
		}
		warm(w, f, g, fc)
		for si, sp := range specs {
			fc.tasksFor(ks[si], numbers, sp, f, g)
		}
		return nil
	})
	if c.plan != nil {
		// A function that replaced another may be the first caller of one
		// that stayed.
		for _, f := range todo {
			forEachCall(f, func(in *ir.Instr) {
				if callee := m.Lookup(in.Callee()); callee != nil && prog.segs[callee.ID] != nil {
					warm(0, callee, prog.segs[callee.ID], c.fn[callee.ID])
				}
			})
		}
	}
	for _, w := range warmed {
		n.add(w)
	}

	// tasksOf lists f's tasks for the spec at position si, in plan form.
	tasksOf := func(plan []scheduled, si int, f *ir.Func) []scheduled {
		fc := c.fn[f.ID]
		if fc == nil {
			return plan
		}
		ts := fc.specs[ks[si]]
		if dup[si] {
			ts = slices.Clone(ts)
		}
		for k := range ts {
			plan = append(plan, scheduled{si, &ts[k]})
		}
		return plan
	}
	var plan []scheduled
	if c.plan == nil {
		total := 0
		for _, f := range m.Funcs {
			if fc := c.fn[f.ID]; fc != nil {
				for _, k := range ks {
					total += len(fc.specs[k])
				}
			}
		}
		plan = make([]scheduled, 0, total)
		for si := range specs {
			for _, f := range m.Funcs {
				plan = tasksOf(plan, si, f)
			}
		}
	} else {
		// Merge: the old plan without the tasks of functions that are gone,
		// and the new functions' tasks, both in (spec, module position)
		// order.
		fresh := slices.Clone(todo)
		pos := func(f *ir.Func) int { return m.Layout.Pos(f.ID) }
		slices.SortFunc(fresh, func(a, b *ir.Func) int { return pos(a) - pos(b) })
		plan = make([]scheduled, 0, len(c.plan)+len(fresh))
		si, j := 0, 0 // next to splice in: fresh[j]'s tasks for spec si
		spliceUpTo := func(specIdx, at int) {
			for si < len(specs) && (si < specIdx || (si == specIdx && j < len(fresh) && pos(fresh[j]) < at)) {
				if j == len(fresh) {
					si, j = si+1, 0
					continue
				}
				plan = tasksOf(plan, si, fresh[j])
				j++
			}
		}
		for _, t := range c.plan {
			if !m.Holds(t.fn) {
				continue
			}
			spliceUpTo(t.specIdx, pos(t.fn))
			plan = append(plan, t)
		}
		spliceUpTo(len(specs), 0)
	}
	c.planFor, c.plan, c.unplanned = ks, plan, nil
	return plan
}

// localTasks lists one function's (checker, source) pairs for one spec, in
// extraction order.
func localTasks(sp *checkers.Spec, f *ir.Func, g *seg.Graph) []task {
	tasks := []task{}
	if sp.Kind == checkers.KindUnreleased {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpMalloc {
					tasks = append(tasks, task{fn: f, g: g, alloc: in})
				}
			}
		}
		return tasks
	}
	for _, src := range sp.LocalSources(g) {
		tasks = append(tasks, task{fn: f, g: g, src: src})
	}
	return tasks
}

// runTask executes one unit of work on worker w with a fresh per-task engine
// over the shared caches, counting its flow lookups into n, and — when key is
// set — leaves the result and the footprint it depended on in the task's
// memo slot.
func runTask(prog *Program, sp *checkers.Spec, opts Options, key *Options, c *caches, lc *leakChecker, t *task, w int, n *flowCounts) *taskResult {
	var memo *replayEntry
	var fp *footprint
	if key != nil {
		memo = &replayEntry{opts: key, names: c.names}
		fp = &memo.fp
	}
	tr := new(taskResult)
	if sp.Kind == checkers.KindUnreleased {
		if rep := lc.checkAlloc(t.fn, t.g, t.alloc, &tr.stats, n, fp, w+1); rep != nil {
			tr.reports = []Report{leakToReport(sp.Name, *rep)}
		}
	} else {
		eng := &Engine{
			prog:     prog,
			spec:     sp,
			opts:     opts,
			caches:   c,
			reported: make(map[[2]*ir.Instr]bool),
			tid:      w + 1,
			fp:       fp,
		}
		eng.stats.Sources = 1
		eng.searchFromSource(t.fn, t.g, t.src)
		eng.releaseSolver()
		n.add(eng.flows)
		tr.reports, tr.stats = eng.reports, eng.stats
	}
	if memo != nil {
		memo.result = *tr
		memo.result.stats.SMTTime = 0
		t.memo = memo
	}
	return tr
}

func addStats(dst *Stats, s Stats) {
	dst.Sources += s.Sources
	dst.Expansions += s.Expansions
	dst.Candidates += s.Candidates
	dst.LinearFiltered += s.LinearFiltered
	dst.SMTQueries += s.SMTQueries
	dst.SMTSat += s.SMTSat
	dst.SMTUnsat += s.SMTUnsat
	dst.SMTUnknown += s.SMTUnknown
	dst.SMTSolved += s.SMTSolved
	dst.SMTPrefilterUnsat += s.SMTPrefilterUnsat
	dst.SMTTime += s.SMTTime
	dst.SummaryCapHits += s.SummaryCapHits
	dst.TruncatedSearches += s.TruncatedSearches
	dst.Escaped += s.Escaped
}
