package detect

import (
	"fmt"
	"slices"
	"strings"
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
// each source→sink search composes the local flows its engine walks on
// immutable per-function SEGs, so independent sources never need to observe
// each other — and the search is the checker's only at its sinks, so the
// specs that share a walk (checkers.Spec.SharesWalk) form a group and one
// task per (group, source) serves them all. CheckAll enumerates every pair up
// front, dispatches them to a bounded worker pool, and merges the per-task
// results in task order, which makes the output bit-for-bit identical at
// every worker count and to running each checker alone:
//
//   - the SEGs are final when built (control-dependence conditions, value
//     vertices, block reachability), so workers only read them; each
//     engine walks them on scratch of its own; the shared mutable state
//     (linear solvers, reverse indexes, the per-function condition
//     builders) is lock-guarded and memoizes pure functions of the program,
//     so cache contents never depend on scheduling;
//   - each task starts its worker's Engine over — the per-source instance
//     counter at zero, the path empty — so SMT variable names, assertion
//     order, and hence witnesses are per-task deterministic;
//   - a member of a group counts and reports what its own search would
//     have: it leaves the walk where its own per-source caps would have
//     stopped it, while the others go on;
//   - the merge is a patch of the last run's (see replay.go): the tasks that
//     ran again give back their old contribution and add their new one, and
//     their reports are merged into that run's, sorted by (checker, source
//     position, sink position). A first run patches the empty run, with every
//     task of the plan new.

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
	// position, sink position). A later call on the Program may return the
	// same slice: read it, do not modify it.
	Reports []Report
	// Checkers aggregates per-checker stats, parallel to the specs given
	// to CheckAll: each checker's counters are those of running it alone,
	// whatever it shared with the others of its group (the time of a shared
	// query goes to the member that asked first). SummaryCapHits is zero
	// here — a walk serves every checker of its group; see SummaryCapHits
	// below. A replayed task contributes the effort counters
	// of the run that recorded it but no SMTTime, which therefore measures
	// solving done by this call.
	Checkers []CheckerStats
	// ExpansionsWalked and QueriesIssued count the work behind those
	// counters once: the expansions the walks made and the SMT queries they
	// encoded, however many checkers counted each (replayed tasks included,
	// like the counters).
	ExpansionsWalked int
	QueriesIssued    int
	// SummaryCapHits counts the local-flow walks of this call's tasks in
	// which a cap dropped a flow (deterministic: truncation is a property of
	// each walk, and the tasks that run are not a matter of scheduling).
	SummaryCapHits int
	// Workers is the resolved worker-pool size.
	Workers int
	// Wall is the detection wall-clock time, including preparation,
	// search, SMT solving, and merging.
	Wall time.Duration
	// SummaryMisses counts the local-flow walks of this call's tasks (one
	// per expansion and per allocation checked). Local flows are not cached,
	// so SummaryHits is always zero; both keep the names of the flow cache
	// they once counted the lookups of.
	SummaryHits   int
	SummaryMisses int
	// TasksRun and TasksReplayed partition the call's (group, source)
	// tasks into those executed and those whose recorded result was
	// reused.
	TasksRun      int
	TasksReplayed int
	// ReplayChecks counts the recorded results the call held against the
	// program (replayEntry.holds) to decide between replaying and running:
	// every task's on a Program's first call or after the checkers or
	// options changed, only those of the tasks an edit can reach otherwise.
	ReplayChecks int
	// WorkerStats is the per-worker task/busy-time breakdown, populated
	// only when Options.Obs is set. Replayed tasks are not counted.
	WorkerStats []WorkerStat
}

// group is the specs of one CheckAll call that share a walk.
type group struct {
	// specs lists the members in argument order and at their positions among
	// the call's specs. specs[0] supplies the walk's parameters.
	specs []*checkers.Spec
	at    []int
	// lists is the number of the group's task lists (fnCache.tasks): the
	// walk's number (caches.walks). shared marks a group whose lists an
	// earlier group of the call schedules already — a spec given twice, say,
	// whose walk admits no second member — and which therefore schedules
	// private copies, so that no two scheduled tasks share a memo slot.
	lists  int
	shared bool
}

// maxMembers bounds a group: the search keeps the members a frame serves in
// one word.
const maxMembers = 64

// groupSpecs partitions the specs into groups, in order of first appearance,
// and returns with them, by position of the spec, the group it is in and the
// id that names its result in a task's record. Lists and results are numbered
// by what the specs do, since specs are built fresh per request.
func groupSpecs(specs []*checkers.Spec, c *caches) (groups []group, of, ids []int) {
	groups = make([]group, 0, len(specs))
	of, ids = make([]int, len(specs)), make([]int, len(specs))
next:
	for si, sp := range specs {
		ids[si] = c.specs.of(sp.Identity())
		for gi := range groups {
			if g := &groups[gi]; len(g.specs) < maxMembers && g.specs[0].SharesWalk(sp) {
				g.specs, g.at, of[si] = append(g.specs, sp), append(g.at, si), gi
				continue next
			}
		}
		g := group{specs: []*checkers.Spec{sp}, at: []int{si}, lists: c.walks.of(sp.WalkIdentity())}
		g.shared = slices.ContainsFunc(groups, func(o group) bool { return o.lists == g.lists })
		of[si], groups = len(groups), append(groups, g)
	}
	return groups, of, ids
}

// name renders the group for trace events: its members joined by +.
func (g *group) name() string {
	names := make([]string, len(g.specs))
	for i, sp := range g.specs {
		names[i] = sp.Name
	}
	return strings.Join(names, "+")
}

// task is one unit of detection work: a source and the group that walks it,
// or an allocation and an unreleased-resource checker. Tasks live in their
// function's fnCache.
type task struct {
	fn    *ir.Func
	g     *seg.Graph
	src   checkers.Source // KindSourceSink
	alloc int32           // KindUnreleased; -1 otherwise
	k     int32           // position in its function's list
	// memo is the outcome recorded by the task's last execution (see
	// replay.go); nil before it ran.
	memo *replayEntry
}

// pos locates the task's demand source for trace annotations.
func (t *task) pos() minic.Pos {
	if t.alloc >= 0 {
		return t.g.Position(t.alloc)
	}
	return t.g.Position(t.src.At)
}

// scheduled is a task in one CheckAll's canonical order, tagged with the
// position of its group among that call's groups.
type scheduled struct {
	group int
	*task
}

// taskResult is what one task produced: a result per member of its group,
// and the expansions and queries behind them, counted once.
type taskResult struct {
	members        []memberResult
	walked, issued int
}

type memberResult struct {
	id      int // groupSpecs' ids
	reports []Report
	stats   Stats
}

// member returns the result recorded under id, or nil.
func (tr *taskResult) member(id int) *memberResult {
	for i := range tr.members {
		if tr.members[i].id == id {
			return &tr.members[i]
		}
	}
	return nil
}

// CheckAll runs every given checker over the program on a bounded worker
// pool (opts.Workers; 0/1 = sequential, negative = GOMAXPROCS). Reports and
// stats are identical at every worker count, and whether a task ran or was
// replayed.
func CheckAll(prog *Program, specs []*checkers.Spec, opts Options) Results {
	start := time.Now()
	opts = opts.withDefaults()
	rec := opts.Obs
	workers := conc.Workers(opts.Workers)

	c := prog.detectionCaches()
	key := opts.resultKey() // executed tasks record their outcome under it
	prepSp := rec.Phase("detect/prepare")
	groups, of, ids := groupSpecs(specs, c)
	// run is the run this one patches; todo lists the tasks held against the
	// Program, every other replays unchecked.
	run := c.patchable(&key, ids, groups)
	tasks, edits := prepare(prog, groups, c, workers)
	if slices.ContainsFunc(specs, func(sp *checkers.Spec) bool { return sp.Kind == checkers.KindUnreleased }) {
		stale := c.stale
		computeFreesParam(prog, c)
		c.noteFrees(stale, run.frees)
	}
	todo := c.checkList(prog, tasks, groups, edits)
	n := len(todo)
	prepSp.End()

	results := make([]*taskResult, n)
	olds := make([]*replayEntry, n) // todo's memos before the run
	// Per worker, like wstats: its engine, the tasks it replayed and the
	// memos it held against the Program.
	engines := make([]*Engine, workers)
	counts := make([]struct{ replayed, checks int }, workers)
	var wstats []WorkerStat
	if rec != nil {
		wstats = make([]WorkerStat, workers)
		for w := range wstats {
			wstats[w].Worker = w
		}
	}
	searchSp := rec.Phase("detect/search")
	_ = conc.ForEach(n, workers, func(w, j int) error { // tasks cannot fail
		t := tasks[todo[j]]
		olds[j] = t.memo
		g := &groups[t.group]
		if m := t.memo; m != nil {
			counts[w].checks++
			if m.holds(prog, c, &key, g, ids) {
				results[j] = &m.result
				counts[w].replayed++
				return nil
			}
		}
		e := engines[w]
		if e == nil {
			e = &Engine{prog: prog, opts: opts, caches: c, tid: w + 1}
			engines[w] = e
		}
		if rec == nil {
			results[j] = e.runTask(g, ids, t.task, &key)
			return nil
		}
		t0 := time.Now()
		results[j] = e.runTask(g, ids, t.task, &key)
		d := time.Since(t0)
		// wstats[w] is only ever touched by worker w: no lock needed.
		wstats[w].Tasks++
		wstats[w].Busy += d
		if rec.Tracing() {
			rec.Event(w+1, "task:"+g.name(), t0, d, obs.Arg{Key: "func", Val: t.fn.Name}, obs.Arg{Key: "at", Val: t.pos().String()})
		}
		return nil
	})
	searchSp.End()

	mergeSp := rec.Phase("detect/merge")
	res := Results{Workers: workers, WorkerStats: wstats}
	for w, e := range engines {
		res.TasksReplayed += counts[w].replayed
		res.ReplayChecks += counts[w].checks
		if e != nil {
			e.releaseSolver()
			res.SummaryMisses += e.w.walks
			res.SummaryCapHits += e.w.truncated
		}
	}
	res.TasksRun = n - res.TasksReplayed
	res.TasksReplayed = len(tasks) - res.TasksRun // the tasks outside todo replay unchecked
	if fail := crossCheck.Load(); fail != nil {
		crossCheckSkipped(*fail, prog, c, &key, tasks, groups, ids, todo)
	}
	run, smtTime := c.patch(prog, run, groups, of, ids, tasks, edits, todo, olds, results)
	res.Checkers = make([]CheckerStats, len(specs))
	for si, sp := range specs {
		res.Checkers[si] = CheckerStats{Checker: sp.Name, Stats: run.stats[si]}
		res.Checkers[si].Stats.SMTTime = smtTime[si]
	}
	res.Reports, res.ExpansionsWalked, res.QueriesIssued = run.reports, run.walked, run.issued
	c.ran, c.runs.last, c.changed = run, run, nil
	mergeSp.End()
	res.Wall = time.Since(start)

	if rec != nil {
		rec.Counter("detect.tasks").Add(int64(len(tasks)))
		rec.Counter("detect.tasks_replayed").Add(int64(res.TasksReplayed))
		rec.Counter("detect.replay_checks").Add(int64(res.ReplayChecks))
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

// prepare enumerates the detection tasks; it only reads the SEGs, which are
// final when built. Per function: where the local flows of every parameter
// can end is noted by a reachability walk (when an unreleased-resource
// checker will run its may-free-parameter fixpoint over those facts — which
// it does for functions that have callers), and every
// group's sources are extracted. Each of these happens once per function
// object — its fnCache keeps the facts and the task lists — and the
// assembled plan is kept with the caches, so on a Program carried over from
// a previous one (same checkers) only the functions that replaced others are
// visited, in one parallel pass, and only their tasks are spliced into the
// plan, each function's run of a group's tasks one edit. Without a plan to
// start from (see patchable) the pass covers every function, and each group's
// tasks are one edit of the empty plan. Each function is touched by exactly
// one goroutine, so the per-function work — including condition-node
// interning — happens in a deterministic order.
//
// The tasks come back in the canonical order — groups in order of first
// appearance, functions in module order, sources in extraction order — which
// the merge walks per checker.
func prepare(prog *Program, groups []group, c *caches, workers int) (plan []scheduled, edits []planEdit) {
	lists := len(c.walks.ids)
	warmParams := slices.ContainsFunc(groups, func(g group) bool { return g.specs[0].Kind == checkers.KindUnreleased })
	m := prog.Module
	todo := m.Funcs
	if c.plan != nil {
		if len(c.unplanned) == 0 {
			return c.plan, nil // same program, same checkers: nothing left to do
		}
		todo = c.unplanned
	}
	scratch := make([]reach, workers)
	warm := func(w int, f *ir.Func, g *seg.Graph) {
		if warmParams && len(prog.callers[f.ID]) > 0 {
			c.paramFacts(f, g, &scratch[w])
		}
	}
	_ = conc.ForEach(len(todo), workers, func(w, i int) error { // nothing here can fail
		f := todo[i]
		g := prog.segs[f.ID]
		if g == nil {
			return nil
		}
		warm(w, f, g)
		for gi := range groups {
			c.fn[f.ID].tasksFor(groups[gi].lists, lists, groups[gi].specs[0], f, g)
		}
		return nil
	})
	if c.plan != nil {
		// A function that replaced another may be the first caller of one
		// that stayed.
		for _, f := range todo {
			forEachCall(prog.segs[f.ID], func(callee string, _ int32) {
				if callee := m.Lookup(callee); callee != nil && prog.segs[callee.ID] != nil {
					warm(0, callee, prog.segs[callee.ID])
				}
			})
		}
	}

	// tasksOf lists f's tasks for the group at position gi, in plan form.
	tasksOf := func(plan []scheduled, gi int, f *ir.Func) []scheduled {
		fc := c.fn[f.ID]
		if fc == nil {
			return plan
		}
		ts := fc.tasks[groups[gi].lists]
		if groups[gi].shared {
			ts = slices.Clone(ts)
		}
		for k := range ts {
			plan = append(plan, scheduled{gi, &ts[k]})
		}
		return plan
	}
	if c.plan == nil {
		total := 0
		for _, f := range m.Funcs {
			if fc := c.fn[f.ID]; fc != nil {
				for gi := range groups {
					total += len(fc.tasks[groups[gi].lists])
				}
			}
		}
		plan, edits = make([]scheduled, 0, total), make([]planEdit, 0, len(groups))
		for gi := range groups {
			at := len(plan)
			for _, f := range m.Funcs {
				plan = tasksOf(plan, gi, f)
			}
			edits = append(edits, planEdit{group: gi, lo: 0, hi: len(m.Funcs), at: at, n: len(plan) - at})
		}
	} else {
		// Splice: each function that replaced another takes over the run of
		// tasks its predecessor has in each group — the plan is in (group,
		// module position) order, and a Layout kept positions where they were.
		fresh := slices.Clone(todo)
		pos := func(f *ir.Func) int { return m.Layout.Pos(f.ID) }
		slices.SortFunc(fresh, func(a, b *ir.Func) int { return pos(a) - pos(b) })
		plan = make([]scheduled, 0, len(c.plan)+len(fresh))
		from := 0
		for gi := range groups {
			for _, f := range fresh {
				lo := planStart(m, c.plan, gi, pos(f))
				hi := planStart(m, c.plan, gi, pos(f)+1)
				plan = append(plan, c.plan[from:lo]...)
				at := len(plan)
				plan = tasksOf(plan, gi, f)
				edits = append(edits, planEdit{group: gi, lo: pos(f), hi: pos(f) + 1, old: c.plan[lo:hi], at: at, n: len(plan) - at})
				from = hi
			}
		}
		plan = append(plan, c.plan[from:]...)
	}
	c.plan, c.unplanned = plan, nil
	return plan, edits
}

// planEdit is one run of plan tasks a splice replaced: the tasks group's
// functions at module positions [lo, hi) had in the old plan, and the n the
// new plan has from at.
type planEdit struct {
	group, lo, hi int
	old           []scheduled
	at, n         int
}

// localTasks lists one function's tasks for the walk of sp — a source each,
// in extraction order, or an allocation each.
func localTasks(sp *checkers.Spec, f *ir.Func, g *seg.Graph) []task {
	tasks := []task{}
	if sp.Kind == checkers.KindUnreleased {
		for _, in := range g.Order() {
			if g.In(in).Op == ir.OpMalloc {
				tasks = append(tasks, task{fn: f, g: g, alloc: in, k: int32(len(tasks))})
			}
		}
		return tasks
	}
	for _, src := range sp.LocalSources(g) {
		tasks = append(tasks, task{fn: f, g: g, src: src, alloc: -1, k: int32(len(tasks))})
	}
	return tasks
}

// runTask executes one unit of work for group g, starting the engine over,
// and leaves the result and the footprint it depended on, recorded under
// key, in the task's memo slot. It returns the recorded result.
func (e *Engine) runTask(g *group, ids []int, t *task, key *Options) *taskResult {
	memo := &replayEntry{opts: key, names: e.caches.names}
	e.fp = &memo.fp
	tr := &memo.result
	tr.members = make([]memberResult, len(g.specs))
	if sp := g.specs[0]; sp.Kind == checkers.KindUnreleased {
		mr := &tr.members[0]
		mr.id = ids[g.at[0]]
		if rep := e.checkAlloc(sp.Name, t.fn, t.g, t.alloc, &mr.stats); rep != nil {
			mr.reports = []Report{*rep}
		}
		tr.issued = mr.stats.SMTQueries
	} else {
		e.lead = sp
		e.members = e.members[:0]
		for mi, sp := range g.specs {
			e.members = append(e.members, member{spec: sp, memberResult: memberResult{id: ids[g.at[mi]], stats: Stats{Sources: 1}}})
		}
		e.walked, e.solved = 0, 0
		e.searchFromSource(t.fn, t.g, t.src)
		for mi := range e.members {
			tr.members[mi] = e.members[mi].memberResult
		}
		tr.walked, tr.issued = e.walked, e.solved
	}
	t.memo = memo
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

// negStats returns s with every counter negated: adding it takes s back out.
func negStats(s Stats) Stats {
	return Stats{
		Sources: -s.Sources, Expansions: -s.Expansions, Candidates: -s.Candidates,
		LinearFiltered: -s.LinearFiltered, SMTQueries: -s.SMTQueries, SMTSat: -s.SMTSat,
		SMTUnsat: -s.SMTUnsat, SMTUnknown: -s.SMTUnknown, SMTSolved: -s.SMTSolved,
		SMTPrefilterUnsat: -s.SMTPrefilterUnsat, SMTTime: -s.SMTTime,
		SummaryCapHits: -s.SummaryCapHits, TruncatedSearches: -s.TruncatedSearches, Escaped: -s.Escaped,
	}
}
