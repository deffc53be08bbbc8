package detect

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkers"
	"repro/internal/conc"
	"repro/internal/dense"
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
// task per (group, source) serves them all. CheckAll runs the tasks it must
// hold against the program — each function's fnCache keeps its own — on a
// bounded worker pool, and merges the per-task results in task order, which
// makes the output bit-for-bit identical at every worker count and to running
// each checker alone:
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
//     position, sink position). A first run patches the empty run, in which
//     every function is an edit without old tasks.

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
	// they once counted the lookups of, which the benchmark module reads.
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
	// ReportsEncoded counts the reports AppendJSON encoded anew: none when
	// the run kept the list of a run whose encoding was made.
	ReportsEncoded int

	json *reportsJSON  // Reports' encoding
	obs  *obs.Recorder // Options.Obs
}

// group is the specs of one CheckAll call that share a walk.
type group struct {
	// specs lists the members in argument order and at their positions among
	// the call's specs. specs[0] supplies the walk's parameters.
	specs []*checkers.Spec
	at    []int
	// lists is the number of the group's task lists (fnCache.tasks): the
	// walk's number (caches.walks), which no other group of the call has.
	lists int
}

// maxMembers bounds a group: the search keeps the members a frame serves in
// one word.
const maxMembers = 64

// groupSpecs partitions the specs into groups, in order of first appearance,
// and returns with them, by position of the spec, the group it is in and the
// id that names its result in a task's record. Lists and results are numbered
// by what the specs do, since specs are built fresh per request. A spec given
// again is no member of its own: its position reads the result of the first,
// in that one's group (of), and a group's specs and at stay one per member.
func groupSpecs(specs []*checkers.Spec, c *caches) (groups []group, of, ids []int) {
	groups = make([]group, 0, len(specs))
	of, ids = make([]int, len(specs)), make([]int, len(specs))
next:
	for si, sp := range specs {
		ids[si] = c.specs.of(sp.Identity())
		if sj := slices.Index(ids[:si], ids[si]); sj >= 0 {
			of[si] = of[sj]
			continue
		}
		for gi := range groups {
			if g := &groups[gi]; len(g.specs) < maxMembers && g.specs[0].SharesWalk(sp) {
				g.specs, g.at, of[si] = append(g.specs, sp), append(g.at, si), gi
				continue next
			}
		}
		// Only a walk more than maxMembers specs share is a second group's
		// too; that group keeps task lists of its own, so that no two groups
		// of a call share a task's memo slot.
		lists := c.walks.of(sp.WalkIdentity())
		for n := 1; slices.ContainsFunc(groups, func(o group) bool { return o.lists == lists }); n++ {
			lists = c.walks.of(sp.WalkIdentity() + "#" + strconv.Itoa(n))
		}
		of[si], groups = len(groups), append(groups, group{specs: []*checkers.Spec{sp}, at: []int{si}, lists: lists})
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

// pending is a task a run holds against the Program, with the position of
// its group among the call's groups.
type pending struct {
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
	run := c.patchable(&key, ids)
	patching := run == c.ran // else every function is an edit
	edits := prepare(prog, groups, c, patching, workers)
	if slices.ContainsFunc(specs, func(sp *checkers.Spec) bool { return sp.Kind == checkers.KindUnreleased }) {
		stale := c.stale
		computeFreesParam(prog, c)
		for _, id := range stale { // the vectors that moved since run read them
			if patching && !slices.Equal(run.frees.At(int(id)), c.frees.At(int(id))) {
				c.changed = append(c.changed, fnChange{int(id), readsMayFree})
			}
		}
	}
	todo := c.checkList(prog, groups, edits, patching)
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
		t := todo[j]
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
	if fail := crossCheck.Load(); fail != nil {
		crossCheckSkipped(*fail, prog, c, &key, groups, ids, todo)
	}
	run, smtTime := c.patch(prog, run, groups, of, ids, edits, todo, olds, results)
	res.TasksReplayed = run.tasks - res.TasksRun // the tasks outside todo replay unchecked
	res.Checkers = make([]CheckerStats, len(specs))
	for si, sp := range specs {
		res.Checkers[si] = CheckerStats{Checker: sp.Name, Stats: run.stats[si]}
		res.Checkers[si].Stats.SMTTime = smtTime[si]
	}
	res.Reports, res.ExpansionsWalked, res.QueriesIssued = run.reports, run.walked, run.issued
	res.json, res.obs = run.json, rec
	c.ran, c.runs.last, c.changed = run, run, nil
	mergeSp.End()
	res.Wall = time.Since(start)

	if rec != nil {
		rec.Counter("detect.tasks").Add(int64(run.tasks))
		rec.Counter("detect.tasks_replayed").Add(int64(res.TasksReplayed))
		rec.Counter("detect.replay_checks").Add(int64(res.ReplayChecks))
		rec.Counter("detect.reports").Add(int64(len(res.Reports)))
		rec.Counter("summary.cache_misses").Add(int64(res.SummaryMisses))
		rec.Counter("summary.cap_hits").Add(int64(res.SummaryCapHits))
		rec.Gauge("detect.workers").Set(int64(workers))
		for _, ws := range wstats {
			rec.Histogram("detect.worker_busy_ns").Observe(int64(ws.Busy))
		}
	}
	return res
}

// prepare extracts the detection tasks; it only reads the SEGs, which are
// final when built. Per function: where the local flows of every parameter
// can end is noted by a reachability walk (when an unreleased-resource
// checker will run its may-free-parameter fixpoint over those facts — which
// it does for functions that have callers), and every group's sources are
// extracted. Each of these happens once per function object — its fnCache
// keeps the facts and the task lists — so a patching run visits only the
// functions that replaced others since the run it patches, in one parallel
// pass, and the empty run every function. Each function is touched by exactly
// one goroutine, so the per-function work — including condition-node
// interning — happens in a deterministic order.
//
// It returns the run's edits in (group, module position) order: per group,
// each visited function, or the whole module in the empty run.
func prepare(prog *Program, groups []group, c *caches, patching bool, workers int) (edits []span) {
	lists := len(c.walks.ids)
	warmParams := slices.ContainsFunc(groups, func(g group) bool { return g.specs[0].Kind == checkers.KindUnreleased })
	m := prog.Module
	fresh, n := []*ir.Func(nil), m.NumFuncs() // nil: every function
	if patching {
		if len(c.fresh) == 0 {
			return nil // same program, same checkers: nothing left to do
		}
		fresh, n = c.fresh, len(c.fresh)
	}
	c.fresh = nil
	scratch := make([]reach, workers)
	warm := func(w int, f *ir.Func, g *seg.Graph) {
		if warmParams && len(prog.Callers(f)) > 0 {
			c.paramFacts(f, g, &scratch[w])
		}
	}
	_ = conc.ForEach(n, workers, func(w, i int) error { // nothing here can fail
		var f *ir.Func
		if fresh != nil {
			f = fresh[i]
		} else {
			f = m.Func(i)
		}
		g := prog.SEG(f)
		if g == nil {
			return nil
		}
		warm(w, f, g)
		fc := c.fn.At(f.ID)
		for gi := range groups {
			fc.tasksFor(groups[gi].lists, lists, groups[gi].specs[0], f, g)
		}
		return nil
	})
	// A function that replaced another may be the first caller of one that
	// stayed.
	for _, f := range fresh {
		forEachCall(prog.SEG(f), func(callee string, _ int32) {
			if callee := m.Lookup(callee); callee != nil && prog.SEG(callee) != nil {
				warm(0, callee, prog.SEG(callee))
			}
		})
	}
	edits = make([]span, 0, len(groups)*max(len(fresh), 1))
	for gi := range groups {
		if fresh == nil {
			edits = append(edits, span{gi, 0, n})
		}
		for _, f := range fresh {
			pos := m.Layout.Pos(f.ID) // a Layout kept every position where it was
			edits = append(edits, span{gi, pos, pos + 1})
		}
	}
	slices.SortFunc(edits, compareSpans)
	return edits
}

// span is the functions at module positions [lo, hi) in the group at
// position group among a call's groups.
type span struct{ group, lo, hi int }

func compareSpans(a, b span) int {
	return cmp.Or(cmp.Compare(a.group, b.group), cmp.Compare(a.lo, b.lo))
}

// covers reports whether spans, sorted by compareSpans and disjoint, hold
// the function at module position pos in the group at gi.
func covers(spans []span, gi, pos int) bool {
	i, ok := slices.BinarySearchFunc(spans, span{group: gi, lo: pos}, compareSpans)
	return ok || (i > 0 && spans[i-1].group == gi && pos < spans[i-1].hi)
}

// tasksOf returns function id's task list for walk number list in a task
// table: none for a function without a graph, a list never extracted, or an
// id past the table (the empty run's, which has no entry).
func tasksOf(fn *dense.Table[*fnCache], id, list int) []task {
	if id >= fn.Len() {
		return nil
	}
	if fc := fn.At(id); fc != nil && list < len(fc.tasks) {
		return fc.tasks[list]
	}
	return nil
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
