package detect_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestCheckAllObsDeterminism is the observability-layer determinism
// guarantee: recording is write-only, so reports are byte-identical with
// tracing on, metrics-only, or fully off, at every worker count.
func TestCheckAllObsDeterminism(t *testing.T) {
	specs := checkers.All()

	for _, w := range []int{1, 4, -1} {
		bare := buildWorkloadSubject(t).CheckAll(specs, detect.Options{Workers: w})
		zeroTimings(&bare)
		if len(bare.Reports) == 0 {
			t.Fatal("workload subject produced no reports; test is vacuous")
		}
		for _, rec := range []*obs.Recorder{obs.New(), obs.NewTracing()} {
			got := buildWorkloadSubject(t).CheckAll(specs, detect.Options{Workers: w, Obs: rec})
			zeroTimings(&got)
			got.WorkerStats = nil
			if !reflect.DeepEqual(bare.Reports, got.Reports) {
				t.Fatalf("workers=%d tracing=%v: reports differ with recorder attached",
					w, rec.Tracing())
			}
			if !reflect.DeepEqual(bare.Checkers, got.Checkers) {
				t.Fatalf("workers=%d tracing=%v: stats differ with recorder attached\nbare: %+v\nobs:  %+v",
					w, rec.Tracing(), bare.Checkers, got.Checkers)
			}
		}
	}
}

// TestCheckAllTraceShape runs a traced detection pass and checks the trace
// document is valid Chrome trace-event JSON carrying the phase spans, one
// task span per scheduled task, and SMT query spans on worker tracks.
func TestCheckAllTraceShape(t *testing.T) {
	a := buildWorkloadSubject(t)
	rec := obs.NewTracing()
	res := a.CheckAll(checkers.All(), detect.Options{Workers: 4, Obs: rec})

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Tid  int                    `json:"tid"`
			Dur  *float64               `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	phases := map[string]bool{}
	tasks, smtSpans := 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Tid == 0 {
			phases[ev.Name] = true
			continue
		}
		switch {
		case len(ev.Name) > 5 && ev.Name[:5] == "task:":
			tasks++
			if ev.Args["func"] == nil || ev.Args["at"] == nil {
				t.Fatalf("task span %q missing func/at args: %+v", ev.Name, ev.Args)
			}
		case ev.Name == "smt":
			smtSpans++
			if ev.Args["checker"] == nil {
				t.Fatalf("smt span missing checker arg: %+v", ev.Args)
			}
		}
	}
	for _, want := range []string{"detect/prepare", "detect/search", "detect/merge"} {
		if !phases[want] {
			t.Errorf("missing phase span %q; got %v", want, phases)
		}
	}
	totalTasks := 0
	for _, ws := range res.WorkerStats {
		totalTasks += ws.Tasks
	}
	if totalTasks == 0 {
		t.Fatal("no per-worker task counts recorded")
	}
	if tasks != totalTasks {
		t.Errorf("trace has %d task spans, worker stats count %d tasks", tasks, totalTasks)
	}
	if smtSpans == 0 {
		t.Error("no SMT query spans in trace")
	}
}

// TestCheckAllObsCounters checks the scheduler's registry rollup: task and
// report counters, the local-flow walk counters (kept under the summary-cache
// names: misses count walks, and no hit counter is registered), and the SMT
// latency histogram all land in the recorder and agree with Results.
func TestCheckAllObsCounters(t *testing.T) {
	a := buildWorkloadSubject(t)
	rec := obs.New()
	res := a.CheckAll(checkers.All(), detect.Options{Workers: -1, Obs: rec})
	snap := rec.Snapshot()

	if got := snap.Counters["detect.reports"]; got != int64(len(res.Reports)) {
		t.Errorf("detect.reports = %d, want %d", got, len(res.Reports))
	}
	if _, ok := snap.Counters["summary.cache_hits"]; ok {
		t.Error("summary.cache_hits is registered; nothing is memoized, so it would always read 0")
	}
	if got := snap.Counters["summary.cache_misses"]; got != int64(res.SummaryMisses) {
		t.Errorf("summary.cache_misses = %d, want %d", got, res.SummaryMisses)
	}
	if res.SummaryMisses == 0 || res.SummaryHits != 0 {
		t.Errorf("%d walks, %d hits: want walks counted and no hits", res.SummaryMisses, res.SummaryHits)
	}

	// The latency histogram records only queries the DPLL(T) solver actually
	// answered; prefilter refutations land in their own counter, and the
	// two steps partition SMTQueries exactly.
	var wantSolved, wantPrefiltered, wantQueries int64
	for _, cs := range res.Checkers {
		wantSolved += int64(cs.Stats.SMTSolved)
		wantPrefiltered += int64(cs.Stats.SMTPrefilterUnsat)
		wantQueries += int64(cs.Stats.SMTQueries)
	}
	if wantSolved+wantPrefiltered != wantQueries {
		t.Errorf("solved + prefiltered = %d, want SMTQueries sum %d",
			wantSolved+wantPrefiltered, wantQueries)
	}
	h := snap.Histograms["smt.query_ns"]
	if h.Count != wantSolved {
		t.Errorf("smt.query_ns count = %d, want %d (sum of checker SMT solved)", h.Count, wantSolved)
	}
	if wantSolved > 0 && (h.P50 <= 0 || h.P99 < h.P50) {
		t.Errorf("smt.query_ns percentiles malformed: %+v", h)
	}
	if got := snap.Counters["smt.prefilter_unsat"]; got != wantPrefiltered {
		t.Errorf("smt.prefilter_unsat = %d, want %d", got, wantPrefiltered)
	}
}

// TestSummaryCountersArePerCall pins the walk counters on a Program, whose
// caches persist across calls: each CheckAll reports — and adds to the
// registry — the local-flow walks it made itself. Local flows are not cached,
// so a second call that has to search again (Witness moved, so nothing
// replays) walks exactly what the first one did and truncates the same
// walks; a third, identical to the second, replays every task and walks
// nothing. No call counts a hit.
func TestSummaryCountersArePerCall(t *testing.T) {
	a := buildWorkloadSubject(t)
	rec := obs.New()
	specs := checkers.All()

	first := a.CheckAll(specs, detect.Options{Workers: 2, Obs: rec})
	second := a.CheckAll(specs, detect.Options{Workers: 2, Obs: rec, Witness: true})
	third := a.CheckAll(specs, detect.Options{Workers: 2, Obs: rec, Witness: true})

	if first.SummaryMisses == 0 || first.TasksRun == 0 || first.TasksReplayed != 0 {
		t.Fatalf("first call: %+v", first)
	}
	if second.TasksReplayed != 0 || second.SummaryMisses != first.SummaryMisses || second.SummaryCapHits != first.SummaryCapHits {
		t.Errorf("second call: %d replayed, %d walks, %d truncated; want 0, and the first call's %d and %d",
			second.TasksReplayed, second.SummaryMisses, second.SummaryCapHits, first.SummaryMisses, first.SummaryCapHits)
	}
	if third.TasksRun != 0 || third.SummaryHits != 0 || third.SummaryMisses != 0 || third.SummaryCapHits != 0 {
		t.Errorf("third call replayed everything: %d ran, %d hits, %d misses, %d cap hits; want all 0",
			third.TasksRun, third.SummaryHits, third.SummaryMisses, third.SummaryCapHits)
	}
	snap := rec.Snapshot()
	if first.SummaryHits != 0 || second.SummaryHits != 0 || snap.Counters["summary.cache_hits"] != 0 {
		t.Errorf("hits counted: %d, %d, registry %d; want 0", first.SummaryHits, second.SummaryHits, snap.Counters["summary.cache_hits"])
	}
	if got, want := snap.Counters["summary.cache_misses"], int64(first.SummaryMisses+second.SummaryMisses); got != want {
		t.Errorf("summary.cache_misses = %d, want the calls' sum %d", got, want)
	}
	if got, want := snap.Counters["detect.tasks"], int64(3*first.TasksRun); got != want {
		t.Errorf("detect.tasks = %d, want %d", got, want)
	}
	if got, want := snap.Counters["detect.tasks_replayed"], int64(third.TasksReplayed); got != want {
		t.Errorf("detect.tasks_replayed = %d, want %d", got, want)
	}
}

// TestCheckAllWorkerStats checks the per-worker utilization breakdown:
// populated only when a recorder is attached, with every task attributed
// to exactly one worker.
func TestCheckAllWorkerStats(t *testing.T) {
	a := buildWorkloadSubject(t)

	bare := a.CheckAll(checkers.All(), detect.Options{Workers: 3})
	if bare.WorkerStats != nil {
		t.Error("WorkerStats populated without a recorder")
	}

	// On a fresh Program: on a's, every task would replay and none run.
	res := buildWorkloadSubject(t).CheckAll(checkers.All(), detect.Options{Workers: 3, Obs: obs.New()})
	if len(res.WorkerStats) != 3 {
		t.Fatalf("WorkerStats has %d entries, want 3", len(res.WorkerStats))
	}
	total := 0
	for i, ws := range res.WorkerStats {
		if ws.Worker != i {
			t.Errorf("WorkerStats[%d].Worker = %d", i, ws.Worker)
		}
		if ws.Tasks > 0 && ws.Busy <= 0 {
			t.Errorf("worker %d ran %d tasks with zero busy time", i, ws.Tasks)
		}
		total += ws.Tasks
	}
	if total == 0 {
		t.Fatal("no tasks attributed to any worker")
	}
}

// TestSolverTraffic is the measurement behind the plain search in
// internal/smt/sat.go, kept where it re-runs: what the benchmark's two kinds
// of program ask of the solver is settled by unit propagation and one theory
// check, with the search never opened (DESIGN.md, "SMT query elimination",
// has the census this samples). The recorder's counters are totals over a
// run, so the bound on a query — 8 decisions, twice the most any query in
// the test suite takes — is held against each run's total: no query can
// have taken more than all of them together. When the declarative workload
// generator of ROADMAP item 2 makes this fail, measure again what reaches
// the solver before touching the bound: a workload that searches is what
// would justify a smarter search.
func TestSolverTraffic(t *testing.T) {
	const maxDecisions = 8
	run := func(name string, units ...[]minic.NamedSource) {
		rec := obs.New()
		solved := 0
		for _, u := range units {
			a, err := core.BuildFromSource(u, core.BuildOptions{})
			if err != nil {
				t.Fatalf("%s: build: %v", name, err)
			}
			for _, cs := range a.CheckAll(checkers.All(), detect.Options{Obs: rec}).Checkers {
				solved += cs.Stats.SMTSolved
			}
		}
		c := rec.Snapshot().Counters
		t.Logf("%s: %d solved, %d decisions, %d conflicts, %d theory conflicts, %d unsat",
			name, solved, c["smt.decisions"], c["smt.conflicts"], c["smt.theory_conflicts"], c["smt.result.unsat"])
		if solved == 0 {
			t.Errorf("%s: no query reached the solver; the measurement is vacuous", name)
		}
		if c["smt.decisions"] > maxDecisions {
			t.Errorf("%s: %d decisions over %d solved queries; a single query is allowed %d",
				name, c["smt.decisions"], solved, maxDecisions)
		}
	}

	// batch-ladder's program at the benchmark's smoke size (benchmark/inputs.go, r4k).
	ladder := workload.Generate(
		workload.Subject{Name: "ladder", Origin: "synthetic", PaperKLoC: 120, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1})
	run("ladder", ladder.Units)

	// juliet-cold's programs: every fourteenth case, so all flaw types are in.
	suite := workload.JulietSuite()
	var cases [][]minic.NamedSource
	for i := 0; i < 100; i++ {
		cases = append(cases, suite[i*len(suite)/100].Units)
	}
	run("juliet", cases...)
}
