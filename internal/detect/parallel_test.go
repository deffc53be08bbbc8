package detect_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/workload"
)

// buildWorkloadSubject synthesizes a mid-size subject with UAF, taint, and
// leak flows and builds the full analysis for it.
func buildWorkloadSubject(t testing.TB) *core.Analysis {
	t.Helper()
	subj := workload.Subject{
		Name: "sched-test", Origin: "synthetic", PaperKLoC: 60,
		TrueBugs: 6, OpaqueTraps: 4,
	}
	gen := workload.Generate(subj, workload.GenOptions{Taint: true})
	a, err := core.BuildFromSource(gen.Units, core.BuildOptions{Workers: -1})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return a
}

// zeroTimings clears the wall-clock fields so stats compare structurally.
// Every counter, including the solved/prefiltered split, still must match
// exactly.
func zeroTimings(rs *detect.Results) {
	rs.Wall = 0
	rs.Workers = 0
	for i := range rs.Checkers {
		rs.Checkers[i].Stats.SMTTime = 0
	}
}

// TestCheckAllParallelMatchesSequential is the headline determinism
// guarantee: with Workers = GOMAXPROCS the sorted reports — including SMT
// witnesses — and the merged stats are identical to the sequential run.
// Running under -race additionally exercises the shared-cache locking. Each
// run is on a Program of its own: on one, every later run would replay.
func TestCheckAllParallelMatchesSequential(t *testing.T) {
	specs := checkers.All()

	seq := buildWorkloadSubject(t).CheckAll(specs, detect.Options{Workers: 1})
	zeroTimings(&seq)
	if len(seq.Reports) == 0 {
		t.Fatal("workload subject produced no reports; test is vacuous")
	}

	for _, w := range []int{2, runtime.GOMAXPROCS(0), -1} {
		par := buildWorkloadSubject(t).CheckAll(specs, detect.Options{Workers: w})
		zeroTimings(&par)
		if !reflect.DeepEqual(seq.Reports, par.Reports) {
			t.Fatalf("workers=%d: reports differ from sequential run\nseq: %v\npar: %v",
				w, seq.Reports, par.Reports)
		}
		if !reflect.DeepEqual(seq.Checkers, par.Checkers) {
			t.Fatalf("workers=%d: stats differ from sequential run\nseq: %+v\npar: %+v",
				w, seq.Checkers, par.Checkers)
		}
		if seq.SummaryCapHits != par.SummaryCapHits {
			t.Fatalf("workers=%d: cap hits differ: %d vs %d", w, seq.SummaryCapHits, par.SummaryCapHits)
		}
	}
}

// TestCheckAllRepeatable runs the parallel scheduler again, on the same
// Program and on a fresh one, and demands byte-identical output — catching
// any schedule-dependent state leaking into reports (witnesses are the
// sensitive part), whether the tasks replay or run.
func TestCheckAllRepeatable(t *testing.T) {
	a := buildWorkloadSubject(t)
	specs := checkers.All()
	first := a.CheckAll(specs, detect.Options{Workers: -1})
	for i, again := range []detect.Results{
		a.CheckAll(specs, detect.Options{Workers: -1}),
		a.CheckAll(specs, detect.Options{Workers: -1}),
		buildWorkloadSubject(t).CheckAll(specs, detect.Options{Workers: -1}),
	} {
		if !reflect.DeepEqual(first.Reports, again.Reports) {
			t.Fatalf("run %d: parallel reports not repeatable", i+2)
		}
	}
}

// TestSecondCheckAllReplays: a one-shot Analysis keeps its detection caches
// like a session's, so a second identical CheckAll runs no task and returns
// the first one's reports and counters (bar SMTTime: a replay solves
// nothing).
func TestSecondCheckAllReplays(t *testing.T) {
	a := buildWorkloadSubject(t)
	first := a.CheckAll(checkers.All(), detect.Options{Workers: 2})
	second := a.CheckAll(checkers.All(), detect.Options{Workers: 2})
	if first.TasksRun == 0 || second.TasksRun != 0 || second.TasksReplayed != first.TasksRun {
		t.Fatalf("first call ran %d tasks, second ran %d and replayed %d; want >0, 0, %d",
			first.TasksRun, second.TasksRun, second.TasksReplayed, first.TasksRun)
	}
	zeroTimings(&first)
	zeroTimings(&second)
	if !reflect.DeepEqual(first.Reports, second.Reports) {
		t.Fatalf("reports differ\nfirst:  %v\nsecond: %v", first.Reports, second.Reports)
	}
	if !reflect.DeepEqual(first.Checkers, second.Checkers) ||
		first.ExpansionsWalked != second.ExpansionsWalked || first.QueriesIssued != second.QueriesIssued {
		t.Fatalf("stats differ\nfirst:  %+v, %d walked, %d issued\nsecond: %+v, %d walked, %d issued",
			first.Checkers, first.ExpansionsWalked, first.QueriesIssued, second.Checkers, second.ExpansionsWalked, second.QueriesIssued)
	}
}

// TestCheckAllMatchesSingleEngine holds the scheduler at every core against
// itself at one worker, checker by checker: Analysis.Check is a one-spec
// CheckAll on one worker, and its reports and stats must equal the parallel
// run's, made on another Program.
func TestCheckAllMatchesSingleEngine(t *testing.T) {
	a, b := buildWorkloadSubject(t), buildWorkloadSubject(t)
	for _, sp := range checkers.All() {
		res := a.CheckAll([]*checkers.Spec{sp}, detect.Options{Workers: -1})
		one, oneStats := b.Check(sp, detect.Options{})
		if !reflect.DeepEqual(one, res.Reports) {
			t.Errorf("%s: reports at one worker != at every core\none: %v\nall: %v",
				sp.Name, one, res.Reports)
		}
		st := res.Checkers[0].Stats
		st.SMTTime = 0
		oneStats.SMTTime = 0
		// Check folds the call's cap hits into the checker's stats.
		st.SummaryCapHits = res.SummaryCapHits
		if st != oneStats {
			t.Errorf("%s: stats at one worker != at every core\none: %+v\nall: %+v",
				sp.Name, oneStats, st)
		}
	}
}

// TestCheckAllAllEqualsEachIndividually is the -checkers all regression:
// running every checker in one CheckAll call produces exactly the union of
// running each checker alone.
func TestCheckAllAllEqualsEachIndividually(t *testing.T) {
	a := buildWorkloadSubject(t)
	all := a.CheckAll(checkers.All(), detect.Options{Workers: -1})
	var union []detect.Report
	for _, sp := range checkers.All() {
		one := a.CheckAll([]*checkers.Spec{sp}, detect.Options{Workers: -1})
		union = append(union, one.Reports...)
	}
	detect.SortReports(union)
	if !reflect.DeepEqual(all.Reports, union) {
		t.Fatalf("-checkers all != union of individual runs\nall:   %v\nunion: %v", all.Reports, union)
	}
}

// TestJSONReportShape checks the exported schema round-trips the fields the
// CLI used to emit.
func TestJSONReportShape(t *testing.T) {
	a := buildWorkloadSubject(t)
	res := a.CheckAll(checkers.All(), detect.Options{Workers: -1})
	for _, r := range res.Reports {
		j := r.ToJSON()
		if j.Checker != r.Checker || j.SourceFile != r.SourcePos.File || j.SourceLine != r.SourcePos.Line {
			t.Fatalf("ToJSON dropped source fields: %+v from %+v", j, r)
		}
		if r.Sink.Fn == nil {
			if j.SinkFile != "" || j.PathLen != 0 {
				t.Fatalf("leak report leaked sink fields: %+v", j)
			}
			if j.Kind == "" {
				t.Fatalf("leak report missing kind: %+v", j)
			}
		} else if j.SinkFile != r.SinkPos.File || j.SinkLine != r.SinkPos.Line {
			t.Fatalf("ToJSON dropped sink fields: %+v from %+v", j, r)
		}
	}
}
