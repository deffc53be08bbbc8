package detect_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/difftest"
	"repro/internal/minic"
	"repro/internal/workload"
)

// subject is one program of the grouping corpus.
type subject struct {
	name  string
	units []minic.NamedSource
}

// groupCorpus is what the grouped search is held against: generated programs
// of difftest's grammar (frees, dereferences and second frees of a few
// aliased pointers under correlated guards — where use-after-free and
// double-free share sources, candidates and caps), one case of every Juliet
// flaw type, and the example programs.
func groupCorpus(t *testing.T) []subject {
	t.Helper()
	var out []subject
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 40; i++ {
		out = append(out, subject{fmt.Sprintf("difftest-%d", i), []minic.NamedSource{{Name: "diff.mc", Src: difftest.Generate(rng).Src}}})
	}
	seen := map[string]bool{}
	for _, c := range workload.JulietSuite() {
		if !seen[c.FlawType] {
			seen[c.FlawType] = true
			out = append(out, subject{"juliet-" + c.FlawType, c.Units})
		}
	}
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/mc: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, subject{filepath.Base(f), []minic.NamedSource{{Name: filepath.Base(f), Src: string(src)}}})
	}
	return out
}

// outcome is what a CheckAll call is compared by: the rendered reports
// (positions, witnesses, provenance — no pointers, so that two builds of one
// program compare) and every count of the per-checker stats.
type outcome struct {
	reports string
	stats   []detect.CheckerStats
}

func outcomeOf(t *testing.T, reports []detect.Report, stats []detect.CheckerStats) outcome {
	t.Helper()
	list := make([]detect.JSONReport, 0, len(reports))
	for _, r := range reports {
		list = append(list, r.ToJSON())
	}
	b, err := json.Marshal(list)
	if err != nil {
		t.Fatal(err)
	}
	stats = append([]detect.CheckerStats(nil), stats...)
	for i := range stats {
		stats[i].Stats.SMTTime = 0
	}
	return outcome{string(b), stats}
}

// solo runs each spec in a CheckAll of its own and concatenates.
func solo(t *testing.T, a *core.Analysis, specs []*checkers.Spec, opts detect.Options) outcome {
	t.Helper()
	var reports []detect.Report
	var stats []detect.CheckerStats
	for _, sp := range specs {
		res := a.CheckAll([]*checkers.Spec{sp}, opts)
		reports = append(reports, res.Reports...)
		stats = append(stats, res.Checkers...)
	}
	detect.SortReports(reports)
	return outcomeOf(t, reports, stats)
}

func build(t *testing.T, units []minic.NamedSource) *core.Analysis {
	t.Helper()
	a, err := core.BuildFromSource(units, core.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return a
}

// TestGroupedEqualsSolo: running the checkers together — use-after-free and
// double-free on one walk — gives every checker the reports, witnesses and
// counters of running it alone, whichever of the per-source caps cut its
// search short, at every worker count, on a one-shot Program and on a
// session's, cold and replayed.
func TestGroupedEqualsSolo(t *testing.T) {
	corpus := groupCorpus(t)
	shared, capped := 0, 0 // candidates both checkers counted; runs where their truncations differ
	for _, workers := range []int{1, runtime.GOMAXPROCS(0) + 1} {
		for _, maxCand := range []int{1, 2, 0} {
			for _, maxExp := range []int{0, 3} {
				opts := detect.Options{Workers: workers, MaxCandidates: maxCand, MaxExpansions: maxExp, Witness: true}
				tag := fmt.Sprintf("workers=%d candidates=%d expansions=%d", workers, maxCand, maxExp)
				for _, s := range corpus {
					all := build(t, s.units).CheckAll(checkers.All(), opts)
					// A fresh Program: on the grouped run's, the solo runs would
					// replay what the group recorded.
					got, want := outcomeOf(t, all.Reports, all.Checkers), solo(t, build(t, s.units), checkers.All(), opts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %s: grouped != solo\ngrouped: %+v\nsolo:    %+v\n%s", s.name, tag, got, want, s.units[0].Src)
					}
					uaf, df := all.Checkers[0].Stats, all.Checkers[1].Stats
					if uaf.Candidates > 0 && df.Candidates > 0 {
						shared++
					}
					if uaf.TruncatedSearches != df.TruncatedSearches {
						capped++
					}
					// The shared walk is as long as its longest-lived member's.
					walked := max(uaf.Expansions, df.Expansions)
					for _, cs := range all.Checkers[2:] {
						walked += cs.Stats.Expansions
					}
					if all.ExpansionsWalked != walked {
						t.Fatalf("%s, %s: %d expansions walked, want %d: %+v", s.name, tag, all.ExpansionsWalked, walked, all.Checkers)
					}
				}
			}
		}
	}
	if shared == 0 || capped == 0 {
		t.Fatalf("vacuous: %d runs shared a candidate, %d had one member capped before the other", shared, capped)
	}

	// On a session: cold, then after an edit of the last function (on its
	// opening line, so that no position moves), which leaves the entries of
	// the groups that did not enter it to replay; then a request for one
	// member of the group, and for both the other way round, which replay the
	// entries the whole group recorded.
	opts := detect.Options{Workers: 2, MaxCandidates: 2, Witness: true}
	replayed := 0
	for _, s := range corpus {
		sess := core.NewSession(core.BuildOptions{})
		edited := append([]minic.NamedSource(nil), s.units...)
		last := &edited[len(edited)-1]
		openers := funcOpener.FindAllStringIndex(last.Src, -1)
		at := openers[len(openers)-1][1]
		last.Src = last.Src[:at] + " int zz = 0;" + last.Src[at:]
		for step, units := range [][]minic.NamedSource{s.units, edited} {
			a, err := sess.Update(units)
			if err != nil {
				t.Fatalf("%s: session: %v", s.name, err)
			}
			cold := build(t, units)
			for _, names := range [][]string{nil, {"use-after-free"}, {"double-free", "use-after-free"}, {"double-free", "memory-leak"}} {
				specs := func() []*checkers.Spec {
					if names == nil {
						return checkers.All()
					}
					var out []*checkers.Spec
					for _, n := range names {
						sp, _ := checkers.ByName(n)
						out = append(out, sp)
					}
					return out
				}
				res := a.CheckAll(specs(), opts)
				if got, want := outcomeOf(t, res.Reports, res.Checkers), solo(t, cold, specs(), opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, step %d, checkers %v: session != solo\nsession: %+v\nsolo:    %+v", s.name, step, names, got, want)
				}
				if names != nil && len(names) < 3 && names[len(names)-1] == "use-after-free" && res.TasksRun != 0 {
					t.Fatalf("%s, step %d, checkers %v: %d tasks ran after all checkers had", s.name, step, names, res.TasksRun)
				}
				if step == 1 && names == nil {
					replayed += res.TasksReplayed
				}
			}
		}
	}
	if replayed == 0 {
		t.Fatal("no group entry was ever replayed")
	}
}

var (
	funcOpener = regexp.MustCompile(`(?m)^[a-z]+ \*?[a-z_0-9]+\([^)]*\) \{`)
	freeCall   = regexp.MustCompile(`free\(([a-z]+)\);`)
	ptrOpener  = regexp.MustCompile(`(?m)^[a-z]+ \*?[a-z_0-9]+\(int \*([a-z]+)[^)]*\) \{`)
)

// TestMayFreeFactsEqualFixpoint: the worklist over the recorded parameter
// facts computes the relation the round-robin over the flows did (kept in
// export_test.go as the oracle) — on the corpus, and on a session through 30
// seeded edits that drop frees and add them to functions taking pointers,
// where only the functions reaching an edit are recomputed.
func TestMayFreeFactsEqualFixpoint(t *testing.T) {
	leak := func() []*checkers.Spec { return []*checkers.Spec{checkers.MemoryLeak()} }
	compare := func(tag string, prog *detect.Program) (freed int) {
		t.Helper()
		got, want := prog.MayFree(), detect.RoundRobinMayFree(prog)
		for pos := range prog.Module.NumFuncs() {
			f := prog.Module.Func(pos)
			if len(prog.Callers(f)) == 0 {
				continue // left out of the relation; a carried entry may linger
			}
			if !reflect.DeepEqual(got[f.ID], want[f.ID]) {
				t.Fatalf("%s: may-free of %s = %v, round-robin says %v", tag, f.Name, got[f.ID], want[f.ID])
			}
			for _, b := range got[f.ID] {
				if b {
					freed++
				}
			}
		}
		return freed
	}
	freed := 0
	for _, s := range groupCorpus(t) {
		a := build(t, s.units)
		a.CheckAll(leak(), detect.Options{})
		freed += compare(s.name, a.Prog)
	}
	if freed == 0 {
		t.Fatal("vacuous: no parameter of the corpus is freed")
	}

	const seed = 28
	rng := rand.New(rand.NewSource(seed))
	gen := workload.Generate(
		workload.Subject{Name: "ladder", Origin: "synthetic", PaperKLoC: 60, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: seed})
	units := append([]minic.NamedSource(nil), gen.Units...)
	sess := core.NewSession(core.BuildOptions{})
	last, moved := -1, 0
	for i := 0; i <= 30; i++ {
		what := "cold"
		if i > 0 {
			u := &units[rng.Intn(len(units))]
			if frees := freeCall.FindAllStringIndex(u.Src, -1); i%2 == 0 && len(frees) > 0 {
				at := frees[rng.Intn(len(frees))]
				u.Src = u.Src[:at[0]] + "use_val(0);" + u.Src[at[1]:]
				what = "drop a free"
			} else if openers := ptrOpener.FindAllStringSubmatchIndex(u.Src, -1); len(openers) > 0 {
				m := openers[rng.Intn(len(openers))]
				u.Src = u.Src[:m[1]] + " free(" + u.Src[m[2]:m[3]] + ");" + u.Src[m[1]:]
				what = "free a pointer parameter"
			}
		}
		a, err := sess.Update(units)
		if err != nil {
			t.Fatalf("edit %d (%s): %v", i, what, err)
		}
		a.CheckAll(leak(), detect.Options{Workers: 2})
		n := compare(fmt.Sprintf("edit %d (%s)", i, what), a.Prog)
		if i > 0 && n != last {
			moved++
		}
		last = n
	}
	if moved < 5 {
		t.Fatalf("the edits barely moved the relation (%d of 30 did)", moved)
	}
}
