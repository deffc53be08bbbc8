package detect_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
)

// The differential suite behind the SMT prefilter's guarantee: with the
// prefilter on, CheckAll must produce JSON reports byte-identical to the
// solve-everything reference run, at one worker and at GOMAXPROCS.

// exampleUnits loads the checked-in CLI example sources.
func exampleUnits(t *testing.T) []minic.NamedSource {
	t.Helper()
	paths, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example sources found: %v", err)
	}
	units := make([]minic.NamedSource, len(paths))
	for i, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = minic.NamedSource{Name: filepath.Base(p), Src: string(src)}
	}
	return units
}

func marshalReports(t *testing.T, rs []detect.Report) string {
	t.Helper()
	js := make([]detect.JSONReport, len(rs))
	for i, r := range rs {
		js[i] = r.ToJSON()
	}
	b, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runSMTDifferential checks CheckAll over a with the prefilter on against
// the prefilter-off reference, at each worker count.
func runSMTDifferential(t *testing.T, a *core.Analysis) {
	specs := checkers.All()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		base := a.CheckAll(specs, detect.Options{Workers: workers, DisableSMTPrefilter: true})
		baseJSON := marshalReports(t, base.Reports)
		if len(base.Reports) == 0 {
			t.Fatal("reference run produced no reports; differential is vacuous")
		}
		res := a.CheckAll(specs, detect.Options{Workers: workers})
		if got := marshalReports(t, res.Reports); got != baseJSON {
			t.Fatalf("workers=%d: reports differ from the prefilter-off reference\nbase: %s\ngot:  %s",
				workers, baseJSON, got)
		}
		// The two steps and the three verdicts must each partition the
		// query count exactly — for every checker, the leak checker's own
		// query path included — and the reference must have solved
		// everything.
		for i, cs := range res.Checkers {
			st, ref := cs.Stats, base.Checkers[i].Stats
			if st.SMTSolved+st.SMTPrefilterUnsat != st.SMTQueries {
				t.Fatalf("workers=%d %s: steps %d+%d != queries %d",
					workers, cs.Checker, st.SMTSolved, st.SMTPrefilterUnsat, st.SMTQueries)
			}
			if st.SMTSat+st.SMTUnsat+st.SMTUnknown != st.SMTQueries {
				t.Fatalf("workers=%d %s: verdicts %d+%d+%d != queries %d",
					workers, cs.Checker, st.SMTSat, st.SMTUnsat, st.SMTUnknown, st.SMTQueries)
			}
			if ref.SMTPrefilterUnsat != 0 || ref.SMTSolved != ref.SMTQueries {
				t.Fatalf("workers=%d %s: prefilter disabled but %d kills, %d of %d solved",
					workers, cs.Checker, ref.SMTPrefilterUnsat, ref.SMTSolved, ref.SMTQueries)
			}
		}
	}
}

func TestSMTEliminationDifferentialExamples(t *testing.T) {
	a, err := core.BuildFromSource(exampleUnits(t), core.BuildOptions{Workers: -1})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	runSMTDifferential(t, a)
}

func TestSMTEliminationDifferentialWorkload(t *testing.T) {
	runSMTDifferential(t, buildWorkloadSubject(t))
}

// TestSMTEliminationAblationStats pins the prefilter's effect, not just its
// harmlessness: on the workload subject it must refute at least one
// candidate, and every query it refutes is one the reference run pays the
// solver for.
func TestSMTEliminationAblationStats(t *testing.T) {
	a := buildWorkloadSubject(t)
	specs := checkers.All()
	sum := func(rs detect.Results) (solved, prefiltered, queries int) {
		for _, cs := range rs.Checkers {
			solved += cs.Stats.SMTSolved
			prefiltered += cs.Stats.SMTPrefilterUnsat
			queries += cs.Stats.SMTQueries
		}
		return
	}
	solved, prefiltered, queries := sum(a.CheckAll(specs, detect.Options{Workers: 1}))
	refSolved, _, refQueries := sum(a.CheckAll(specs, detect.Options{Workers: 1, DisableSMTPrefilter: true}))
	if queries == 0 {
		t.Fatal("no SMT queries issued; ablation is vacuous")
	}
	if prefiltered == 0 {
		t.Error("prefilter refuted no candidate on the workload subject")
	}
	if queries != refQueries || solved+prefiltered != refSolved {
		t.Errorf("prefilter on: %d solved + %d prefiltered of %d queries; off: %d solved of %d",
			solved, prefiltered, queries, refSolved, refQueries)
	}
}
