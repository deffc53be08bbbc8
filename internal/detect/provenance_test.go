package detect_test

import (
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
)

// Provenance determinism: with Options.Witness on, the captured hops,
// path-condition sizes and verdict sources are pure functions of the
// program, so reports must be byte-identical across worker counts and
// across warm/cold sessions.

// witnessReports runs all checkers with provenance capture on and returns
// the reports.
func witnessReports(t *testing.T, a *core.Analysis, opts detect.Options) []detect.Report {
	t.Helper()
	opts.Witness = true
	return a.CheckAll(checkers.All(), opts).Reports
}

func marshalJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func toJSONReports(rs []detect.Report) []detect.JSONReport {
	js := make([]detect.JSONReport, len(rs))
	for i, r := range rs {
		js[i] = r.ToJSON()
	}
	return js
}

func TestWitnessDeterminismAcrossWorkers(t *testing.T) {
	units := exampleUnits(t)

	// The full JSON — provenance bytes included — must agree between a
	// sequential and a GOMAXPROCS run on independent cold builds.
	var baseline string
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		a, err := core.BuildFromSource(units, core.BuildOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		reports := witnessReports(t, a, detect.Options{Workers: workers})
		for _, r := range reports {
			if r.Provenance == nil {
				t.Fatalf("report %s has no provenance with Witness on", r)
			}
			// Reports are Sat, so the Unsat-only prefilter can never
			// appear.
			switch r.Provenance.VerdictSource {
			case detect.VerdictSolved, detect.VerdictStructural:
			default:
				t.Errorf("report %s: unexpected verdict source %s", r, r.Provenance.VerdictSource)
			}
			if r.Sink.Fn != nil && len(r.Provenance.Hops) == 0 {
				t.Errorf("source–sink report %s has no hops", r)
			}
			if r.Sink.Fn != nil && r.Provenance.CondTerms == 0 {
				t.Errorf("path-checked report %s has CondTerms = 0", r)
			}
		}
		got := marshalJSON(t, toJSONReports(reports))
		if baseline == "" {
			baseline = got
		} else if got != baseline {
			t.Errorf("workers=%d: witness reports differ from sequential run", workers)
		}
	}
}

func TestWitnessDeterminismWarmCold(t *testing.T) {
	units := exampleUnits(t)
	opts := detect.Options{Workers: runtime.GOMAXPROCS(0)}

	// Cold: a fresh one-shot build.
	cold, err := core.BuildFromSource(units, core.BuildOptions{Workers: opts.Workers})
	if err != nil {
		t.Fatal(err)
	}
	coldJSON := marshalJSON(t, toJSONReports(witnessReports(t, cold, opts)))

	// Warm: a session updated twice with identical sources — every
	// artifact is retained and the sticky detection caches carry over.
	sess := core.NewSession(core.BuildOptions{Workers: opts.Workers})
	if _, err := sess.Update(units); err != nil {
		t.Fatal(err)
	}
	witnessReports(t, sess.Analysis(), opts) // heats the sticky caches
	warm, err := sess.Update(units)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Artifacts.Hits == 0 || warm.Artifacts.Misses+warm.Artifacts.Invalidated != 0 {
		t.Fatalf("expected an all-hits warm update, got %+v", warm.Artifacts)
	}
	if got := marshalJSON(t, toJSONReports(witnessReports(t, warm, opts))); got != coldJSON {
		t.Error("witness reports differ between warm and cold builds")
	}
}

// TestWitnessOffNoProvenance pins the gating: without Options.Witness no
// report carries provenance (the hot path allocates nothing for it).
func TestWitnessOffNoProvenance(t *testing.T) {
	a, err := core.BuildFromSource(exampleUnits(t), core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := a.CheckAll(checkers.All(), detect.Options{})
	if len(res.Reports) == 0 {
		t.Fatal("examples produced no reports")
	}
	for _, r := range res.Reports {
		if r.Provenance != nil {
			t.Errorf("report %s carries provenance with Witness off", r)
		}
		if r.ToJSON().Provenance != nil {
			t.Errorf("JSON report for %s carries provenance with Witness off", r)
		}
	}
}
