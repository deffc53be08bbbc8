package main

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// shapeScale is the scale TestPaperShape evaluates at: Table 1's counts are
// the same at every scale, and this one keeps the whole pass near a second.
const shapeScale = 2

// TestPaperShape runs the evaluation once and holds the shapes the paper's
// §5 claims: counts, orders and fits, never a time.
func TestPaperShape(t *testing.T) {
	ev, err := evaluate(shapeScale, func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"table1", func(t *testing.T) {
			reports, fp := 0, 0
			for _, r := range ev.Subjects {
				s := r.Subject
				if r.UAF.Reports != s.PaperPinpointReports || r.UAF.FP != s.PaperPinpointFP {
					t.Errorf("%s: %d reports, %d FP; the paper has %d, %d", s.Name, r.UAF.Reports, r.UAF.FP, s.PaperPinpointReports, s.PaperPinpointFP)
				}
				reports += r.UAF.Reports
				fp += r.UAF.FP
			}
			if reports != 14 || fp != 2 {
				t.Errorf("Pinpoint totals %d reports, %d FP; the paper has 14, 2", reports, fp)
			}
		}},
		{"subject-runs", func(t *testing.T) {
			for _, r := range ev.Subjects {
				s := r.Subject
				if r.Lines == 0 || r.SEGNodes == 0 {
					t.Errorf("%s: %d lines, %d SEG nodes; want a non-empty run", s.Name, r.Lines, r.SEGNodes)
				}
				if !r.SVF.TimedOut && len(r.SVF.Reports) == 0 {
					t.Errorf("%s: the layered baseline finished without a warning", s.Name)
				}
				if s.Name == "gzip" && r.UAF.Reports != 0 {
					t.Errorf("gzip: %d reports, want it clean", r.UAF.Reports)
				}
			}
		}},
		{"baseline-boundary", func(t *testing.T) {
			timedOut := false
			for _, r := range bySize(ev.Subjects) {
				if timedOut && !r.SVF.TimedOut {
					t.Errorf("the baseline finishes %s (%d lines) but timed out on a smaller subject", r.Subject.Name, r.Lines)
				}
				timedOut = timedOut || r.SVF.TimedOut
			}
			if !timedOut {
				t.Error("the baseline timed out on no subject")
			}
			// The budgets are calibrated at scale 15: the paper's ">135
			// KLoC times out" falls between gcc and git there.
			for name, want := range map[string]bool{"gcc": false, "git": true} {
				s, _ := workload.SubjectByName(name)
				sv, _, err := runSVF(workload.Generate(s, workload.GenOptions{Scale: 15}), 15)
				if err != nil {
					t.Fatal(err)
				}
				if sv.TimedOut != want {
					t.Errorf("%s (%d paper-KLoC, %d FSVFG edges) at scale 15: baseline timed out = %v, want %v", name, s.PaperKLoC, sv.Edges, sv.TimedOut, want)
				}
			}
		}},
		{"figure10", func(t *testing.T) {
			fits := figure10(ev.Subjects)
			for _, f := range fits {
				t.Logf("%s: %+v", f.Metric, f)
			}
			if size := fits[2]; size.Exponent < 0.9 || size.Exponent > 1.2 || !(size.R2 > 0.9) {
				t.Errorf("SEG size against lines: exponent %.2f, R² %.4f; want an exponent in [0.9, 1.2] and R² > 0.9", size.Exponent, size.R2)
			}
			if mem := fits[1]; !(mem.R2 > 0.9) {
				t.Errorf("allocation against lines: R² %.4f, want > 0.9", mem.R2)
			}
		}},
		{"table2", func(t *testing.T) {
			for i, want := range []float64{2.0 / 11, 4.0 / 18} {
				r := ev.Taint[i]
				if rate := float64(r.FP) / float64(r.Reports); !(math.Abs(rate-want) <= 0.05) {
					t.Errorf("%s: FP rate %d/%d, want within 5 points of %.1f%%", r.Name, r.FP, r.Reports, 100*want)
				}
			}
		}},
		{"table3", func(t *testing.T) {
			subjects, fp, reports := 0, 0, 0
			for _, r := range ev.Subjects {
				if r.Infer != nil && r.CSA != nil {
					subjects++
					fp += r.Infer.FP
					reports += r.Infer.Reports
				}
			}
			if want := len(workload.OpenSourceSubjects()); subjects != want {
				t.Errorf("Infer-like and CSA-like ran on %d subjects, want %d", subjects, want)
			}
			if share := float64(fp) / float64(reports); !(share >= 0.95) {
				t.Errorf("Infer-like: %d of %d reports FP, want a share ≥ 0.95", fp, reports)
			}
		}},
		{"juliet", func(t *testing.T) {
			if j := ev.Juliet; j.Total != 1421 || j.Detected != j.Total || j.FlawTypes != 51 {
				t.Errorf("Juliet: %d/%d detected over %d flaw types, want 1421/1421 over 51", j.Detected, j.Total, j.FlawTypes)
			}
		}},
		{"depth-sweep", func(t *testing.T) {
			d := ev.Depths // depths 1, 2, 3, 4, 6, 8
			if d[0].TP >= d[4].TP {
				t.Errorf("depth 1 finds %d true bugs, depth 6 %d: want fewer at depth 1", d[0].TP, d[4].TP)
			}
			for _, r := range d[2:] {
				if r.Reports != d[1].Reports || r.TP != d[1].TP || r.FP != d[1].FP {
					t.Errorf("depth %s: %d(%d/%d), depth 2: %d(%d/%d); want depths 2 to 8 equal", r.Name, r.Reports, r.TP, r.FP, d[1].Reports, d[1].TP, d[1].FP)
				}
			}
		}},
		{"ablations", func(t *testing.T) {
			linear, connectors, paths := ev.Ablations[0], ev.Ablations[1], ev.Ablations[2]
			if f, a := linear.Full, linear.Ablated; a.Reports != f.Reports || a.TP != f.TP || a.FP != f.FP ||
				linear.Notes["ablated_smt_queries"] <= linear.Notes["full_smt_queries"] {
				t.Errorf("linear-solver-off: %+v; want the same verdicts with more SMT queries", linear.Notes)
			}
			if connectors.Ablated.TP >= connectors.Full.TP {
				t.Errorf("connectors-off: %d true bugs, full %d; want fewer", connectors.Ablated.TP, connectors.Full.TP)
			}
			if f, a := paths.Full, paths.Ablated; a.FP <= f.FP || a.TP != f.TP {
				t.Errorf("path-sensitivity-off: %d TP / %d FP, full %d / %d; want more FP, the same TP", a.TP, a.FP, f.TP, f.FP)
			}
		}},
		{"render", func(t *testing.T) {
			for _, e := range experiments {
				if out := e.render(ev); strings.Count(out, "\n") < 5 {
					t.Errorf("%s renders as\n%s", e.name, out)
				}
			}
		}},
	} {
		t.Run(row.name, row.check)
	}
}

// TestRenderAblationsDeterministic renders the same rows twenty times: the
// notes of a row come out in one order.
func TestRenderAblationsDeterministic(t *testing.T) {
	run := &checkRun{Reports: 5, TP: 4, FP: 1}
	ev := &evaluation{Ablations: []*ablation{{Name: "linear-solver-off", Full: run, Ablated: run,
		Notes: map[string]int64{"ablated_smt_queries": 81, "ablated_smt_unsat": 76, "full_linear_filtered": 38, "full_smt_queries": 43}}}}
	want := renderAblations(ev)
	for i := 0; i < 20; i++ {
		if got := renderAblations(ev); got != want {
			t.Fatalf("render %d:\n%s\nfirst:\n%s", i, got, want)
		}
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if f := fitLinear(xs, []float64{3, 5, 7, 9, 11}); math.Abs(f.A-2) > 1e-9 || math.Abs(f.B-1) > 1e-9 || math.Abs(f.R2-1) > 1e-9 {
		t.Errorf("y = 2x + 1 fits as %+v", f)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	if f := fitLinear(xs, []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9}); f.R2 < 0.99 {
		t.Errorf("nearly linear data fits with R² %v", f.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if f := fitLinear([]float64{1}, []float64{2}); !math.IsNaN(f.R2) {
		t.Errorf("one point fits with R² %v, want NaN", f.R2)
	}
	if f := fitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); !math.IsNaN(f.R2) {
		t.Errorf("a vertical line fits with R² %v, want NaN", f.R2)
	}
}

func TestFitPower(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if k := exponent(xs, []float64{3, 12, 27, 48, 75}); math.Abs(k-2) > 1e-9 {
		t.Errorf("y = 3x² has exponent %v, want 2", k)
	}
}

// TestQuickFitExactIsPerfect fits exact lines of random slope and
// intercept: each fits with R² = 1, flat ones included.
func TestQuickFitExactIsPerfect(t *testing.T) {
	f := func(a, b int8) bool {
		xs := []float64{0, 1, 2, 3, 4}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = float64(a)*x + float64(b)
		}
		fit := fitLinear(xs, ys)
		if a == 0 {
			return fit.R2 == 1 && fit.A == 0
		}
		return math.Abs(fit.R2-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
