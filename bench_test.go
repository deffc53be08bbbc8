// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Run them with:
//
//	go test -bench=. -benchmem                 # default small scale
//	go test -bench=Fig7 -benchtime=1x          # one full harness pass
//
// Each benchmark reports custom metrics next to the standard ns/op —
// reports, FP counts, graph sizes — so a bench run doubles as a compact
// experiment log. The authoritative experiment output comes from
// cmd/experiments (see EXPERIMENTS.md); these benchmarks exist so `go test
// -bench` exercises every experiment path and provides per-iteration
// timing.
package main

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/workload"
)

// benchScale keeps bench iterations affordable; cmd/experiments uses the
// full default scale.
const benchScale = 6

func subjectsUpTo(maxKLoC int) []workload.Subject {
	var out []workload.Subject
	for _, s := range workload.Subjects {
		if s.PaperKLoC <= maxKLoC {
			out = append(out, s)
		}
	}
	return out
}

// BenchmarkFig7SEGBuild measures Pinpoint's SEG construction on a mid-size
// subject (the per-subject series of Figure 7, Pinpoint side).
func BenchmarkFig7SEGBuild(b *testing.B) {
	s, _ := workload.SubjectByName("libicu")
	gen := workload.Generate(s, workload.GenOptions{Scale: benchScale})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.BuildFromSource(gen.Units, core.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(a.Sizes.SEGNodes), "segnodes")
	}
}

// BenchmarkFig7FSVFGBuild measures the layered baseline's construction on
// the same subject (Figure 7, SVF side).
func BenchmarkFig7FSVFGBuild(b *testing.B) {
	run := func(b *testing.B, name string) {
		s, _ := workload.SubjectByName(name)
		cfg := bench.Config{Scale: benchScale}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := bench.RunSubject(s, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(r.SVFEdges), "fsvfgedges")
			if r.SVFTimedOut {
				b.ReportMetric(1, "timeout")
			}
		}
	}
	b.Run("libicu", func(b *testing.B) { run(b, "libicu") })
}

// BenchmarkFig8Memory measures build memory (Figure 8) via the harness.
func BenchmarkFig8Memory(b *testing.B) {
	s, _ := workload.SubjectByName("transmission")
	cfg := bench.Config{Scale: benchScale}
	for i := 0; i < b.N; i++ {
		r, err := bench.RunSubject(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.MB(r.SEGMem.AllocBytes), "seg-MB")
		b.ReportMetric(bench.MB(r.SVFBuildMem.AllocBytes), "fsvfg-MB")
	}
}

// BenchmarkFig9CheckerMemory measures end-to-end checker memory (Figure 9).
func BenchmarkFig9CheckerMemory(b *testing.B) {
	s, _ := workload.SubjectByName("shadowsocks")
	cfg := bench.Config{Scale: benchScale}
	for i := 0; i < b.N; i++ {
		r, err := bench.RunSubject(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.MB(r.SEGMem.AllocBytes+r.CheckMem.AllocBytes), "pinpoint-MB")
	}
}

// BenchmarkFig10Scalability runs the size sweep and reports the linear-fit
// R² (Figure 10).
func BenchmarkFig10Scalability(b *testing.B) {
	cfg := bench.Config{Scale: benchScale, Subjects: subjectsUpTo(967)}
	for i := 0; i < b.N; i++ {
		runs, err := bench.RunAllSubjects(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var xs, ts []float64
		for _, r := range runs {
			xs = append(xs, float64(r.Lines))
			ts = append(ts, (r.SEGTime + r.CheckTime).Seconds())
		}
		fit := bench.FitLinear(xs, ts)
		b.ReportMetric(fit.R2, "r2")
	}
}

// BenchmarkTable1UAF runs the Table 1 comparison on the subjects up to
// mid-size and reports totals.
func BenchmarkTable1UAF(b *testing.B) {
	cfg := bench.Config{Scale: benchScale, Subjects: subjectsUpTo(100)}
	for i := 0; i < b.N; i++ {
		runs, err := bench.RunAllSubjects(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, fp, svf := 0, 0, 0
		for _, r := range runs {
			rep += r.Reports
			fp += r.FP
			svf += r.SVFReports
		}
		b.ReportMetric(float64(rep), "reports")
		b.ReportMetric(float64(fp), "fp")
		b.ReportMetric(float64(svf), "svf-reports")
	}
}

// BenchmarkTable2Taint runs the taint checkers on mysql (Table 2).
func BenchmarkTable2Taint(b *testing.B) {
	cfg := bench.Config{Scale: benchScale}
	for i := 0; i < b.N; i++ {
		taint, err := bench.RunTaint(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range taint {
			b.ReportMetric(float64(tr.Reports), tr.Checker+"-reports")
		}
	}
}

// BenchmarkTable3Baselines runs the Infer-like and CSA-like baselines
// (Table 3).
func BenchmarkTable3Baselines(b *testing.B) {
	cfg := bench.Config{Scale: benchScale}
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunUnitConfinedBaselines(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fp := 0
		for _, r := range rows {
			fp += r.FP
		}
		b.ReportMetric(float64(fp), "fp")
	}
}

// BenchmarkJulietRecall runs the 1421-case recall suite (§5.1.2).
func BenchmarkJulietRecall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunJuliet()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Detected), "detected")
		b.ReportMetric(float64(r.Total), "cases")
	}
}

// BenchmarkAblationLinearSolver isolates §3.1.1's linear-time filter.
func BenchmarkAblationLinearSolver(b *testing.B) {
	s, _ := workload.SubjectByName("mysql")
	gen := workload.Generate(s, workload.GenOptions{Scale: benchScale})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := core.BuildFromSource(gen.Units, core.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(a.PTAStats.LinearUnsat), "pruned")
		}
	})
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := core.BuildFromSource(gen.Units, core.BuildOptions{
				PTA: pta1(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(a.PTAStats.GuardsKept), "kept")
		}
	})
}

// BenchmarkAblationConnectors isolates §3.1.2's connector model.
func BenchmarkAblationConnectors(b *testing.B) {
	s, _ := workload.SubjectByName("mysql")
	gen := workload.Generate(s, workload.GenOptions{Scale: benchScale})
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := core.BuildFromSource(gen.Units, core.BuildOptions{DisableConnectors: mode.disable})
				if err != nil {
					b.Fatal(err)
				}
				reports, _ := a.Check(checkers.UseAfterFree(), detect.Options{})
				b.ReportMetric(float64(len(reports)), "reports")
			}
		})
	}
}

// BenchmarkAblationPathSensitivity isolates the SMT stage. Each iteration
// checks a fresh build, made outside the timer: on one Analysis every
// iteration after the first would replay the first one's search.
func BenchmarkAblationPathSensitivity(b *testing.B) {
	s, _ := workload.SubjectByName("mysql")
	gen := workload.Generate(s, workload.GenOptions{Scale: benchScale})
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, err := core.BuildFromSource(gen.Units, core.BuildOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				reports, _ := a.Check(checkers.UseAfterFree(), detect.Options{DisablePathSensitivity: mode.disable})
				b.ReportMetric(float64(len(reports)), "reports")
			}
		})
	}
}

// BenchmarkSMTSolver measures the solver core on the kind of mixed
// boolean/arithmetic queries path conditions produce.
func BenchmarkSMTSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSMTWorkload(b)
	}
}

// BenchmarkDepthSweep exercises the calling-context depth knob (the paper
// fixes it at six nested levels).
func BenchmarkDepthSweep(b *testing.B) {
	cfg := bench.Config{Scale: benchScale}
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunDepthSweep(cfg, []int{1, 3, 6})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[len(rows)-1].TP), "tp-at-depth6")
	}
}
