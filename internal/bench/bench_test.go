package bench

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	f := FitLinear(xs, ys)
	if math.Abs(f.A-2) > 1e-9 || math.Abs(f.B-1) > 1e-9 {
		t.Fatalf("fit = %v", f)
	}
	if math.Abs(f.R2-1) > 1e-9 {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
	if f.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFitLinearNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9}
	f := FitLinear(xs, ys)
	if f.R2 < 0.99 {
		t.Fatalf("R2 = %v on nearly-linear data", f.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if f := FitLinear([]float64{1}, []float64{2}); !math.IsNaN(f.R2) {
		t.Fatal("single point should be NaN")
	}
	if f := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); !math.IsNaN(f.R2) {
		t.Fatal("vertical line should be NaN")
	}
}

func TestFitPower(t *testing.T) {
	// y = 3 * x^2
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	c, k, r2 := FitPower(xs, ys)
	if math.Abs(k-2) > 1e-6 || math.Abs(c-3) > 1e-6 || r2 < 0.999 {
		t.Fatalf("power fit c=%v k=%v r2=%v", c, k, r2)
	}
}

// Property: R² of an exact linear relation is 1 regardless of slope.
func TestQuickFitExactIsPerfect(t *testing.T) {
	f := func(a, b int8) bool {
		slope := float64(a)
		icept := float64(b)
		xs := []float64{0, 1, 2, 3, 4}
		ys := make([]float64, len(xs))
		varied := false
		for i, x := range xs {
			ys[i] = slope*x + icept
			if i > 0 && ys[i] != ys[0] {
				varied = true
			}
		}
		fit := FitLinear(xs, ys)
		if !varied {
			// Flat data: ssTot = 0 -> R2 defined as 1 here.
			return fit.R2 == 1
		}
		return math.Abs(fit.R2-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureMem(t *testing.T) {
	res, mu, dur := MeasureMem(func() any {
		buf := make([]byte, 1<<20)
		return buf
	})
	if res == nil || dur < 0 {
		t.Fatal("bad result")
	}
	if mu.AllocBytes < 1<<20 {
		t.Fatalf("alloc = %d, want >= 1MiB", mu.AllocBytes)
	}
	if MB(1<<20) != 1.0 {
		t.Fatal("MB conversion wrong")
	}
}

func TestRunSubjectSmall(t *testing.T) {
	s, _ := workload.SubjectByName("gzip")
	run, err := RunSubject(s, Config{Scale: 6})
	if err != nil {
		t.Fatal(err)
	}
	if run.Lines == 0 || run.SEGNodes == 0 {
		t.Fatal("empty run")
	}
	if run.Reports != 0 {
		t.Fatalf("gzip should be clean, got %d reports", run.Reports)
	}
	if run.SVFReports == 0 && !run.SVFTimedOut {
		t.Fatal("baseline silent on gzip")
	}
}

func TestRunSubjectWithBugs(t *testing.T) {
	s, _ := workload.SubjectByName("shadowsocks")
	run, err := RunSubject(s, Config{Scale: 6})
	if err != nil {
		t.Fatal(err)
	}
	if run.TP != s.TrueBugs {
		t.Fatalf("TP = %d, want %d", run.TP, s.TrueBugs)
	}
	if run.Unexpected != 0 {
		t.Fatalf("unexpected reports: %d", run.Unexpected)
	}
}

func TestRenderersSmoke(t *testing.T) {
	s1, _ := workload.SubjectByName("gzip")
	s2, _ := workload.SubjectByName("webassembly")
	cfg := Config{Scale: 6, Subjects: []workload.Subject{s1, s2}}
	runs, err := RunAllSubjects(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"fig7":   RenderFigure7(runs),
		"fig8":   RenderFigure8(runs),
		"fig9":   RenderFigure9(runs),
		"fig10":  RenderFigure10(runs),
		"table1": RenderTable1(runs),
	} {
		if !strings.Contains(out, "gzip") && name != "fig10" {
			t.Errorf("%s output missing subject:\n%s", name, out)
		}
		if out == "" {
			t.Errorf("%s empty", name)
		}
	}
}

func TestTaintHarness(t *testing.T) {
	taint, err := RunTaint(Config{Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(taint) != 2 {
		t.Fatalf("taint rows = %d", len(taint))
	}
	for _, tr := range taint {
		if tr.Reports == 0 {
			t.Errorf("%s: no reports", tr.Checker)
		}
		if tr.FP == 0 {
			t.Errorf("%s: opaque flows not reported", tr.Checker)
		}
	}
	out := RenderTable2(taint)
	if !strings.Contains(out, "path-traversal") {
		t.Error("table 2 render broken")
	}
}

func TestBaselineHarnessRow(t *testing.T) {
	// Restrict to one subject via a focused config: reuse the public
	// API (it iterates all OSS subjects), so just verify shape on the
	// smallest scale.
	rows, err := RunUnitConfinedBaselines(Config{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 36 { // 18 subjects x 2 tools
		t.Fatalf("rows = %d, want 36", len(rows))
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "Infer") || !strings.Contains(out, "CSA") {
		t.Error("table 3 render broken")
	}
}

func TestDepthSweep(t *testing.T) {
	rows, err := RunDepthSweep(Config{Scale: 4}, []int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Depth 6 finds at least as many true bugs as depth 1.
	if rows[1].TP < rows[0].TP {
		t.Fatalf("deeper budget lost bugs: %+v", rows)
	}
	// mysql's bugs include inter-procedural chains: depth 1 must miss
	// some.
	if rows[0].TP >= rows[1].TP && rows[0].TP == 4 {
		t.Fatalf("depth 1 should not reach full recall: %+v", rows)
	}
	if RenderDepthSweep(rows) == "" {
		t.Fatal("empty render")
	}
}

// TestBaselineBudgetBoundary justifies defaultSVFPTAWork and defaultSVFEdges:
// at the default scale they put the layered baseline's timeout between the
// two subjects on either side of the paper's ">135 KLoC times out" line, so
// it finishes on gcc (135 paper-KLoC) and gives up on git (185).
func TestBaselineBudgetBoundary(t *testing.T) {
	for _, c := range []struct {
		subject  string
		timedOut bool
	}{{"gcc", false}, {"git", true}} {
		s, _ := workload.SubjectByName(c.subject)
		run, err := RunSubject(s, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if run.SVFTimedOut != c.timedOut {
			t.Errorf("%s (%d paper-KLoC, %d FSVFG edges): baseline timed out = %v, want %v",
				c.subject, s.PaperKLoC, run.SVFEdges, run.SVFTimedOut, c.timedOut)
		}
	}
}
