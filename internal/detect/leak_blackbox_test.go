package detect_test

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
)

func findLeaks(t *testing.T, src string) ([]detect.Report, detect.Stats) {
	t.Helper()
	return buildAnalysis(t, src).Check(checkers.MemoryLeak(), detect.Options{})
}

func TestLeakNeverFreed(t *testing.T) {
	reports, stats := findLeaks(t, `
void f() {
	int *p = malloc();
	*p = 1;
	int v = *p;
	keep(v);
}`)
	if len(reports) != 1 || reports[0].Kind != detect.LeakNeverFreed.String() {
		t.Fatalf("reports = %v", reports)
	}
	if stats.Sources != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if reports[0].String() == "" {
		t.Fatal("empty render")
	}
}

func TestLeakFreedIsClean(t *testing.T) {
	reports, _ := findLeaks(t, `
void f() {
	int *p = malloc();
	*p = 1;
	free(p);
}`)
	if len(reports) != 0 {
		t.Fatalf("spurious leak: %v", reports)
	}
}

func TestLeakConditionalFree(t *testing.T) {
	reports, _ := findLeaks(t, `
void f(bool c) {
	int *p = malloc();
	if (c) { free(p); }
}`)
	if len(reports) != 1 || reports[0].Kind != detect.LeakConditional.String() {
		t.Fatalf("reports = %v", reports)
	}
	if len(reports[0].Witness) == 0 {
		t.Fatal("no leak witness")
	}
}

func TestLeakBothBranchesFree(t *testing.T) {
	reports, _ := findLeaks(t, `
void f(bool c) {
	int *p = malloc();
	if (c) { free(p); } else { free(p); }
}`)
	if len(reports) != 0 {
		t.Fatalf("exhaustive frees still flagged: %v", reports)
	}
}

func TestLeakFreeViaCallee(t *testing.T) {
	reports, _ := findLeaks(t, `
void release(int *x) { free(x); }
void deep(int *y) { release(y); }
void f() {
	int *p = malloc();
	deep(p);
}`)
	if len(reports) != 0 {
		t.Fatalf("transitive free missed: %v", reports)
	}
}

func TestLeakEscapeByReturn(t *testing.T) {
	reports, stats := findLeaks(t, `
int *mk() {
	int *p = malloc();
	return p;
}`)
	if len(reports) != 0 {
		t.Fatalf("escaped alloc flagged: %v", reports)
	}
	if stats.Escaped != 1 {
		t.Fatalf("escape not recorded: %+v", stats)
	}
}

func TestLeakEscapeToExternal(t *testing.T) {
	reports, _ := findLeaks(t, `
void f() {
	int *p = malloc();
	register_buffer(p);
}`)
	if len(reports) != 0 {
		t.Fatalf("external ownership transfer flagged: %v", reports)
	}
}

func TestLeakEscapeToGlobalMemory(t *testing.T) {
	reports, _ := findLeaks(t, `
int *cache_g;
void f() {
	int *p = malloc();
	cache_g = p;
}`)
	if len(reports) != 0 {
		t.Fatalf("global-stored alloc flagged: %v", reports)
	}
}

func TestLeakLocalSlotStillTracked(t *testing.T) {
	// Stored into a local heap slot, loaded back, freed: clean.
	reports, _ := findLeaks(t, `
void f() {
	int **slot = malloc();
	int *p = malloc();
	*slot = p;
	int *q = *slot;
	free(q);
	free(slot);
}`)
	if len(reports) != 0 {
		t.Fatalf("slot-routed free missed: %v", reports)
	}
}

func TestLeakArithmeticConditions(t *testing.T) {
	// Freed only when x > 0 AND x < 0: never. The SMT layer sees the
	// free conditions are unsatisfiable, so the leak is unconditional in
	// effect and must be reported.
	reports, _ := findLeaks(t, `
void f(int x) {
	int *p = malloc();
	if (x > 0) {
		if (x < 0) { free(p); }
	}
}`)
	if len(reports) != 1 {
		t.Fatalf("vacuous free not seen through: %v", reports)
	}
}

// buildAnalysis is a shared helper for blackbox tests needing the Prog.
func buildAnalysis(t *testing.T, src string) *core.Analysis {
	t.Helper()
	a, err := core.BuildFromSource([]minic.NamedSource{{Name: "t.mc", Src: src}}, core.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return a
}
