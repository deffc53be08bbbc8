package core_test

import (
	"runtime"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/workload"
)

// The allocation budget of the cold pipeline, per IR instruction of the
// subject below: build plus CheckAll at one worker. The numbers are the
// measured values plus 15% (see DESIGN.md, "Data layout", for how to
// re-measure them). They exist so that pointer-keyed maps and per-object
// allocation cannot creep back into the per-function layers unnoticed: at
// the commit before the dense tables the same run made 49.6 allocations and
// 3380 bytes per instruction.
const (
	budgetMallocsPerInstr = measuredMallocsPerInstr * 1.15
	budgetBytesPerInstr   = measuredBytesPerInstr * 1.15

	measuredMallocsPerInstr = 24.9
	measuredBytesPerInstr   = 2019.0
)

func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	gen := workload.Generate(
		workload.Subject{Name: "alloc-budget", Origin: "synthetic", PaperKLoC: 300, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := core.BuildFromSource(gen.Units, core.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := a.CheckAll(checkers.All(), detect.Options{Workers: 1})
	runtime.ReadMemStats(&after)

	instrs := float64(a.Sizes.Lines)
	if instrs < 10000 || len(res.Reports) == 0 {
		t.Fatalf("subject too small to measure: %d instructions, %d reports", a.Sizes.Lines, len(res.Reports))
	}
	mallocs := float64(after.Mallocs-before.Mallocs) / instrs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / instrs
	t.Logf("%d IR instructions: %.1f mallocs and %.0f bytes per instruction (budget %.1f / %.0f)",
		a.Sizes.Lines, mallocs, bytes, budgetMallocsPerInstr, budgetBytesPerInstr)
	if mallocs > budgetMallocsPerInstr {
		t.Errorf("%.1f mallocs per IR instruction, budget %.1f", mallocs, budgetMallocsPerInstr)
	}
	if bytes > budgetBytesPerInstr {
		t.Errorf("%.0f bytes allocated per IR instruction, budget %.0f", bytes, budgetBytesPerInstr)
	}
}
