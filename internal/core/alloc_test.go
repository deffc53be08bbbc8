package core_test

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/checkers"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/seg"
	"repro/internal/workload"
)

// The allocation budget of the cold pipeline, per IR instruction of the
// subject below: build plus CheckAll at one worker. The numbers are the
// measured values plus 15% (see DESIGN.md, "Data layout", for how to
// re-measure them). They exist so that pointer-keyed maps and per-object
// allocation cannot creep back into the per-function layers unnoticed: at
// the commit before the dense tables the same run made 49.6 allocations and
// 3380 bytes per instruction, at the one before the records were compacted
// 24.6 and 1917.
const (
	budgetMallocsPerInstr = measuredMallocsPerInstr * 1.15
	budgetBytesPerInstr   = measuredBytesPerInstr * 1.15

	measuredMallocsPerInstr = 22.4
	measuredBytesPerInstr   = 1524.0
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

// The budget of the program at rest, per IR instruction of the same subject:
// what the heap holds after BuildFromSource and a settled collection, beyond
// what it held before. This is the number peak RSS follows (the collector's
// goal is twice the live heap), and it is a constant of the record layouts,
// not of the input: see DESIGN.md, "Data layout", Records. Measured values
// plus 5%; the run is deterministic at one worker. At the commit before the
// records were compacted the same build left 817 bytes in 6.9 objects per
// instruction.
const (
	budgetResidentBytesPerInstr   = measuredResidentBytesPerInstr * 1.05
	budgetResidentObjectsPerInstr = measuredResidentObjectsPerInstr * 1.05

	measuredResidentBytesPerInstr   = 492.0
	measuredResidentObjectsPerInstr = 4.19
)

func TestResidentBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	gen := workload.Generate(
		workload.Subject{Name: "alloc-budget", Origin: "synthetic", PaperKLoC: 300, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := core.BuildFromSource(gen.Units, core.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	instrs := float64(a.Sizes.Lines)
	if instrs < 10000 {
		t.Fatalf("subject too small to measure: %d instructions", a.Sizes.Lines)
	}
	bytes := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / instrs
	objects := (float64(after.HeapObjects) - float64(before.HeapObjects)) / instrs
	t.Logf("%d IR instructions: %.0f bytes and %.2f objects resident per instruction (budget %.0f / %.2f)",
		a.Sizes.Lines, bytes, objects, budgetResidentBytesPerInstr, budgetResidentObjectsPerInstr)
	if bytes > budgetResidentBytesPerInstr {
		t.Errorf("%.0f bytes resident per IR instruction, budget %.0f", bytes, budgetResidentBytesPerInstr)
	}
	if objects > budgetResidentObjectsPerInstr {
		t.Errorf("%.2f objects resident per IR instruction, budget %.2f", objects, budgetResidentObjectsPerInstr)
	}
	runtime.KeepAlive(a)
}

// The sizes of the records a built program consists of, in bytes on a 64-bit
// platform. A program holds one ir.Instr and about one ir.Value per
// instruction, three seg.Nodes and two seg.Edges for every two, a block for
// every three; a field added to one of them is a deliberate act with a number
// attached, not a side effect.
func TestRecordSizes(t *testing.T) {
	for _, rec := range []struct {
		name      string
		size, max uintptr
	}{
		{"ir.Instr", unsafe.Sizeof(ir.Instr{}), 80},
		{"ir.Value", unsafe.Sizeof(ir.Value{}), 64},
		{"ir.Block", unsafe.Sizeof(ir.Block{}), 88},
		{"seg.Node", unsafe.Sizeof(seg.Node{}), 32},
		{"seg.Edge", unsafe.Sizeof(seg.Edge{}), 16},
		{"cond.Cond", unsafe.Sizeof(cond.Cond{}), 48},
	} {
		if rec.size > rec.max {
			t.Errorf("%s is %d bytes, at most %d", rec.name, rec.size, rec.max)
		}
	}
}

// The budget of a warm request: what Session.Update and the CheckAll after it
// allocate, and how many functions the Update looks at, when one function of
// the serve-edit workload's program (3,342 functions in 45 units) has been
// edited — the benchmark's driver edit, with every unit's source arriving as
// a fresh string, as a decoded request's do. Measured values plus 15%, as
// above. They exist so that per-request work proportional to the program
// cannot creep back in: at the commit before the tables were patched the
// same Update allocated 4.3 MiB in 19,006 objects and looked at all 3,342
// functions, and the CheckAll allocated 1.1 MiB.
const (
	budgetEditUpdateBytes   = measuredEditUpdateBytes * 1.15
	budgetEditUpdateMallocs = measuredEditUpdateMallocs * 1.15
	budgetEditCheckBytes    = measuredEditCheckBytes * 1.15

	measuredEditUpdateBytes   = 545 << 10
	measuredEditUpdateMallocs = 3280
	measuredEditCheckBytes    = 360 << 10
)

func TestUpdateEditBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	if testing.Short() {
		t.Skip("builds the 20k-line ladder")
	}
	units := ladder(600, 1)
	sess := core.NewSession(core.BuildOptions{Workers: 1})
	a, err := sess.Update(units)
	if err != nil {
		t.Fatal(err)
	}
	a.CheckAll(checkers.All(), detect.Options{Workers: 1})
	functions := a.Sizes.Functions

	const edits = 5
	var updBytes, updMallocs, chkBytes uint64
	for i := 0; i < edits; i++ {
		u := i % len(units)
		at := strings.LastIndex(units[u].Src, "\nvoid drive_")
		cut := at + 1 + strings.IndexByte(units[u].Src[at+1:], '\n') + 1
		units[u].Src = units[u].Src[:cut] + "\tseed = seed + 1;\n" + units[u].Src[cut:]
		request := make([]minic.NamedSource, len(units))
		for k, unit := range units {
			request[k] = minic.NamedSource{Name: unit.Name, Src: strings.Clone(unit.Src)}
		}

		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		a, err := sess.Update(request)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		res := a.CheckAll(checkers.All(), detect.Options{Workers: 1})
		runtime.ReadMemStats(&m2)
		updBytes += m1.TotalAlloc - m0.TotalAlloc
		updMallocs += m1.Mallocs - m0.Mallocs
		chkBytes += m2.TotalAlloc - m1.TotalAlloc

		if a.Artifacts.Invalidated != 1 || a.Artifacts.Misses != 0 {
			t.Fatalf("edit %d rebuilt %d+%d functions, want exactly 1", i, a.Artifacts.Invalidated, a.Artifacts.Misses)
		}
		if a.Artifacts.Visited*20 >= functions {
			t.Errorf("edit %d: the Update looked at %d of %d functions, want < 5%%", i, a.Artifacts.Visited, functions)
		}
		if res.TasksRun == 0 || res.TasksReplayed == 0 {
			t.Fatalf("edit %d: %d tasks ran, %d replayed", i, res.TasksRun, res.TasksReplayed)
		}
	}
	t.Logf("per edit: Update %d KiB in %d mallocs (budget %.0f KiB / %.0f), CheckAll %d KiB (budget %.0f KiB)",
		updBytes/edits>>10, updMallocs/edits, budgetEditUpdateBytes/1024, budgetEditUpdateMallocs, chkBytes/edits>>10, budgetEditCheckBytes/1024)
	if got := float64(updBytes) / edits; got > budgetEditUpdateBytes {
		t.Errorf("Update allocated %.0f KiB per edit, budget %.0f KiB", got/1024, budgetEditUpdateBytes/1024)
	}
	if got := float64(updMallocs) / edits; got > budgetEditUpdateMallocs {
		t.Errorf("Update made %.0f allocations per edit, budget %.0f", got, budgetEditUpdateMallocs)
	}
	if got := float64(chkBytes) / edits; got > budgetEditCheckBytes {
		t.Errorf("CheckAll allocated %.0f KiB per edit, budget %.0f KiB", got/1024, budgetEditCheckBytes/1024)
	}
}

// The budget of a warm restart: what the first Update of a fresh session
// allocates when the store holds every artifact of the 20k-line ladder
// program (3,342 functions). At the commit before artifacts were decoded
// straight into the analysis objects — when every one went through a mirror
// struct on its way in, and the store kept a second copy of each record it
// served — the same Update allocated 62.7 MiB in 762,850 objects; this one
// must stay at least 20 % of the bytes and 12 % of the objects below that,
// and within 15 % of its own measured values.
const (
	parentWarmLoadBytes   = 62.7 * (1 << 20)
	parentWarmLoadMallocs = 762850

	measuredWarmLoadBytes   = 36.3 * (1 << 20)
	measuredWarmLoadMallocs = 428900

	budgetWarmLoadBytes   = measuredWarmLoadBytes * 1.15
	budgetWarmLoadMallocs = measuredWarmLoadMallocs * 1.15
)

func TestWarmLoadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	if testing.Short() {
		t.Skip("builds the 20k-line ladder")
	}
	units := ladder(600, 1)
	dir := t.TempDir()
	st := openDisk(t, dir)
	if _, err := core.NewSession(core.BuildOptions{Workers: 1, Store: st}).Update(units); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openDisk(t, dir)
	defer st.Close()
	sess := core.NewSession(core.BuildOptions{Workers: 1, Store: st})
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	a, err := sess.Update(units)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Artifacts.StoreHits != a.Sizes.Functions || a.Artifacts.Misses != 0 {
		t.Fatalf("not a warm load: %+v of %d functions", a.Artifacts, a.Sizes.Functions)
	}
	bytes, mallocs := float64(m1.TotalAlloc-m0.TotalAlloc), float64(m1.Mallocs-m0.Mallocs)
	t.Logf("warm first Update of %d functions: %.1f MiB in %.0f mallocs (budget %.1f MiB / %.0f; parent %.1f MiB / %d)",
		a.Sizes.Functions, bytes/(1<<20), mallocs, budgetWarmLoadBytes/(1<<20), budgetWarmLoadMallocs, parentWarmLoadBytes/(1<<20), parentWarmLoadMallocs)
	if bytes > budgetWarmLoadBytes || bytes > 0.80*parentWarmLoadBytes {
		t.Errorf("warm Update allocated %.1f MiB: budget %.1f MiB, and at most 80%% of the parent's %.1f MiB", bytes/(1<<20), budgetWarmLoadBytes/(1<<20), parentWarmLoadBytes/(1<<20))
	}
	if mallocs > budgetWarmLoadMallocs || mallocs > 0.88*parentWarmLoadMallocs {
		t.Errorf("warm Update made %.0f allocations: budget %.0f, and at most 88%% of the parent's %d", mallocs, budgetWarmLoadMallocs, parentWarmLoadMallocs)
	}
}
