package core_test

import (
	"math"
	"reflect"
	"regexp"
	"runtime"
	"slices"
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
// 24.6 and 1917, while a flow held a copy of every step of its path and the
// linear filter's sets were maps, 21.1 and 1380, while lowering made
// pre-SSA variables that a separate pass renamed, 19.4 and 1293, and while the
// gate pass computed the order and both dominator trees again, each tree by
// an iterative fixpoint, 15.3 and 1114. The SEG's copy of its function's body
// (see seg.Graph) raised the measurement to 14.7 and 1190, inside the budget;
// it was 14.4 and 1102 while the IR was pointer records that the SEG copied
// into its own tables, before the SEG adopted the tables lowering writes, and
// 11.9 and 1031 while syntax trees were allocated node by node (the arenas
// took 2.2 allocations and 110 bytes off) and lowering moved each function's
// values to their IDs in an array of their own (30 bytes), 9.4 and 893
// while the condition builders interned through maps, and 9.3 and 865 while
// lowering took a value ID for every variable and temporary and for every φ
// the frontier placement would make, read or not (holes in the records).
const (
	budgetMallocsPerInstr = measuredMallocsPerInstr * 1.15
	budgetBytesPerInstr   = measuredBytesPerInstr * 1.15

	measuredMallocsPerInstr = 9.1
	measuredBytesPerInstr   = 820.0
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

// The budget of the search itself, per expansion walked: use-after-free and
// double-free over the same subject, on a Program whose task lists an earlier
// call has extracted, under a call depth that call did not use — so every task
// runs, one local-flow walk per expansion, and what is allocated is the
// search's: frames, joined conditions, the per-task result and its replay
// record.
// Measured values plus 15%. When the path was cloned per flow and the
// two checkers walked every source separately, the same call made 26.0
// allocations and 2,105 bytes per expansion it walks now; while the search
// conjoined a flow's condition from its steps each time it took the flow,
// 5.8 and 493.
const (
	measuredSearchMallocsPerExpansion = 4.9
	measuredSearchBytesPerExpansion   = 451.0
)

func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	gen := workload.Generate(
		workload.Subject{Name: "alloc-budget", Origin: "synthetic", PaperKLoC: 300, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1})
	a, err := core.BuildFromSource(gen.Units, core.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	specs := func() []*checkers.Spec { return []*checkers.Spec{checkers.UseAfterFree(), checkers.DoubleFree()} }
	a.CheckAll(specs(), detect.Options{Workers: 1})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := a.CheckAll(specs(), detect.Options{Workers: 1, MaxCallDepth: 5})
	runtime.ReadMemStats(&after)
	if res.TasksReplayed != 0 || res.SummaryMisses != res.ExpansionsWalked || res.ExpansionsWalked < 1000 {
		t.Fatalf("not the search alone: %d tasks replayed, %d local-flow walks for %d expansions", res.TasksReplayed, res.SummaryMisses, res.ExpansionsWalked)
	}
	walked := float64(res.ExpansionsWalked)
	mallocs := float64(after.Mallocs-before.Mallocs) / walked
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / walked
	t.Logf("%d expansions: %.1f mallocs and %.0f bytes per expansion (budget %.1f / %.0f)",
		res.ExpansionsWalked, mallocs, bytes, measuredSearchMallocsPerExpansion*1.15, measuredSearchBytesPerExpansion*1.15)
	if mallocs > measuredSearchMallocsPerExpansion*1.15 {
		t.Errorf("%.1f mallocs per expansion, budget %.1f", mallocs, measuredSearchMallocsPerExpansion*1.15)
	}
	if bytes > measuredSearchBytesPerExpansion*1.15 {
		t.Errorf("%.0f bytes allocated per expansion, budget %.0f", bytes, measuredSearchBytesPerExpansion*1.15)
	}
}

// The budget of the program at rest, per IR instruction of the same subject:
// what the heap holds after BuildFromSource and a settled collection, beyond
// what it held before. This is the number peak RSS follows (the collector's
// goal is twice the live heap), and it is a constant of the record layouts,
// not of the input: see DESIGN.md, "Data layout", Records. Measured values
// plus 5%; the run is deterministic at one worker. At the commit before the
// records were compacted the same build left 817 bytes in 6.9 objects per
// instruction; while the SEG's records held pointers, the points-to tables
// were lists of lists and Mod/Ref summaries were maps, 492 in 4.19; while
// each block's control dependences were a list of their own, 438 in 3.76;
// while every function's IR, SSA info and points-to result stayed alive
// beside its SEG, 436 in 3.64. The object counts below were re-measured when
// the SEG adopted the tables lowering writes, which left 1.50, 1.74, 2.15 and
// 2.34 objects per instruction at 1.39, 1.59, 2.03 and 2.21; the byte counts,
// which its embedded body headers raised by up to 13 bytes per instruction,
// are the earlier measurement, within their budgets. While each graph's body
// kept its blocks and each list in a slice of its own, the condition builders
// interned through maps and the records kept append slack, the build left 248
// bytes in 1.39 objects per instruction. While lowering left a value record
// (and an entry of the graph's value-vertex index) for every variable,
// temporary and unread φ, each byte row below was 10 or 11 bytes higher: 186,
// 268, 215, 216 and 299.
const (
	budgetResidentBytesPerInstr   = measuredResidentBytesPerInstr * 1.05
	budgetResidentObjectsPerInstr = measuredResidentObjectsPerInstr * 1.05

	measuredResidentBytesPerInstr   = 175.0
	measuredResidentObjectsPerInstr = 1.16

	// The build's own heap when its wavefront starts, before it has built a
	// function: the units' facts, the plan and the one syntax tree it keeps.
	// While every unit's tree lived until its functions were lowered, the
	// same point held 164 bytes in 2.15 objects per instruction.
	budgetWavefrontBytesPerInstr   = measuredWavefrontBytesPerInstr * 1.05
	budgetWavefrontObjectsPerInstr = measuredWavefrontObjectsPerInstr * 1.05

	measuredWavefrontBytesPerInstr   = 55.0
	measuredWavefrontObjectsPerInstr = 0.146

	// The same for a core.NewSession kept after its first Update. While the
	// session held every unit's syntax tree it was 665 bytes in 6.74 objects,
	// before the records above lost their pointers 554 in 4.71, before
	// control dependences shared one array per function 502 in 4.28, while
	// the functions' bodies outlived their SEGs 497 in 3.92, and before the
	// cut of the fixed cost per function (the one-shot row above) 284 in
	// 1.59.
	budgetSessionBytesPerInstr   = measuredSessionBytesPerInstr * 1.05
	budgetSessionObjectsPerInstr = measuredSessionObjectsPerInstr * 1.05

	measuredSessionBytesPerInstr   = 204.0
	measuredSessionObjectsPerInstr = 1.37

	// The same for a session warm-restarted from a store: it holds what the
	// storeless session holds. Before the cut of the fixed cost per function
	// it was 266 bytes in 1.57 objects, under the session row's budget.
	budgetWarmBytesPerInstr   = measuredWarmBytesPerInstr * 1.05
	budgetWarmObjectsPerInstr = measuredWarmObjectsPerInstr * 1.05

	measuredWarmBytesPerInstr   = 205.0
	measuredWarmObjectsPerInstr = 1.42

	// The one-shot analysis and the warm-restarted session once more, each
	// after its first CheckAll of every checker: what detection keeps on top
	// — task lists and their recorded results, the last run, the may-free
	// relation and parameter facts, reverse indexes, linear solvers. While
	// detection memoized every local flow a search or a parameter scan
	// enumerated, the one-shot row was 407 bytes in 3.07 objects and the
	// warm-restart row 427 in 3.26; before the cut of the fixed cost per
	// function, 333 in 2.03 and 351 in 2.21.
	budgetCheckedBytesPerInstr   = measuredCheckedBytesPerInstr * 1.05
	budgetCheckedObjectsPerInstr = measuredCheckedObjectsPerInstr * 1.05

	measuredCheckedBytesPerInstr   = 258.0
	measuredCheckedObjectsPerInstr = 1.81

	budgetWarmCheckedBytesPerInstr   = measuredWarmCheckedBytesPerInstr * 1.05
	budgetWarmCheckedObjectsPerInstr = measuredWarmCheckedObjectsPerInstr * 1.05

	measuredWarmCheckedBytesPerInstr   = 289.0
	measuredWarmCheckedObjectsPerInstr = 2.07
)

func TestResidentBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	gen := workload.Generate(
		workload.Subject{Name: "alloc-budget", Origin: "synthetic", PaperKLoC: 300, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1})

	resident := func(build func() (keep any, instrs int)) (bytes, objects float64) { return residentHeap(t, build) }
	check := func(what string, bytes, objects, budgetBytes, budgetObjects float64) {
		t.Logf("%s: %.0f bytes and %.2f objects resident per instruction (budget %.0f / %.2f)", what, bytes, objects, budgetBytes, budgetObjects)
		if bytes > budgetBytes {
			t.Errorf("%s: %.0f bytes resident per IR instruction, budget %.0f", what, bytes, budgetBytes)
		}
		if objects > budgetObjects {
			t.Errorf("%s: %.2f objects resident per IR instruction, budget %.2f", what, objects, budgetObjects)
		}
	}

	bytes, objects := resident(func() (any, int) {
		a, err := core.BuildFromSource(gen.Units, core.BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return a, a.Sizes.Lines
	})
	check("the analysis of a one-shot build", bytes, objects, budgetResidentBytesPerInstr, budgetResidentObjectsPerInstr)

	// The same build's heap when its wavefront starts.
	var before, atWavefront runtime.MemStats
	core.BeforeStage(func(stage string) {
		if stage == "wavefront" {
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&atWavefront)
		}
	})
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := core.BuildFromSource(gen.Units, core.BuildOptions{Workers: 1})
	core.BeforeStage(nil)
	if err != nil {
		t.Fatal(err)
	}
	instrs := float64(a.Sizes.Lines)
	check("a one-shot build when its wavefront starts", (float64(atWavefront.HeapAlloc)-float64(before.HeapAlloc))/instrs,
		(float64(atWavefront.HeapObjects)-float64(before.HeapObjects))/instrs, budgetWavefrontBytesPerInstr, budgetWavefrontObjectsPerInstr)

	bytes, objects = resident(func() (any, int) {
		a, err := core.BuildFromSource(gen.Units, core.BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		a.CheckAll(checkers.All(), detect.Options{Workers: 1})
		return a, a.Sizes.Lines
	})
	check("the analysis of a one-shot build after its first CheckAll", bytes, objects, budgetCheckedBytesPerInstr, budgetCheckedObjectsPerInstr)

	// A session at rest: the analysis, the session's own tables and what it
	// knows of the units — their facts, not their syntax trees.
	var sess *core.Session
	bytes, objects = resident(func() (any, int) {
		sess = core.NewSession(core.BuildOptions{Workers: 1})
		a, err := sess.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		return sess, a.Sizes.Lines
	})
	check("a session at rest", bytes, objects, budgetSessionBytesPerInstr, budgetSessionObjectsPerInstr)

	// A session warm-restarted from a store, every artifact a hit, holds what
	// the storeless session holds: shells and SEGs, no bodies.
	dir := t.TempDir()
	st := openDisk(t, dir)
	if _, err := core.NewSession(core.BuildOptions{Workers: 1, Store: st}).Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	warmRestart := func(check bool) (any, int) {
		st := openDisk(t, dir)
		t.Cleanup(func() { st.Close() })
		warm := core.NewSession(core.BuildOptions{Workers: 1, Store: st})
		a, err := warm.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		if a.Artifacts.StoreHits != a.Sizes.Functions {
			t.Fatalf("not a warm restart: %+v of %d functions", a.Artifacts, a.Sizes.Functions)
		}
		if check {
			a.CheckAll(checkers.All(), detect.Options{Workers: 1})
		}
		return warm, a.Sizes.Lines
	}
	bytes, objects = resident(func() (any, int) { return warmRestart(false) })
	check("a session warm-restarted from a store", bytes, objects, budgetWarmBytesPerInstr, budgetWarmObjectsPerInstr)
	bytes, objects = resident(func() (any, int) { return warmRestart(true) })
	check("a session warm-restarted from a store after its first CheckAll", bytes, objects, budgetWarmCheckedBytesPerInstr, budgetWarmCheckedObjectsPerInstr)
	const minicPkg = "repro/internal/minic"
	if seen := reachableFrom(struct{ x []any }{[]any{map[string]*minic.FuncDecl{"f": {Body: &minic.BlockStmt{}}}}}, minicPkg); !slices.Equal(seen, []string{"*minic.BlockStmt", "*minic.FuncDecl"}) {
		t.Fatalf("the walk does not see what it is meant to find: %v", seen)
	}
	if held := reachableFrom(sess, minicPkg); len(held) > 0 {
		t.Errorf("a session at rest holds syntax trees: it reaches %v", held)
	}
	// Nor after an Update that parsed one unit and patched the tables.
	edited := slices.Clone(gen.Units)
	edited[0].Src += "\nvoid added_last() { }\n"
	if a, err := sess.Update(edited); err != nil || a.Artifacts.UnitsParsed != 1 || a.Artifacts.Misses != 1 {
		t.Fatalf("the edit was not a one-unit Update: %+v, %v", a.Artifacts, err)
	}
	if held := reachableFrom(sess, minicPkg); len(held) > 0 {
		t.Errorf("a session at rest after an edit holds syntax trees: it reaches %v", held)
	}
}

// residentHeap returns what build leaves on the heap, per IR instruction,
// while what it returns is alive.
func residentHeap(t *testing.T, build func() (keep any, instrs int)) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep, instrs := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if instrs < 10000 {
		t.Fatalf("subject too small to measure: %d instructions", instrs)
	}
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(instrs),
		(float64(after.HeapObjects) - float64(before.HeapObjects)) / float64(instrs)
}

// reachableFrom walks everything root reaches through pointers, interfaces,
// slices, arrays, maps and struct fields, exported or not, and lists the types
// declared in package pkg that it reaches by pointer or in an interface — the
// heap objects of that package, as opposed to its value types held inline.
func reachableFrom(root any, pkg string) []string {
	type slot struct {
		p unsafe.Pointer
		t reflect.Type
		n int // of a slice
	}
	seen := make(map[slot]bool)
	found := make(map[string]bool)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[slot{v.UnsafePointer(), v.Type(), 0}] {
				return
			}
			seen[slot{v.UnsafePointer(), v.Type(), 0}] = true
			if v.Type().Elem().PkgPath() == pkg {
				found[v.Type().String()] = true
			}
			walk(v.Elem())
		case reflect.Interface:
			if v.IsNil() {
				return
			}
			if e := v.Elem(); e.Type().PkgPath() == pkg || e.Kind() == reflect.Pointer && e.Type().Elem().PkgPath() == pkg {
				found[e.Type().String()] = true
			}
			walk(v.Elem())
		case reflect.Slice:
			if v.Len() == 0 || seen[slot{v.UnsafePointer(), v.Type(), v.Len()}] {
				return
			}
			seen[slot{v.UnsafePointer(), v.Type(), v.Len()}] = true
			fallthrough
		case reflect.Array:
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Array, reflect.Map, reflect.Struct:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			}
		case reflect.Map:
			if v.IsNil() || seen[slot{v.UnsafePointer(), v.Type(), 0}] {
				return
			}
			seen[slot{v.UnsafePointer(), v.Type(), 0}] = true
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(root))
	var out []string
	for name := range found {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// The sizes of the records a built program consists of, in bytes on a 64-bit
// platform. A program holds one ir.Instr and about one ir.Value per
// instruction from lowering on (the SEG adopts them), three seg.Nodes and two
// seg.Edges for every two, an ir.Block for every three while it is built; and
// one of each header per function, about one for every dozen instructions:
// seg.Graph (the adopted ir.Body inside it), cond.Builder and ir.Func. A
// field added to one of them is a deliberate act with a number attached, not
// a side effect. While the graph's body kept its blocks, its lists each in a
// slice of its own and the graph's offsets beside them, seg.Graph was 432
// bytes and ir.Body 312; while the builder kept its constants and three
// intern maps, cond.Builder was 208; while the unit index was a word of its
// own, ir.Func was 184.
func TestRecordSizes(t *testing.T) {
	for _, rec := range []struct {
		name      string
		size, max uintptr
	}{
		{"ir.Instr", unsafe.Sizeof(ir.Instr{}), 28},
		{"ir.Value", unsafe.Sizeof(ir.Value{}), 16},
		{"ir.Block", unsafe.Sizeof(ir.Block{}), 20},
		{"seg.Node", unsafe.Sizeof(seg.Node{}), 16},
		{"seg.Edge", unsafe.Sizeof(seg.Edge{}), 8},
		{"cond.Cond", unsafe.Sizeof(cond.Cond{}), 48},
		{"seg.Graph", unsafe.Sizeof(seg.Graph{}), 160},
		{"ir.Body", unsafe.Sizeof(ir.Body{}), 104},
		{"cond.Builder", unsafe.Sizeof(cond.Builder{}), 64},
		{"ir.Func", unsafe.Sizeof(ir.Func{}), 176},
	} {
		if rec.size > rec.max {
			t.Errorf("%s is %d bytes, at most %d", rec.name, rec.size, rec.max)
		}
	}
}

// The IR's instruction, value and block records, which lowering writes and
// the SEG adopts, the SEG's vertex and edge records and the entries of a
// condition builder's intern table hold IDs, never pointers, so the collector
// does not scan the arrays of them (a program holds about as many as it holds
// instructions); a field that brings a pointer back is a deliberate act, not
// a side effect.
func TestSEGRecordsArePointerFree(t *testing.T) {
	var pointerFree func(t reflect.Type) bool
	pointerFree = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Array:
			return pointerFree(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if !pointerFree(t.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan:
			return false
		}
		return true
	}
	for _, rec := range []reflect.Type{
		reflect.TypeOf(ir.Instr{}), reflect.TypeOf(ir.Value{}), reflect.TypeOf(ir.Block{}),
		reflect.TypeOf(seg.Node{}), reflect.TypeOf(seg.Edge{}),
	} {
		for i := 0; i < rec.NumField(); i++ {
			if f := rec.Field(i); !pointerFree(f.Type) {
				t.Errorf("%s.%s is a %s, which the collector scans", rec, f.Name, f.Type)
			}
		}
	}
	// The condition builder's intern table is an array of node IDs.
	if f, ok := reflect.TypeOf(cond.Builder{}).FieldByName("index"); !ok || f.Type.Kind() != reflect.Slice || !pointerFree(f.Type.Elem()) {
		t.Errorf("cond.Builder's intern table is not an array of pointer-free entries: %v", f.Type)
	}
}

// The budget of a warm request: what Session.Update and the CheckAll after it
// allocate, and how many functions the Update looks at, when one function of
// the serve-edit workload's program (3,342 functions in 45 units) has been
// edited, with every unit's source arriving as a fresh string, as a decoded
// request's do. Two edits: the benchmark's driver edit, which leaves every
// other function as it was and parses the edited unit alone; and one to a
// function called from another unit that changes its Mod/Ref summary and
// connector signature, so that its caller is lowered again — whose unit the
// session knows only by its facts, and whose declaration it parses for it.
// That second row is the price of not holding every unit's AST: one more
// parse of one function (while the caller's whole unit was parsed, 576 KiB in
// 4,734 objects). Measured values plus 15% — of the least of the row's five
// edits, on one P: the encoding buffers behind minic.HashFuncSum and
// seg.Build, and the arenas syntax trees are parsed into, are pooled per P
// and emptied by the collector, and the edit during which a collection empties
// them, or that runs on another P than the one that put them back, pays to
// make them anew. (The mean of the five at two Ps, which these budgets were
// once held to, failed the cross-unit row whenever that happened.) While every tree was
// allocated node by node, the driver edit measured 542 KiB in 2,807 objects;
// 535 and 3,269 while the session still held the trees. While the commit
// copied the program-level tables whole — the module's functions, the graphs
// and summaries by ID, detection's per-function caches, call-site lists and
// may-free vectors — and the build sized its bookkeeping by the program, the
// driver edit's Update allocated 413–451 KiB in 568–586 objects and the
// cross-unit one 315–365 KiB in 240–289 (means of five, three runs). They
// exist so that per-request work
// proportional to the program cannot creep back in: at the commit before the
// tables were patched the driver edit's Update allocated 4.3 MiB in 19,006
// objects and looked at all 3,342 functions, and the CheckAll allocated 1.1
// MiB. While every warm CheckAll held every task's recorded result against
// the program and merged every task's reports, its budgets were 360 KiB and
// 263 KiB (it measured 244 KiB on both rows). Patching the last run's merge
// then still spliced a copy of the whole task plan (168 and 170 KiB, 64 KiB
// of it the splice); now it copies the sorted report list alone, ≈ 86 of the
// driver edit's 103 KiB. While lowering took a value ID for every variable,
// temporary and unread φ, the Updates measured 115 KiB in 513 objects and 29
// KiB in 209.
const (
	measuredEditUpdateBytes   = 105 << 10
	measuredEditUpdateMallocs = 511
	measuredEditCheckBytes    = 103 << 10

	measuredCrossEditUpdateBytes   = 29 << 10
	measuredCrossEditUpdateMallocs = 207
	measuredCrossEditCheckBytes    = 104 << 10
)

func TestUpdateEditBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	if testing.Short() {
		t.Skip("builds the 20k-line ladder")
	}
	// One P: a pooled buffer put back on one P and asked for on another is
	// made anew, which a one-worker Update would otherwise pay whenever its
	// goroutine moves.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	units := ladder(600, 1)
	sess := core.NewSession(core.BuildOptions{Workers: 1})
	a, err := sess.Update(units)
	if err != nil {
		t.Fatal(err)
	}
	a.CheckAll(checkers.All(), detect.Options{Workers: 1})
	functions := a.Sizes.Functions

	// The cross-unit callee: one line in one unit, called from the unit before.
	xrel := regexp.MustCompile(`(?m)^void (xrel[0-9]+)\(int \*x\) \{ (\*x = 0; )?free\(x\); \}$`)
	xunit := slices.IndexFunc(units, func(u minic.NamedSource) bool { return xrel.MatchString(u.Src) })
	if xunit < 1 {
		t.Fatal("the ladder program has no cross-unit release helper")
	}

	const edits = 5
	for _, row := range []struct {
		name                      string
		edit                      func(i int)
		parsed, reparsed, rebuilt int
		bytes, mallocs, chkBytes  float64
	}{
		{"driver edit", func(i int) { driverEdit(units, i) }, 1, 0, 1, measuredEditUpdateBytes, measuredEditUpdateMallocs, measuredEditCheckBytes},
		{"cross-unit summary edit", func(i int) {
			with := []string{"*x = 0; ", ""}[i%2]
			units[xunit].Src = xrel.ReplaceAllString(units[xunit].Src, "void $1(int *x) { "+with+"free(x); }")
		}, 1, 1, 2, measuredCrossEditUpdateBytes, measuredCrossEditUpdateMallocs, measuredCrossEditCheckBytes},
	} {
		// The least over the row's edits: a collection that empties the
		// pools during one measured Update adds what refilling them costs to
		// that edit alone.
		updBytes, updMallocs, chkBytes := uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64)
		for i := 0; i < edits; i++ {
			row.edit(i)
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
			updBytes = min(updBytes, m1.TotalAlloc-m0.TotalAlloc)
			updMallocs = min(updMallocs, m1.Mallocs-m0.Mallocs)
			chkBytes = min(chkBytes, m2.TotalAlloc-m1.TotalAlloc)

			if st := a.Artifacts; st.Invalidated != row.rebuilt || st.Misses != 0 || st.UnitsParsed != row.parsed || st.FuncsParsed != row.reparsed {
				t.Fatalf("%s %d rebuilt %d+%d functions, parsed %d units and %d functions, want exactly %d, %d and %d", row.name, i,
					st.Invalidated, st.Misses, st.UnitsParsed, st.FuncsParsed, row.rebuilt, row.parsed, row.reparsed)
			}
			if a.Artifacts.Visited*20 >= functions {
				t.Errorf("%s %d: the Update looked at %d of %d functions, want < 5%%", row.name, i, a.Artifacts.Visited, functions)
			}
			if res.TasksRun == 0 || res.TasksReplayed == 0 {
				t.Fatalf("%s %d: %d tasks ran, %d replayed", row.name, i, res.TasksRun, res.TasksReplayed)
			}
		}
		t.Logf("per %s: Update %d KiB in %d mallocs (budget %.0f KiB / %.0f), CheckAll %d KiB (budget %.0f KiB)", row.name,
			updBytes>>10, updMallocs, row.bytes*1.15/1024, row.mallocs*1.15, chkBytes>>10, row.chkBytes*1.15/1024)
		if got := float64(updBytes); got > row.bytes*1.15 {
			t.Errorf("%s: Update allocated %.0f KiB per edit, budget %.0f KiB", row.name, got/1024, row.bytes*1.15/1024)
		}
		if got := float64(updMallocs); got > row.mallocs*1.15 {
			t.Errorf("%s: Update made %.0f allocations per edit, budget %.0f", row.name, got, row.mallocs*1.15)
		}
		if got := float64(chkBytes); got > row.chkBytes*1.15 {
			t.Errorf("%s: CheckAll allocated %.0f KiB per edit, budget %.0f KiB", row.name, got/1024, row.chkBytes*1.15/1024)
		}
	}

	// The resubmit row: an identical request's CheckAll finds nothing to run
	// and nothing to check, so nothing it allocates may grow with the program:
	// on this 20k-line ladder at most resubmitGrowth times what it allocates on
	// the 4k-line one. (While it held every task against the program and
	// merged them all, it allocated 164.8 KiB against 50.1 KiB; later 11.4
	// KiB on both, and now 5.1 KiB.)
	small := core.NewSession(core.BuildOptions{Workers: 1})
	smallUnits := ladder(120, 1)
	if a, err := small.Update(smallUnits); err != nil {
		t.Fatal(err)
	} else {
		a.CheckAll(checkers.All(), detect.Options{Workers: 1})
	}
	resubmit := func(sess *core.Session, units []minic.NamedSource) float64 {
		least := uint64(math.MaxUint64) // as above: the least of the five
		for i := 0; i < edits; i++ {
			request := make([]minic.NamedSource, len(units))
			for k, unit := range units {
				request[k] = minic.NamedSource{Name: unit.Name, Src: strings.Clone(unit.Src)}
			}
			a, err := sess.Update(request)
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res := a.CheckAll(checkers.All(), detect.Options{Workers: 1})
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
			if res.TasksRun != 0 {
				t.Fatalf("resubmit %d ran %d tasks", i, res.TasksRun)
			}
		}
		return float64(least)
	}
	r4k, r20k := resubmit(small, smallUnits), resubmit(sess, units)
	t.Logf("per resubmit: CheckAll %.1f KiB on the 4k-line ladder, %.1f KiB on the 20k-line one (budget %.1f KiB)", r4k/1024, r20k/1024, r4k*resubmitGrowth/1024)
	if r20k > r4k*resubmitGrowth {
		t.Errorf("resubmit: CheckAll allocated %.1f KiB on the 20k-line ladder, budget %.1f KiB (%.1f× the 4k-line ladder's %.1f KiB)", r20k/1024, r4k*resubmitGrowth/1024, resubmitGrowth, r4k/1024)
	}
}

const resubmitGrowth = 1.2

// driverEdit is the serve-edit workload's edit: one more statement at the top
// of the driver of unit i (modulo the units).
func driverEdit(units []minic.NamedSource, i int) {
	u := i % len(units)
	at := strings.LastIndex(units[u].Src, "\nvoid drive_")
	cut := at + 1 + strings.IndexByte(units[u].Src[at+1:], '\n') + 1
	units[u].Src = units[u].Src[:cut] + "\tseed = seed + 1;\n" + units[u].Src[cut:]
}

// The commit of a driver edit may allocate no more on the 68k-line ladder
// (11,026 functions) than commitGrowth times what it allocates on the 20k-line
// one (3,299): what it copies of the program-level tables is the chunks the
// edit writes and a pointer per chunk of each table it writes, not the
// tables. (While it copied every table whole — the module's functions, the
// graphs, the summaries and detection's per-function caches, call-site lists
// and may-free vectors — it allocated 281 KiB against 902 KiB, and 1,775 KiB
// on the 136k-line ladder, at two workers on the benchmark's seed; here it
// reads 18.9 KiB against 22.8 KiB.)
const commitGrowth = 1.25

func TestCommitGrowthBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	if testing.Short() {
		t.Skip("builds the 20k- and 68k-line ladders")
	}
	var m0 runtime.MemStats
	core.BeforeStage(func(stage string) {
		if stage == "commit" { // the last stage of a session without a store
			runtime.ReadMemStats(&m0)
		}
	})
	defer core.BeforeStage(nil)
	commit := func(kloc int) float64 {
		units := ladder(kloc, 1)
		sess := core.NewSession(core.BuildOptions{Workers: 1})
		a, err := sess.Update(units)
		if err != nil {
			t.Fatal(err)
		}
		// As a server does: every Update checked, so the detection caches
		// the commit carries over exist and hold no backlog of edits.
		a.CheckAll(checkers.All(), detect.Options{Workers: 1})
		least := uint64(math.MaxUint64)
		for i := 0; i < 8; i++ {
			driverEdit(units, i)
			a, err := sess.Update(slices.Clone(units))
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if a.Artifacts.Invalidated != 1 || a.Artifacts.Visited*20 >= a.Sizes.Functions {
				t.Fatalf("ladder %d, edit %d: rebuilt %d functions and looked at %d of %d, want 1 and < 5%%", kloc, i,
					a.Artifacts.Invalidated, a.Artifacts.Visited, a.Sizes.Functions)
			}
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
			a.CheckAll(checkers.All(), detect.Options{Workers: 1})
		}
		return float64(least)
	}
	r20k, r68k := commit(600), commit(2000)
	t.Logf("per driver edit: commit %.1f KiB on the 20k-line ladder, %.1f KiB on the 68k-line one (budget %.1f KiB)", r20k/1024, r68k/1024, r20k*commitGrowth/1024)
	if r68k > r20k*commitGrowth {
		t.Errorf("commit allocated %.1f KiB on the 68k-line ladder, budget %.1f KiB (%.2f× the 20k-line ladder's %.1f KiB)", r68k/1024, r20k*commitGrowth/1024, commitGrowth, r20k/1024)
	}
}

// The budget of a warm restart: what the first Update of a fresh session
// allocates when the store holds every artifact of the 20k-line ladder
// program (3,342 functions). At the commit before artifacts were decoded
// straight into the analysis objects — when every one went through a mirror
// struct on its way in, and the store kept a second copy of each record it
// served — the same Update allocated 62.7 MiB in 762,850 objects; this one
// must stay at least 20 % of the bytes and 12 % of the objects below that,
// and within 15 % of its own measured values. (While the warm path still
// parsed every unit to learn what the artifacts already said, it allocated
// 36.3 MiB in 428,900 objects; the difference was the AST. While the store
// also wrote and read every function's IR, SSA info and points-to result, it
// allocated 32.2 MiB in 337,200 objects, and while decoded condition
// builders interned through maps, 17.0 MiB in 115,600, and while bodies
// held a value record for every variable, temporary and unread φ, 15.2 MiB.)
// It must also parse nothing.
const (
	parentWarmLoadBytes   = 62.7 * (1 << 20)
	parentWarmLoadMallocs = 762850

	measuredWarmLoadBytes   = 14.6 * (1 << 20)
	measuredWarmLoadMallocs = 107400

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
	if a.Artifacts.StoreHits != a.Sizes.Functions || a.Artifacts.Misses != 0 || a.Artifacts.UnitsParsed != 0 || a.Artifacts.UnitsLoaded != len(units) {
		t.Fatalf("not a warm load: %+v of %d functions in %d units", a.Artifacts, a.Sizes.Functions, len(units))
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
