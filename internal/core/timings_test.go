package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/obs"
)

// phaseOf names the counter "phase.<name>_ns" each Timings field is booked
// into.
var phaseOf = map[string]string{
	"Parse": "parse", "Plan": "plan", "Lower": "lower", "SSA": "ssa", "ModRef": "modref",
	"Transform": "transform", "PTA": "pta", "SEG": "seg", "Commit": "commit",
	"StoreLoad": "store.load", "StoreSave": "store.save",
}

// timingFields lists the Timings fields by name.
func timingFields(tm core.Timings) map[string]time.Duration {
	v := reflect.ValueOf(tm)
	out := make(map[string]time.Duration, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		out[v.Type().Field(i).Name] = v.Field(i).Interface().(time.Duration)
	}
	return out
}

func phaseCounters(rec *obs.Recorder) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range rec.Snapshot().Counters {
		if strings.HasPrefix(name, "phase.") {
			out[name] = v
		}
	}
	return out
}

// TestPhaseCountersEqualTimings holds the phase counters to the Timings
// partition: across one Update, every phase.<stage>_ns counter moves by
// exactly its Timings field and no other phase counter moves — on a cold
// build into an empty store, a warm restart over the populated one, an edit
// and an unchanged resubmit.
func TestPhaseCountersEqualTimings(t *testing.T) {
	units := ladder(60, 1)
	dir := t.TempDir()
	rec := obs.New()
	update := func(tag string, sess *core.Session, units []minic.NamedSource) {
		t.Helper()
		before := phaseCounters(rec)
		a, err := sess.Update(units)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		moved := phaseCounters(rec)
		for name := range moved {
			moved[name] -= before[name]
		}
		for field, d := range timingFields(a.Timings) {
			phase, ok := phaseOf[field]
			if !ok {
				t.Fatalf("Timings.%s books no phase counter", field)
			}
			name := "phase." + phase + "_ns"
			if moved[name] != int64(d) {
				t.Errorf("%s: %s moved %d, Timings.%s is %d", tag, name, moved[name], field, d)
			}
			delete(moved, name)
		}
		for name, d := range moved {
			if d != 0 {
				t.Errorf("%s: %s moved %d, which no Timings field books", tag, name, d)
			}
		}
	}

	st := openDisk(t, dir)
	update("cold", core.NewSession(core.BuildOptions{Workers: 2, Obs: rec, Store: st}), units)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openDisk(t, dir)
	defer st.Close()
	sess := core.NewSession(core.BuildOptions{Workers: 2, Obs: rec, Store: st})
	update("warm restart", sess, units)
	edited := slices.Clone(units)
	edited[1] = editUnit(t, edited[1])
	update("edit", sess, edited)
	update("resubmit", sess, edited)
}

// TestTimingsCoverUpdate holds the Timings partition to the wall clock a
// caller measures around Update: over one-function edits of the 20k-line
// ladder, each followed by a CheckAll, the fields (store I/O included) sum to
// at least 95 % of that wall in the median.
func TestTimingsCoverUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 20k-line ladder")
	}
	units := ladder(600, 1)
	sess := core.NewSession(core.BuildOptions{Workers: 2})
	cover := func(units []minic.NamedSource) float64 {
		t0 := time.Now()
		a, err := sess.Update(units)
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		a.CheckAll(checkers.All(), detect.Options{Workers: 2})
		var sum time.Duration
		for _, d := range timingFields(a.Timings) {
			sum += d
		}
		return float64(sum) / float64(wall)
	}
	t.Logf("cold build: the fields sum to %.3f of Update's wall", cover(units))
	var shares []float64
	for i := 0; i < 5; i++ {
		// A driver edit, as in TestUpdateEditBudget.
		u := i % len(units)
		at := strings.LastIndex(units[u].Src, "\nvoid drive_")
		cut := at + 1 + strings.IndexByte(units[u].Src[at+1:], '\n') + 1
		units[u].Src = units[u].Src[:cut] + "\tseed = seed + 1;\n" + units[u].Src[cut:]
		shares = append(shares, cover(units))
	}
	slices.Sort(shares)
	t.Logf("one-function edits: the fields sum to %.3f of Update's wall (sorted: %.3f)", shares[len(shares)/2], shares)
	if shares[len(shares)/2] < 0.95 {
		t.Errorf("the Timings fields cover %.3f of Update's wall in the median edit, want ≥ 0.95", shares[len(shares)/2])
	}
}

// TestNoLongFunctions keeps every function of the package short enough to
// read as one step: none has a body of more than 150 lines.
func TestNoLongFunctions(t *testing.T) {
	const maxLines = 150
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if n := fset.Position(fn.Body.Rbrace).Line - fset.Position(fn.Body.Lbrace).Line + 1; n > maxLines {
				t.Errorf("%s: %s has a body of %d lines, more than %d", fset.Position(fn.Pos()), fn.Name.Name, n, maxLines)
			}
		}
	}
}

// TestPTACountersCountWhatWasBuilt: an Update adds to the pta.* counters the
// counts of the functions it built — every function's on the first, the
// edited function's alone after a one-function edit, none on a resubmit —
// while Analysis.PTAStats stays the program's total.
func TestPTACountersCountWhatWasBuilt(t *testing.T) {
	units := ladder(120, 1)
	rec := obs.New()
	sess := core.NewSession(core.BuildOptions{Workers: 1, Obs: rec})
	counted := func() [2]int64 {
		return [2]int64{rec.Counter("pta.guards_kept").Value(), rec.Counter("pta.linear_queries").Value()}
	}
	a, err := sess.Update(units)
	if err != nil {
		t.Fatal(err)
	}
	if got := counted(); got != [2]int64{int64(a.PTAStats.GuardsKept), int64(a.PTAStats.LinearQueries)} {
		t.Fatalf("the first Update counted %v, want the program's %+v", got, a.PTAStats)
	}

	// The driver edit: a statement added to the unit's last driver function.
	src := units[0].Src
	at := strings.LastIndex(src, "\nvoid drive_")
	name := src[at+len("\nvoid ") : at+strings.IndexByte(src[at:], '(')]
	cut := at + 1 + strings.IndexByte(src[at+1:], '\n') + 1
	units[0].Src = src[:cut] + "\tseed = seed + 1;\n" + src[cut:]
	for _, resubmit := range []bool{false, true} {
		before := counted()
		a, err := sess.Update(units)
		if err != nil {
			t.Fatal(err)
		}
		var want [2]int64
		if !resubmit {
			if a.Artifacts.Invalidated+a.Artifacts.Misses != 1 {
				t.Fatalf("the edit rebuilt %+v, want %s alone", a.Artifacts, name)
			}
			own := sess.PTAStatsOf(name)
			want = [2]int64{int64(own.GuardsKept), int64(own.LinearQueries)}
			if own.GuardsKept == 0 || own.GuardsKept == a.PTAStats.GuardsKept {
				t.Fatalf("%s keeps %d guards of the program's %d: not a function to tell them apart by", name, own.GuardsKept, a.PTAStats.GuardsKept)
			}
		}
		if got := counted(); got[0]-before[0] != want[0] || got[1]-before[1] != want[1] {
			t.Errorf("resubmit=%v: pta.guards_kept and pta.linear_queries moved by %d and %d, want %v (the program's: %d and %d)",
				resubmit, got[0]-before[0], got[1]-before[1], want, a.PTAStats.GuardsKept, a.PTAStats.LinearQueries)
		}
	}
}
