package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/workload"
)

// The test binary doubles as the juliet-cold child, as the real binary
// does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-juliet-child" {
		os.Exit(julietChildMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "-cal-child" {
		os.Exit(calChildMain())
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{220, 95, true},  // rank 209: 11 beyond
		{200, 95, true},  // rank 190: exactly 10 beyond
		{199, 90, true},  // p95 would leave 9
		{75, 85, true},   // rank 64: 11 beyond
		{1000, 99, true}, // p99.9 would leave 1
		{40, 75, true},   // rank 30: 10 beyond
		{39, 0, false},   // p75 would leave 9
		{11, 0, false},
	} {
		p, ok := highestPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	if got := percentile(seq(220), 95); got != 209 {
		t.Errorf("p95 of 1..220 = %v, want the 209th value", got)
	}
	if got := percentile(seq(5), 75); got != 4 {
		t.Errorf("p75 of 1..5 = %v, want 4", got)
	}
	if got := median(seq(6)); got != 3.5 {
		t.Errorf("median of 1..6 = %v", got)
	}
}

// Quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the spread of ten runs is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(5), 1.5, 4.5},
		{seq(4), 1.25, 3.75},
		{seq(2), 0.75, 2.25}, // extrapolates below and above, as Python does
		{[]float64{2.7, 2.29, 2.4, 2.5, 2.6, 2.45, 2.35, 2.9, 2.41, 2.44}, 2.3875, 2.625},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestLogLogSlope(t *testing.T) {
	x := []float64{20398, 67954, 135909}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3e-5 * math.Pow(x[i], 1.2)
	}
	if got := logLogSlope(x, y); !near(got, 1.2) {
		t.Errorf("slope = %v, want 1.2", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: "a", StartNs: 10, EndNs: 40},  // nested
		{ID: 3, Parent: 1, Op: "b", StartNs: 30, EndNs: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Op: "c", StartNs: 90, EndNs: 120}, // sticks out by 20
		{ID: 5, Parent: 2, Op: "d", StartNs: 15, EndNs: 25},  // grandchild: a's business only
	}
	self := selfTimes(spans)
	// root: 100 − |[10,60] ∪ [90,100]| = 100 − 60 = 40.
	for id, want := range map[int]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if by := selfByOp(spans); !near(by["root"], 40e-9) {
		t.Errorf("selfByOp root = %v", by["root"])
	}
	var tr *tracer
	tr.end(tr.begin(0, "x", "")) // a nil tracer records nothing and does not panic
	if tr.busy("x") != 0 {
		t.Error("nil tracer reports busy time")
	}
}

// The serve-edit mutator must dirty exactly one function per edit, also
// after it has wrapped around to a unit it already edited.
func TestEditDirtiesOneFunction(t *testing.T) {
	g := genLadder(r2k, 7)
	units := append([]minic.NamedSource(nil), g.Units...)
	sess := core.NewSession(core.BuildOptions{Workers: 1})
	if _, err := sess.Update(units); err != nil {
		t.Fatal(err)
	}
	lines := func() int {
		n := 0
		for _, u := range units {
			n += strings.Count(u.Src, "\n")
		}
		return n
	}
	before := lines()
	for i := 0; i < 2*len(units)+1; i++ {
		u, err := applyEdit(units, i)
		if err != nil {
			t.Fatal(err)
		}
		if u != i%len(units) {
			t.Errorf("edit %d changed unit %d", i, u)
		}
		a, err := sess.Update(units)
		if err != nil {
			t.Fatalf("edit %d does not parse: %v", i, err)
		}
		if a.Artifacts.Invalidated != 1 || a.Artifacts.Misses != 0 {
			t.Errorf("edit %d: %d invalidated, %d misses; want 1, 0", i, a.Artifacts.Invalidated, a.Artifacts.Misses)
		}
	}
	if got := lines() - before; got != 2*len(units)+1 {
		t.Errorf("edits added %d lines, want one each", got)
	}
	if g.Units[0].Src == units[0].Src {
		t.Error("edit did not change the unit")
	}
	if genLadder(r2k, 7).Units[0].Src != g.Units[0].Src {
		t.Error("edit wrote through to the generated units")
	}
}

func TestCheckTruth(t *testing.T) {
	truth := &workload.Truth{
		TrueUAF:         []workload.BugSite{{File: "a.mc", Line: 3}, {File: "a.mc", Line: 9}},
		OpaqueUAF:       []workload.BugSite{{File: "b.mc", Line: 5}},
		InfeasibleTraps: []workload.BugSite{{File: "b.mc", Line: 20}},
		TaintTrue:       map[string][]workload.BugSite{"path-traversal": {{File: "a.mc", Line: 30}}},
		TaintOpaque:     map[string][]workload.BugSite{},
	}
	rep := func(checker, file string, line int) reportKey { return reportKey{checker, file, line} }
	good := []reportKey{
		rep("use-after-free", "a.mc", 3), rep("use-after-free", "a.mc", 3), // two sinks, one site
		rep("use-after-free", "a.mc", 9), rep("use-after-free", "b.mc", 5),
		rep("path-traversal", "a.mc", 30), rep("memory-leak", "c.mc", 1),
	}
	data, _ := json.Marshal(good)
	v, err := checkTruth(data, truth)
	if err != nil || v.Wrong() != 0 || v.True != 3 || v.Opaque != 1 || v.TrapsRefuted != 1 || v.OtherCheckers != 1 {
		t.Errorf("clean list: %+v, %v", v, err)
	}
	bad := append(good[2:], rep("use-after-free", "b.mc", 20), rep("data-transmission", "z.mc", 1))
	data, _ = json.Marshal(bad)
	v, _ = checkTruth(data, truth)
	if v.Missed != 1 || v.Traps != 1 || v.Unexpected != 1 || v.Wrong() != 3 {
		t.Errorf("missed site, reported trap, stray report: %+v", v)
	}
	if _, err := checkTruth([]byte("not json"), truth); err == nil {
		t.Error("garbage accepted")
	}
}

func TestInputLock(t *testing.T) {
	lock := filepath.Join(t.TempDir(), "inputs.lock")
	if err := os.WriteFile(lock, []byte("# comment\nr2k abc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkLock(lock, lockSeed, "r2k", "abc"); err != nil {
		t.Error(err)
	}
	if err := checkLock(lock, lockSeed, "r2k", "abd"); err == nil || !strings.Contains(err.Error(), "different bytes") {
		t.Errorf("changed input not refused: %v", err)
	}
	if err := checkLock(lock, lockSeed+1, "r2k", "abd"); err != nil {
		t.Errorf("other seeds are not pinned: %v", err)
	}
	// The committed lock matches what the generator produces today.
	var b bytes.Buffer
	printLock(&b)
	committed, err := os.ReadFile("inputs.lock")
	if err != nil || !bytes.Equal(committed, b.Bytes()) {
		t.Errorf("inputs.lock is stale (err %v); regenerate with -write-lock", err)
	}
}

func TestHygiene(t *testing.T) {
	t.Setenv("GOFLAGS", "-mod=mod")
	if err := checkHygiene(); err != nil {
		t.Error(err)
	}
	for _, f := range []string{"-race", "-cover", "-mod=mod -covermode=atomic"} {
		t.Setenv("GOFLAGS", f)
		if checkHygiene() == nil {
			t.Errorf("GOFLAGS=%q accepted", f)
		}
	}
}

// TestSmoke runs all four workloads, untraced and traced, on tiny inputs,
// and holds each result line against BENCHMARK.json: exactly the listed
// metrics with the listed units, nothing failed, nothing wrong.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/pinpoint and starts child processes")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads()))
	}
	tmp := t.TempDir()
	t.Setenv("GOFLAGS", "") // `go test -race` must not leak into the measured binary
	bin, err := buildPinpoint(root, tmp)
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		for i, w := range workloads() {
			var out bytes.Buffer
			e := &env{Root: root, Pinpoint: bin, Self: self, Work: filepath.Join(tmp, "work"), Nproc: 2, Seed: lockSeed, Traced: traced, Sizes: smokeSizes, Spec: spec, Out: &out}
			if w.Name() != spec.Workloads[i].Name {
				t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.Name(), spec.Workloads[i].Name)
			}
			t0 := time.Now()
			line, err := runWorkload(e, w, filepath.Join(tmp, "out"))
			t.Logf("%s traced=%v: %.1f s", w.Name(), traced, time.Since(t0).Seconds())
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name(), traced, err, out.String())
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.Name(), traced, line.Correct, line.Attempted, line.Failed, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
				if _, err := os.Stat(filepath.Join(tmp, "out", "trace-"+w.Name()+".json")); err != nil {
					t.Errorf("no trace file: %v", err)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name(), traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name(), traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name(), m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name(), m.Name, got.Value)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name(), m.Name, got.Value)
				}
			}
			// The line must survive the round trip the driver puts it through.
			data, err := json.Marshal(line)
			var back map[string]any
			if err != nil || json.Unmarshal(data, &back) != nil || len(back) != 4 {
				t.Errorf("result line does not round-trip: %v %s", err, data)
			}
		}
	}
}
