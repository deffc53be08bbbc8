package core_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/workload"
)

// workerLadder is the worker-count set the determinism contract is
// stated over: sequential, minimal parallelism, and the full machine.
func workerLadder() []int {
	ladder := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		ladder = append(ladder, p)
	}
	return ladder
}

// TestBuildWavefrontColdEquivalence builds the same subject cold at
// every ladder worker count and requires byte-identical reports, equal
// artifact fingerprints, and equal size/PTA statistics. It also pins
// the Timings.SEG attribution fix: the fused pta+seg stage must book
// nonzero time to both halves.
func TestBuildWavefrontColdEquivalence(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 120, Taint: true})
	var base *core.Analysis
	var baseFP string
	for _, w := range workerLadder() {
		sess := core.NewSession(core.BuildOptions{Workers: w})
		a, err := sess.Update(gen.Units)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if a.Timings.PTA <= 0 || a.Timings.SEG <= 0 {
			t.Fatalf("workers=%d: fused stage attribution PTA=%v SEG=%v, want both > 0", w, a.Timings.PTA, a.Timings.SEG)
		}
		fp := sess.ArtifactFingerprint()
		if base == nil {
			base, baseFP = a, fp
			continue
		}
		if fp != baseFP {
			t.Fatalf("workers=%d: artifact fingerprint differs from workers=1", w)
		}
		checkEquivalent(t, "cold", a, base, w)
	}
}

// TestBuildWavefrontWarmEquivalence edits one unit and re-updates at
// every ladder worker count; each warm result must match both the other
// worker counts and a cold build of the edited program.
func TestBuildWavefrontWarmEquivalence(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 140, Taint: true})
	if len(gen.Units) < 2 {
		t.Fatalf("workload has %d units; want multi-unit", len(gen.Units))
	}
	edited := make([]minic.NamedSource, len(gen.Units))
	copy(edited, gen.Units)
	edited[1] = editUnit(t, edited[1])

	cold, err := core.BuildFromSource(edited, core.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var baseFP string
	for _, w := range workerLadder() {
		sess := core.NewSession(core.BuildOptions{Workers: w})
		if _, err := sess.Update(gen.Units); err != nil {
			t.Fatalf("workers=%d cold: %v", w, err)
		}
		warm, err := sess.Update(edited)
		if err != nil {
			t.Fatalf("workers=%d warm: %v", w, err)
		}
		if warm.Artifacts.Hits == 0 {
			t.Fatalf("workers=%d: warm update had no artifact hits: %+v", w, warm.Artifacts)
		}
		fp := sess.ArtifactFingerprint()
		if baseFP == "" {
			baseFP = fp
		} else if fp != baseFP {
			t.Fatalf("workers=%d: warm artifact fingerprint differs", w)
		}
		checkEquivalent(t, "warm", warm, cold, w)
	}
}

// cycleUnits is a program whose call graph has a genuine multi-function
// SCC (ping↔pong) with callers above it and a leaf below it, so editing
// inside the cycle exercises the SCC-frontier recompute path.
func cycleUnits(pongBody string) []minic.NamedSource {
	return []minic.NamedSource{
		{Name: "leaf.mc", Src: "void leaf(int *p) { *p = 7; }"},
		{Name: "cycle.mc", Src: "void ping(int *p, int n) { if (n > 0) { pong(p, n - 1); } }\n" +
			"void pong(int *p, int n) { " + pongBody + " ping(p, n); leaf(p); }"},
		{Name: "main.mc", Src: "void drive(int *buf) { ping(buf, 3); int v = *buf; report(v); }"},
	}
}

// TestBuildWavefrontCycleFrontier edits a function inside a call-graph
// cycle and checks the SCC-frontier recompute stays deterministic: the
// same artifact stats and fingerprints at every ladder worker count,
// matching a cold build of the edited program.
func TestBuildWavefrontCycleFrontier(t *testing.T) {
	before := cycleUnits("*p = n;")
	after := cycleUnits("*p = n + 1;")
	cold, err := core.BuildFromSource(after, core.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var baseFP string
	var baseStats core.ArtifactStats
	for _, w := range workerLadder() {
		sess := core.NewSession(core.BuildOptions{Workers: w})
		if _, err := sess.Update(before); err != nil {
			t.Fatalf("workers=%d cold: %v", w, err)
		}
		warm, err := sess.Update(after)
		if err != nil {
			t.Fatalf("workers=%d frontier: %v", w, err)
		}
		fp := sess.ArtifactFingerprint()
		if baseFP == "" {
			baseFP, baseStats = fp, warm.Artifacts
		} else {
			if fp != baseFP {
				t.Fatalf("workers=%d: frontier fingerprint differs", w)
			}
			if warm.Artifacts != baseStats {
				t.Fatalf("workers=%d: artifact stats %+v != %+v", w, warm.Artifacts, baseStats)
			}
		}
		checkEquivalent(t, "frontier", warm, cold, w)
	}
}

// TestBuildWavefrontErrorUnchanged injects a lowering error into one
// unit of a multi-unit program so the failure surfaces mid-wavefront
// while independent nodes are in flight: the session must stay exactly
// as committed, and a following good update must succeed.
func TestBuildWavefrontErrorUnchanged(t *testing.T) {
	good := cycleUnits("*p = n;")
	bad := make([]minic.NamedSource, len(good))
	copy(bad, good)
	bad[1] = minic.NamedSource{
		Name: good[1].Name,
		Src:  strings.Replace(good[1].Src, "*p = n;", "*p = oops;", 1),
	}
	for _, w := range workerLadder() {
		sess := core.NewSession(core.BuildOptions{Workers: w})
		first, err := sess.Update(good)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		fp := sess.ArtifactFingerprint()
		if _, err := sess.Update(bad); err == nil || !strings.Contains(err.Error(), "undefined variable") {
			t.Fatalf("workers=%d: err = %v, want undefined-variable lowering error", w, err)
		}
		if sess.Analysis() != first {
			t.Fatalf("workers=%d: failed update replaced the committed analysis", w)
		}
		if got := sess.ArtifactFingerprint(); got != fp {
			t.Fatalf("workers=%d: failed update mutated artifacts", w)
		}
		again, err := sess.Update(good)
		if err != nil {
			t.Fatalf("workers=%d: update after failure: %v", w, err)
		}
		checkEquivalent(t, "post-failure", again, first, w)
	}
}

// TestBuildWavefrontWidthGauge checks the scheduler surfaces its peak
// width: a program with several independent functions must expose
// width > 1, and the gauge must be set by a held session and by the
// one-shot BuildFromSource alike.
func TestBuildWavefrontWidthGauge(t *testing.T) {
	gen := workload.Generate(workload.Subjects[0], workload.GenOptions{Scale: 20})
	rec := obs.New()
	sess := core.NewSession(core.BuildOptions{Workers: 2, Obs: rec})
	if _, err := sess.Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	if got := rec.Gauge("modref.wavefront_width").Value(); got <= 1 {
		t.Fatalf("session wavefront width gauge = %d, want > 1", got)
	}
	rec2 := obs.New()
	if _, err := core.BuildFromSource(gen.Units, core.BuildOptions{Workers: 2, Obs: rec2}); err != nil {
		t.Fatal(err)
	}
	if got := rec2.Gauge("modref.wavefront_width").Value(); got < 1 {
		t.Fatalf("build wavefront width gauge = %d, want >= 1", got)
	}
}
