package difftest

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestGenerateParses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		p := Generate(rng)
		if _, err := Compare(p); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
}

// TestDifferential cross-validates the static analysis against exhaustive
// concrete execution on 200 random programs. On this grammar the analysis
// must be exact: no false negatives AND no false positives.
func TestDifferential(t *testing.T) {
	const n = 200
	bad, err := RunMany(42, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bad {
		kind := "FALSE NEGATIVE (triggerable bug missed)"
		extra := fmt.Sprintf("trigger mask %b", v.TriggerMask)
		if v.AnalysisBug && !v.TruthBug {
			kind = "FALSE POSITIVE (untriggerable report)"
			extra = ""
		}
		t.Errorf("%s %s\n%s", kind, extra, v.Program.Src)
	}
	if len(bad) > 0 {
		t.Fatalf("%d/%d disagreements", len(bad), n)
	}
}

// TestDifferentialOtherSeeds widens coverage across seeds (kept small so
// the suite stays fast; bump counts locally for soak runs).
func TestDifferentialOtherSeeds(t *testing.T) {
	for _, seed := range []int64{7, 1234, 99991} {
		bad, err := RunMany(seed, 60)
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) > 0 {
			t.Fatalf("seed %d: %d disagreements; first:\n%s", seed, len(bad), bad[0].Program.Src)
		}
	}
}

// FuzzDifferential holds the analysis to exhaustive execution on the program
// each seed generates. The corpus is the seeds of TestDifferential and
// TestDifferentialOtherSeeds.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{42, 7, 1234, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		v, err := Compare(Generate(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Agrees() {
			t.Fatalf("analysis reports a bug: %v; execution triggers one: %v (mask %b)\n%s", v.AnalysisBug, v.TruthBug, v.TriggerMask, v.Program.Src)
		}
	})
}
