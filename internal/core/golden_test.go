package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/store"
)

// TestLadderGolden pins what the analysis prints and what it persists for the
// benchmark's r4k ladder program (seed 1): the SHA-256 of the JSON reports at
// one and two workers, with and without provenance capture, and of the full
// segment a fresh session writes to an empty store. The digests were recorded
// at the commit before the record layouts were compacted, so a change to the
// in-memory representation that moves a report byte or a wire byte fails
// here; a change that means to move one re-records them and says so. (The
// segment digest was re-recorded when codec v6 stopped writing the IR, SSA
// and points-to sections, and when codec v7 wrote the graph finished.)
func TestLadderGolden(t *testing.T) {
	golden := map[string]string{
		"reports":         "c3d78199f63d2d2861e77dfdefba3a05c21f73d7937d54ed91097de8c1c7a71a",
		"reports witness": "bc08afae4b92f704b5a1c6188717a3885dcaf4a21b861b5f4e8924429291a535",
		"segment":         "95f228ea084f11fc10bf689b9fcc6d28ccec9da45033302aa8154aabbb22ad97",
	}
	check := func(key string, workers int, data []byte) {
		t.Helper()
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != golden[key] {
			t.Errorf("%s at %d workers: %d bytes, sha256 %s, want %s", key, workers, len(data), got, golden[key])
		}
	}
	units := ladder(120, 1)
	for _, workers := range []int{1, 2} {
		for _, witness := range []bool{false, true} {
			a, err := core.BuildFromSource(units, core.BuildOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			res := a.CheckAll(checkers.All(), detect.Options{Workers: workers, Witness: witness})
			if len(res.Reports) < 20 {
				t.Fatalf("the ladder program yields %d reports, too few to pin anything", len(res.Reports))
			}
			key := "reports"
			if witness {
				key += " witness"
			}
			check(key, workers, reportsJSON(t, res.Reports))
		}

		st := openDisk(t, t.TempDir())
		a, err := core.NewSession(core.BuildOptions{Workers: workers, Store: st}).Update(units)
		if err != nil {
			t.Fatal(err)
		}
		seg, ok, err := st.Get(store.NSArtifact, "!full")
		if err != nil || !ok {
			t.Fatalf("the session wrote no full segment: ok=%v err=%v", ok, err)
		}
		if a.Artifacts.Misses != a.Sizes.Functions {
			t.Fatalf("not a cold build: %+v", a.Artifacts)
		}
		check("segment", workers, seg)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneShotBuildEqualsSession holds the storeless BuildFromSource, which
// computes no function AST digests, to a session's Update, which does: the
// digests key only what a later Update or a store reads, so the reports are
// the same.
func TestOneShotBuildEqualsSession(t *testing.T) {
	units := ladder(120, 1)
	a, err := core.BuildFromSource(units, core.BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewSession(core.BuildOptions{Workers: 2}).Update(units)
	if err != nil {
		t.Fatal(err)
	}
	opts := detect.Options{Workers: 2, Witness: true}
	got, want := reportsJSON(t, a.CheckAll(checkers.All(), opts).Reports), reportsJSON(t, b.CheckAll(checkers.All(), opts).Reports)
	if string(got) != string(want) {
		t.Errorf("one-shot build reports %d bytes, a session's %d, and they differ", len(got), len(want))
	}
	if a.Sizes != b.Sizes {
		t.Errorf("one-shot sizes %+v, session sizes %+v", a.Sizes, b.Sizes)
	}
}
