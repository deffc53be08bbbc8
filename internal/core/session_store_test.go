package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/store"
	"repro/internal/wirebin"
	"repro/internal/workload"
)

// openDisk opens a DiskStore in dir, failing the test on error.
func openDisk(t *testing.T, dir string) *store.DiskStore {
	t.Helper()
	st, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSessionStoreWarmRestartEquivalence is the persistent-store contract:
// a fresh session pointed at a populated store directory — a restarted
// server — must produce reports byte-identical to a cold build AND to an
// in-process warm session, while rebuilding zero unchanged artifacts.
func TestSessionStoreWarmRestartEquivalence(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 140, Taint: true})

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		dir := t.TempDir()
		specs := checkers.All()
		dopts := detect.Options{Workers: workers}

		// Cold: no store at all.
		cold := core.NewSession(core.BuildOptions{Workers: workers})
		coldA, err := cold.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		coldRes := normalizeResults(coldA.CheckAll(specs, dopts))

		// First process: populate the store.
		st1 := openDisk(t, dir)
		s1 := core.NewSession(core.BuildOptions{Workers: workers, Store: st1})
		a1, err := s1.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		if hits := s1.ArtifactStats().StoreHits; hits != 0 {
			t.Fatalf("first build had %d store hits; want 0", hits)
		}
		warmRes := normalizeResults(a1.CheckAll(specs, dopts))
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}

		// Second process: same directory, empty memory.
		st2 := openDisk(t, dir)
		s2 := core.NewSession(core.BuildOptions{Workers: workers, Store: st2})
		a2, err := s2.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		stats := s2.ArtifactStats()
		if stats.Misses != 0 || stats.Invalidated != 0 {
			t.Fatalf("warm restart rebuilt artifacts: %+v", stats)
		}
		if stats.StoreHits != stats.Hits || stats.StoreHits == 0 {
			t.Fatalf("warm restart stats %+v: want every hit store-loaded", stats)
		}
		restartRes := normalizeResults(a2.CheckAll(specs, dopts))
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}

		cb := reportsJSON(t, coldRes.Reports)
		wb := reportsJSON(t, warmRes.Reports)
		rb := reportsJSON(t, restartRes.Reports)
		if !bytes.Equal(rb, cb) {
			t.Fatalf("workers=%d: restart reports differ from cold\nrestart: %s\ncold: %s", workers, rb, cb)
		}
		if !bytes.Equal(rb, wb) {
			t.Fatalf("workers=%d: restart reports differ from in-process warm", workers)
		}
		if coldA.Sizes != a2.Sizes {
			t.Fatalf("workers=%d: sizes differ: cold %+v restart %+v", workers, coldA.Sizes, a2.Sizes)
		}
		if coldA.PTAStats != a2.PTAStats {
			t.Fatalf("workers=%d: PTA stats differ", workers)
		}
	}
}

// TestSessionStoreWarmRestartAfterEdit checks the harder path: the store
// was populated, the process restarted, AND the sources changed. Unedited
// functions load from disk; the edit's invalidation frontier rebuilds; the
// result matches a cold build of the edited program.
func TestSessionStoreWarmRestartAfterEdit(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 140, Taint: true})
	if len(gen.Units) < 2 {
		t.Fatalf("workload has %d units; want multi-unit", len(gen.Units))
	}
	dir := t.TempDir()

	st1 := openDisk(t, dir)
	s1 := core.NewSession(core.BuildOptions{Store: st1})
	if _, err := s1.Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	editedUnits := append(gen.Units[:0:0], gen.Units...)
	editedUnits[0] = editUnit(t, editedUnits[0])

	st2 := openDisk(t, dir)
	s2 := core.NewSession(core.BuildOptions{Store: st2})
	a2, err := s2.Update(editedUnits)
	if err != nil {
		t.Fatal(err)
	}
	stats := s2.ArtifactStats()
	if stats.StoreHits == 0 {
		t.Fatalf("edited restart loaded nothing: %+v", stats)
	}
	if stats.Invalidated+stats.Misses == 0 {
		t.Fatalf("edited restart rebuilt nothing: %+v", stats)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	cold := core.NewSession(core.BuildOptions{})
	coldA, err := cold.Update(editedUnits)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, "edited-restart", a2, coldA, 1)
}

// TestSessionStoreLegacyVerdictRecords keeps old -store-dirs working: a log
// that also holds SMT verdict records — which earlier versions appended
// under the "verdict" and "vshape" namespaces during CheckAll, and which
// nothing reads any more — must open, warm-load every artifact, and yield
// reports byte-identical to a cold build.
func TestSessionStoreLegacyVerdictRecords(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 140, Taint: true})
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}
	dir := t.TempDir()

	cold := core.NewSession(core.BuildOptions{})
	coldA, err := cold.Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	coldB := reportsJSON(t, normalizeResults(coldA.CheckAll(specs, dopts)).Reports)

	// First process: artifacts, then verdict records in the old formats
	// (exact tier: result byte + 5-byte model pairs; shape tier: 0x01).
	st1 := openDisk(t, dir)
	s1 := core.NewSession(core.BuildOptions{Store: st1})
	if _, err := s1.Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	legacy := []struct {
		ns, key string
		val     []byte
	}{
		{"verdict", strings.Repeat("ab", 32), []byte{1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0}},
		{"verdict", strings.Repeat("cd", 32), []byte{0}},
		{"vshape", strings.Repeat("cd", 32), []byte{1}},
	}
	for _, r := range legacy {
		if err := st1.Put(r.ns, r.key, r.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second process: same directory, empty memory.
	st2 := openDisk(t, dir)
	defer st2.Close()
	s2 := core.NewSession(core.BuildOptions{Store: st2})
	a2, err := s2.Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	stats := s2.ArtifactStats()
	if stats.Misses != 0 || stats.Invalidated != 0 || stats.StoreHits != stats.Hits || stats.StoreHits == 0 {
		t.Fatalf("restart over a log with verdict records did not warm-load every artifact: %+v", stats)
	}
	if got := reportsJSON(t, normalizeResults(a2.CheckAll(specs, dopts)).Reports); !bytes.Equal(got, coldB) {
		t.Fatalf("restart over a log with verdict records changed reports\ngot: %s\nwant: %s", got, coldB)
	}
	for _, r := range legacy {
		if v, ok, err := st2.Get(r.ns, r.key); err != nil || !ok || !bytes.Equal(v, r.val) {
			t.Fatalf("legacy %s record lost: %v ok=%v err=%v", r.ns, v, ok, err)
		}
	}
}

// TestSessionStoreLegacyV4Segments keeps -store-dirs written before codec
// version 5 working the only way an old format is meant to: the directory
// under testdata (written by the version-4 binary, see prog.mc there) opens,
// every artifact in it reads as a miss, the program rebuilds with reports
// byte-identical to a storeless build, and from the next restart on the
// directory serves version-5 segments.
func TestSessionStoreLegacyV4Segments(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "store-v4", "prog.mc"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join("testdata", "store-v4", "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(store.LogPath(dir), log, 0o666); err != nil {
		t.Fatal(err)
	}
	units := []minic.NamedSource{{Name: "prog.mc", Src: string(src)}}
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}

	cold, err := core.NewSession(core.BuildOptions{}).Update(units)
	if err != nil {
		t.Fatal(err)
	}
	coldB := reportsJSON(t, normalizeResults(cold.CheckAll(specs, dopts)).Reports)
	if len(coldB) < 100 {
		t.Fatalf("the fixture program has no reports to compare: %s", coldB)
	}

	st1 := openDisk(t, dir)
	if seg, ok, err := st1.Get(store.NSArtifact, "!full"); err != nil || !ok || !bytes.HasPrefix(seg, []byte("ppsg\x08")) {
		t.Fatalf("fixture holds no version-4 full segment: ok=%v err=%v", ok, err)
	}
	s1 := core.NewSession(core.BuildOptions{Store: st1})
	a1, err := s1.Update(units)
	if err != nil {
		t.Fatal(err)
	}
	if stats := s1.ArtifactStats(); stats.StoreHits != 0 || stats.Misses != cold.Sizes.Functions {
		t.Fatalf("version-4 segments did not read as all-miss: %+v", stats)
	}
	if got := reportsJSON(t, normalizeResults(a1.CheckAll(specs, dopts)).Reports); !bytes.Equal(got, coldB) {
		t.Fatalf("rebuild over a version-4 directory changed reports\ngot: %s\nwant: %s", got, coldB)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openDisk(t, dir)
	defer st2.Close()
	s2 := core.NewSession(core.BuildOptions{Store: st2})
	a2, err := s2.Update(units)
	if err != nil {
		t.Fatal(err)
	}
	if stats := s2.ArtifactStats(); stats.Misses != 0 || stats.Invalidated != 0 || stats.StoreHits != cold.Sizes.Functions {
		t.Fatalf("restart after the rebuild is not all store hits: %+v", stats)
	}
	if got := reportsJSON(t, normalizeResults(a2.CheckAll(specs, dopts)).Reports); !bytes.Equal(got, coldB) {
		t.Fatalf("restart after the rebuild changed reports\ngot: %s\nwant: %s", got, coldB)
	}
}

// TestSessionStoreCorruption covers the crash-safety contract end to end:
// a truncated or bit-flipped store log — or a segment damaged before it was
// written, so that the store's checksum vouches for it — is detected, the
// affected artifacts rebuild from source, and reports never differ from a
// cold build.
func TestSessionStoreCorruption(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 140, Taint: true})
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}

	cold := core.NewSession(core.BuildOptions{})
	coldA, err := cold.Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	coldB := reportsJSON(t, normalizeResults(coldA.CheckAll(specs, dopts)).Reports)

	corrupt := func(t *testing.T, name string, mutate func(t *testing.T, path string)) core.ArtifactStats {
		dir := t.TempDir()
		st1 := openDisk(t, dir)
		s1 := core.NewSession(core.BuildOptions{Store: st1})
		if _, err := s1.Update(gen.Units); err != nil {
			t.Fatal(err)
		}
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}
		mutate(t, store.LogPath(dir))

		st2 := openDisk(t, dir)
		defer st2.Close()
		s2 := core.NewSession(core.BuildOptions{Store: st2})
		a2, err := s2.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		stats := s2.ArtifactStats()
		total := stats.Hits + stats.Misses + stats.Invalidated
		if stats.Misses+stats.Invalidated == 0 {
			t.Fatalf("%s: corruption rebuilt nothing (%+v) — was it detected?", name, stats)
		}
		if stats.StoreHits+stats.Misses+stats.Invalidated < total {
			t.Fatalf("%s: inconsistent stats %+v", name, stats)
		}
		got := reportsJSON(t, normalizeResults(a2.CheckAll(specs, dopts)).Reports)
		if !bytes.Equal(got, coldB) {
			t.Fatalf("%s: corrupted store produced different reports\ngot: %s\nwant: %s", name, got, coldB)
		}
		return stats
	}

	corrupt(t, "truncated-tail", func(t *testing.T, path string) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()*2/3); err != nil {
			t.Fatal(err)
		}
	})
	corrupt(t, "bit-flip", func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
	})

	// rewriteFull replaces the full segment by a damaged copy of itself.
	rewriteFull := func(t *testing.T, path string, damage func(seg []byte) []byte) {
		st := openDisk(t, filepath.Dir(path))
		seg, ok, err := st.Get(store.NSArtifact, "!full")
		if err != nil || !ok {
			t.Fatalf("no full segment to damage: ok=%v err=%v", ok, err)
		}
		if err := st.Put(store.NSArtifact, "!full", damage(seg)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A segment whose stream breaks off is discarded whole.
	stats := corrupt(t, "truncated-segment", func(t *testing.T, path string) {
		rewriteFull(t, path, func(seg []byte) []byte { return seg[:len(seg)*2/3] })
	})
	if stats.StoreHits != 0 {
		t.Errorf("truncated-segment: %d artifacts loaded from a segment that does not parse", stats.StoreHits)
	}
	// One artifact made stale costs that artifact.
	stats = corrupt(t, "bit-flip-in-segment", func(t *testing.T, path string) {
		rewriteFull(t, path, func(seg []byte) []byte {
			// Step over the segment header to the first artifact's frame:
			// its length, then the AST hash the artifact is valid for.
			r := wirebin.NewReader(seg[4:])
			r.Int()
			r.Str()
			r.Varint()
			r.Int()
			frame := len(seg) - r.Rest()
			seg[frame+4+1+10] ^= 0x01
			return seg
		})
	})
	if stats.Misses+stats.Invalidated != 1 {
		t.Errorf("bit-flip-in-segment: rebuilt %d functions, want the one whose artifact was damaged (%+v)", stats.Misses+stats.Invalidated, stats)
	}
}
