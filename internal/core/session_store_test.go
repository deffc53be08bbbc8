package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/obs"
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

// TestSessionStoreLegacyV4Segments keeps -store-dirs written by an older codec
// version working the only way an old format is meant to: each directory
// under testdata (written by the version-4, 5 and 6 binaries, see prog.mc
// there) opens, every artifact in it reads as a miss, the program
// rebuilds with reports byte-identical to a storeless build, and from the
// next restart on the directory serves the current version's segments.
func TestSessionStoreLegacyV4Segments(t *testing.T) {
	for _, version := range []int{4, 5, 6} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			fixture := filepath.Join("testdata", fmt.Sprintf("store-v%d", version))
			src, err := os.ReadFile(filepath.Join(fixture, "prog.mc"))
			if err != nil {
				t.Fatal(err)
			}
			log, err := os.ReadFile(filepath.Join(fixture, "store.log"))
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
			// A segment opens with its magic and the version as a zig-zag varint.
			if seg, ok, err := st1.Get(store.NSArtifact, "!full"); err != nil || !ok || !bytes.HasPrefix(seg, []byte{'p', 'p', 's', 'g', byte(2 * version)}) {
				t.Fatalf("fixture holds no version-%d full segment: ok=%v err=%v", version, ok, err)
			}
			s1 := core.NewSession(core.BuildOptions{Store: st1})
			a1, err := s1.Update(units)
			if err != nil {
				t.Fatal(err)
			}
			if stats := s1.ArtifactStats(); stats.StoreHits != 0 || stats.Misses != cold.Sizes.Functions {
				t.Fatalf("version-%d segments did not read as all-miss: %+v", version, stats)
			}
			if got := reportsJSON(t, normalizeResults(a1.CheckAll(specs, dopts)).Reports); !bytes.Equal(got, coldB) {
				t.Fatalf("rebuild over a version-%d directory changed reports\ngot: %s\nwant: %s", version, got, coldB)
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
		})
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

// parsedUnits lists, sorted, the units and functions the recorder saw parsed:
// one entry per parse, so a unit parsed twice shows twice.
func parsedUnits(t *testing.T, rec *obs.Recorder) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct{ Name string }
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, e := range trace.TraceEvents {
		if unit, ok := strings.CutPrefix(e.Name, "parse:"); ok {
			names = append(names, unit)
		}
	}
	sort.Strings(names)
	return names
}

// TestWarmRestartParsesNothing holds the rule for what is parsed: a unit when
// its bytes are not the ones known — to the session, or through the store's
// facts record to a restarted one — and a function, on its own, when it has to
// be lowered and is not of the last unit parsed, whose tree the Update keeps.
// So a restart on unchanged sources parses nothing, a body edit parses the
// edited unit, and an edit that changes a callee's Mod/Ref summary or
// connector signature parses, besides, exactly the callers that are lowered
// again. Every case ends where a from-scratch build of the same sources ends,
// at one worker and at several.
func TestWarmRestartParsesNothing(t *testing.T) {
	base := []minic.NamedSource{
		{Name: "a.mc", Src: "int gg;\nvoid top(int *p) { mid(p); }\nvoid top2(int *p) { mid(p); }\n"},
		{Name: "b.mc", Src: "void mid(int *p) { w(p); }\n"},
		{Name: "c.mc", Src: "void w(int *p) { *p = 1; }\n"},
		{Name: "d.mc", Src: "int *mk() { return malloc(); }\nvoid lone(int *p) { *p = 3; }\n"},
		{Name: "e.mc", Src: "void other() { int *x = mk(); lone(x); free(x); use(*x); }\n"},
	}
	cases := []struct {
		name   string
		unit   int
		src    string
		parsed []string
	}{
		{name: "unchanged", unit: -1, parsed: []string{}},
		{name: "body edit", unit: 3, src: "int *mk() { return malloc(); }\nvoid lone(int *p) { *p = 4; }\n", parsed: []string{"d.mc"}},
		{name: "callee summary changes", unit: 2, src: "void w(int *p) { int t = *p; *p = t + 1; }\n", parsed: []string{"c.mc", "mid", "top", "top2"}},
		{name: "callee signature changes", unit: 2, src: "void w(int *p) { *p = 1; gg = 2; }\n", parsed: []string{"c.mc", "mid", "top", "top2"}},
	}
	specs := checkers.All()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0), 8} {
		dopts := detect.Options{Workers: workers}
		for _, tc := range cases {
			units := slices.Clone(base)
			if tc.unit >= 0 {
				units[tc.unit].Src = tc.src
			}
			scratch := core.NewSession(core.BuildOptions{Workers: workers})
			scratchA, err := scratch.Update(units)
			if err != nil {
				t.Fatal(err)
			}
			want := reportsJSON(t, scratchA.CheckAll(specs, dopts).Reports)
			if len(want) < 100 {
				t.Fatalf("the program has no report to compare: %s", want)
			}

			for _, withStore := range []bool{false, true} {
				tag := fmt.Sprintf("workers=%d store=%v %s", workers, withStore, tc.name)
				rec := obs.NewTracing()
				var sess *core.Session
				var before []string
				var st *store.DiskStore
				if withStore {
					dir := t.TempDir()
					st = openDisk(t, dir)
					if _, err := core.NewSession(core.BuildOptions{Workers: workers, Store: st}).Update(base); err != nil {
						t.Fatal(err)
					}
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					st = openDisk(t, dir)
					sess = core.NewSession(core.BuildOptions{Workers: workers, Store: st, Obs: rec})
				} else {
					sess = core.NewSession(core.BuildOptions{Workers: workers, Obs: rec})
					if _, err := sess.Update(base); err != nil {
						t.Fatal(err)
					}
					before = parsedUnits(t, rec)
				}
				counted, countedFuncs := rec.Counter("build.units_parsed").Value(), rec.Counter("build.funcs_parsed").Value()
				a, err := sess.Update(units)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				got := parsedUnits(t, rec)
				for _, unit := range before {
					got = slices.Delete(got, slices.Index(got, unit), slices.Index(got, unit)+1)
				}
				if !slices.Equal(got, tc.parsed) {
					t.Errorf("%s: parsed %v, want %v", tag, got, tc.parsed)
				}
				stats := sess.ArtifactStats()
				units := min(len(tc.parsed), 1) // the edited unit, then functions
				if n := int(rec.Counter("build.units_parsed").Value() - counted); stats.UnitsParsed != units || n != units {
					t.Errorf("%s: UnitsParsed = %d, build.units_parsed grew by %d, want %d", tag, stats.UnitsParsed, n, units)
				}
				if n := int(rec.Counter("build.funcs_parsed").Value() - countedFuncs); stats.FuncsParsed != len(tc.parsed)-units || n != stats.FuncsParsed {
					t.Errorf("%s: FuncsParsed = %d, build.funcs_parsed grew by %d, want %d", tag, stats.FuncsParsed, n, len(tc.parsed)-units)
				}
				if withStore && (stats.UnitsLoaded != len(base)-units || stats.StoreHits != len(a.Module.Funcs)) {
					t.Errorf("%s: %d units and %d of %d artifacts came from the store", tag, stats.UnitsLoaded, stats.StoreHits, len(a.Module.Funcs))
				}
				if got := reportsJSON(t, a.CheckAll(specs, dopts).Reports); !bytes.Equal(got, want) {
					t.Errorf("%s: reports differ from a from-scratch build's\ngot:  %s\nwant: %s", tag, got, want)
				}
				if sess.ArtifactFingerprint() != scratch.ArtifactFingerprint() {
					t.Errorf("%s: artifact fingerprint differs from a from-scratch build's", tag)
				}
				if st != nil {
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}

	// An edit that deletes or renames a function leaves the store holding no
	// artifact under a name the program lacks, whether the store saw the edit
	// happen in a session or finds it done at a restart: the restarts after
	// it parse nothing and load every artifact.
	for _, tc := range []struct {
		name string
		unit int
		src  string
	}{
		{"a function deleted", 0, "int gg;\nvoid top(int *p) { mid(p); }\n"},
		{"the last function of a unit deleted", 3, "int *mk() { return malloc(); }\n"},
		{"a function renamed", 0, "int gg;\nvoid top(int *p) { mid(p); }\nvoid top3(int *p) { mid(p); }\n"},
	} {
		units := slices.Clone(base)
		units[tc.unit].Src = tc.src
		if tc.unit == 3 {
			units[4].Src = "void other() { int *x = mk(); free(x); use(*x); }\n"
		}
		scratch := core.NewSession(core.BuildOptions{})
		scratchA, err := scratch.Update(units)
		if err != nil {
			t.Fatal(err)
		}
		want := reportsJSON(t, scratchA.CheckAll(specs, detect.Options{Workers: 1}).Reports)
		for _, live := range []bool{true, false} {
			tag := fmt.Sprintf("%s, live=%v", tc.name, live)
			dir := t.TempDir()
			st := openDisk(t, dir)
			sess := core.NewSession(core.BuildOptions{Store: st})
			if _, err := sess.Update(base); err != nil {
				t.Fatal(err)
			}
			if live {
				if _, err := sess.Update(units); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			for restart := 0; restart < 3; restart++ {
				st := openDisk(t, dir)
				sess := core.NewSession(core.BuildOptions{Store: st})
				a, err := sess.Update(units)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				stats := sess.ArtifactStats()
				if restart > 0 || live {
					if stats.UnitsParsed != 0 || stats.UnitsLoaded != len(units) || stats.StoreHits != len(a.Module.Funcs) || stats.Misses+stats.Invalidated != 0 {
						t.Errorf("%s, restart %d: %+v, want nothing parsed and everything loaded", tag, restart, stats)
					}
				}
				if got := reportsJSON(t, a.CheckAll(specs, detect.Options{Workers: 1}).Reports); !bytes.Equal(got, want) {
					t.Errorf("%s, restart %d: reports differ from a from-scratch build's", tag, restart)
				}
				if sess.ArtifactFingerprint() != scratch.ArtifactFingerprint() {
					t.Errorf("%s, restart %d: artifact fingerprint differs from a from-scratch build's", tag, restart)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
