package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/minic"
	"repro/internal/store"
)

// TestSessionStoreV8Fixture holds the in-memory layout to the wire format: the
// directory under testdata was written by the binary of codec version 8 (see
// prog.mc there). Opening it must find every artifact a hit, and what was
// decoded must encode back to the fixture's segment byte for byte.
func TestSessionStoreV8Fixture(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "store-v8", "prog.mc"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join("testdata", "store-v8", "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(store.LogPath(dir), log, 0o666); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seg, ok, err := st.Get(store.NSArtifact, segFullKey)
	if err != nil || !ok || !bytes.HasPrefix(seg, []byte(segMagic+"\x10")) {
		t.Fatalf("fixture holds no version-8 full segment: ok=%v err=%v", ok, err)
	}

	s := NewSession(BuildOptions{Store: st})
	a, err := s.Update([]minic.NamedSource{{Name: "prog.mc", Src: string(src)}})
	if err != nil {
		t.Fatal(err)
	}
	if stats := s.ArtifactStats(); stats.StoreHits != a.Sizes.Functions || stats.Misses != 0 || stats.Invalidated != 0 {
		t.Fatalf("the fixture is not all store hits: %+v of %d functions", stats, a.Sizes.Functions)
	}
	hdr, arts, err := decodeSegment(s.shape.fp, seg, 1)
	if err != nil || len(arts) != a.Sizes.Functions {
		t.Fatalf("fixture segment decodes to %d of %d artifacts: %v", len(arts), a.Sizes.Functions, err)
	}
	if got := reencode(t, s.shape.fp, hdr, arts); !bytes.Equal(got, seg) {
		t.Errorf("the fixture's artifacts encode to %d bytes that differ from the fixture's %d", len(got), len(seg))
	}
}

// TestFingerprintGolden pins the connector-signature and dependency
// fingerprints of every function of examples/mc. Both are persisted with the
// artifact and compared across restarts, so a change to the bytes either is
// computed from turns a populated -store-dir cold; the values below were
// produced by the fmt.Fprintf-based rendering the strconv one replaced.
func TestFingerprintGolden(t *testing.T) {
	golden := map[string][2]string{
		"seg.mc:pick":                          {"ret=int*;params=bool,int*,;aux=i-1@slot_g.1,o-1@slot_g.1,", "1d6291d70eafc9837db9fb4e"},
		"seg.mc:drive":                         {"ret=void;params=bool,;aux=i-1@slot_g.1,o-1@slot_g.1,", "cbc0070c0fad5945d29d0a49"},
		"conn.mc:put":                          {"ret=void;params=int**,int*,;aux=i0@.1,o0@.1,", "69a13f69de53dd1406d3e115"},
		"conn.mc:get":                          {"ret=int*;params=int**,;aux=i0@.1,", "3bc87975503b270520ea7eb8"},
		"conn.mc:relay":                        {"ret=void;params=int**,int**,;aux=i0@.1,i1@.1,o1@.1,", "3f2f1c17bdc984cf3775808e"},
		"examples/mc/leaks.mc:forgot_free":     {"ret=void;params=;aux=", "15ad8575155696ee6d9e83ce"},
		"examples/mc/leaks.mc:half_release":    {"ret=void;params=bool,;aux=", "2a01a049b28af258cbcaff5a"},
		"examples/mc/leaks.mc:full_release":    {"ret=void;params=bool,;aux=", "9a944764f166096aef742365"},
		"examples/mc/leaks.mc:make_obj":        {"ret=int*;params=;aux=", "d336612a97a2896e34e1c7b2"},
		"examples/mc/taint.mc:normalize_req":   {"ret=int*;params=int*,;aux=", "1d9a4667db45d4286a6c861f"},
		"examples/mc/taint.mc:handle_req":      {"ret=void;params=;aux=", "fc43269e47889c257c18b6b2"},
		"examples/mc/taint.mc:audit_login":     {"ret=void;params=;aux=", "6395df909811ce2d23dba4e6"},
		"examples/mc/taint.mc:load_defaults":   {"ret=void;params=;aux=", "0bd6cc81d63b27de05d8256b"},
		"examples/mc/taint.mc:deref_unchecked": {"ret=void;params=bool,;aux=", "52630a6f4863b4f398513171"},
		"examples/mc/uaf.mc:uaf_conditional":   {"ret=void;params=bool,;aux=", "e6fe80821e2fac0d8b5025c5"},
		"examples/mc/uaf.mc:uaf_safe":          {"ret=void;params=bool,;aux=", "e6fe80821e2fac0d8b5025c5"},
		"examples/mc/uaf.mc:release":           {"ret=void;params=int*,;aux=", "8af1720d4329bf3e803d669d"},
		"examples/mc/uaf.mc:df_helper":         {"ret=void;params=bool,;aux=", "403ddd4eb546cce7df8f346c"},
	}
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example inputs: %v", err)
	}
	// The examples have no connectors; the codec tests' program has them on
	// a global, the one below on parameters, in and out.
	units := []minic.NamedSource{
		{Name: "seg.mc", Src: segmentSrc},
		{Name: "conn.mc", Src: `
void put(int **slot, int *v) { *slot = v; }
int *get(int **slot) { return *slot; }
void relay(int **from, int **to) { int *x = get(from); put(to, x); }`},
	}
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, minic.NamedSource{Name: "examples/mc/" + filepath.Base(p), Src: string(b)})
	}
	seen := 0
	for _, u := range units {
		name := u.Name
		s := NewSession(BuildOptions{})
		if _, err := s.Update([]minic.NamedSource{u}); err != nil {
			t.Fatal(err)
		}
		for _, id := range s.tab.ids {
			art := s.arts[id]
			key := name + ":" + art.fn.Name
			seen++
			if got, want := [2]string{art.sigFP, art.depFP.String()}, golden[key]; got != want {
				t.Errorf("%q: {%q, %q},", key, got[0], got[1])
			}
		}
	}
	if seen != len(golden) {
		t.Errorf("checked %d fingerprints, golden table has %d", seen, len(golden))
	}
}
