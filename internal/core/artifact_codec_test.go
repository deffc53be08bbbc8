package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/pta"
	"repro/internal/ssa"
	"repro/internal/store"
	"repro/internal/wirebin"
	"repro/internal/workload"
)

const segmentSrc = `
int *slot_g;
int *pick(bool c, int *a) {
	int *p = malloc();
	*p = 1;
	if (c) { free(p); p = a; }
	slot_g = p;
	return p;
}
void drive(bool c) {
	int *q = malloc();
	int *r = pick(c, q);
	if (!c) { free(q); }
	sink(*r);
}`

// codecSegment builds the two functions above and returns the program-shape
// fingerprint with their segment, as persist would write it.
func codecSegment(t testing.TB) (progFP string, seg []byte) {
	t.Helper()
	s := NewSession(BuildOptions{Workers: 1, Store: openStore(t)})
	if _, err := s.Update([]minic.NamedSource{{Name: "seg.mc", Src: segmentSrc}}); err != nil {
		t.Fatal(err)
	}
	seg, err := encodeSegment(s.shape.fp, 7, s.tab.ids, s.arts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s.shape.fp, seg
}

// openStore opens a store in a fresh directory: a session with one keeps
// its functions' bodies, which the codec writes.
func openStore(t testing.TB) store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// reencode writes decoded artifacts back out as a segment.
func reencode(t testing.TB, progFP string, hdr segmentHeader, arts []*funcArtifact) []byte {
	t.Helper()
	ids := make([]int32, len(arts))
	for i := range ids {
		ids[i] = int32(i)
	}
	seg, err := encodeSegment(progFP, hdr.Seq, ids, arts, 1)
	if err != nil {
		t.Fatalf("re-encoding a decoded segment: %v", err)
	}
	return seg
}

// checkDecoded holds whatever decodeSegment accepted to the codec's
// contract: every artifact's function verifies, and the artifacts encode to
// a segment that decodes to the same artifacts (compared through their
// encoding, which is canonical).
func checkDecoded(t testing.TB, progFP string, hdr segmentHeader, arts []*funcArtifact) {
	t.Helper()
	for _, art := range arts {
		if err := ir.Verify(art.fn); err != nil {
			t.Fatalf("decoded artifact fails verification: %v", err)
		}
	}
	first := reencode(t, progFP, hdr, arts)
	hdr2, arts2, err := decodeSegment(progFP, first, 1)
	if err != nil || len(arts2) != len(arts) || hdr2.Seq != hdr.Seq {
		t.Fatalf("re-encoded segment decodes to %d of %d artifacts: %v", len(arts2), len(arts), err)
	}
	if second := reencode(t, progFP, hdr2, arts2); !bytes.Equal(first, second) {
		t.Fatal("a decoded artifact changed across an encode/decode round trip")
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	progFP, seg := codecSegment(t)
	hdr, arts, err := decodeSegment(progFP, seg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != artifactCodecVersion || hdr.Seq != 7 || hdr.Count != 2 || len(arts) != 2 {
		t.Fatalf("header %+v with %d artifacts", hdr, len(arts))
	}
	if arts[0].fn.Name != "pick" || arts[1].fn.Name != "drive" || !arts[0].persisted {
		t.Errorf("decoded %s, %s (persisted %v)", arts[0].fn.Name, arts[1].fn.Name, arts[0].persisted)
	}
	if got := reencode(t, progFP, hdr, arts); !bytes.Equal(got, seg) {
		t.Error("the decoded segment encodes differently")
	}
	checkDecoded(t, progFP, hdr, arts)
	if _, _, err := decodeSegment(progFP+"x", seg, 1); err == nil {
		t.Error("segment accepted under another program shape")
	}
}

// TestSegmentCorruptionIsConfined overwrites every byte of the first
// artifact's frame in turn. Whatever the byte was, decoding never panics and
// either discards the segment (the stream no longer parses), skips that
// artifact alone (a codec rejected its content), or accepts it — and then it
// still meets the codec's contract. The second artifact is never affected by
// a skip.
func TestSegmentCorruptionIsConfined(t *testing.T) {
	progFP, seg := codecSegment(t)
	hdr, arts, err := decodeSegment(progFP, seg, 1)
	if err != nil {
		t.Fatal(err)
	}
	second := reencode(t, progFP, hdr, arts[1:])
	start, end := firstFrame(seg)
	var discarded, skipped, accepted int
	for at := start; at < end; at++ {
		for _, b := range []byte{seg[at] ^ 0x01, seg[at] ^ 0x80, 0xff} {
			mut := bytes.Clone(seg)
			mut[at] = b
			h, got, err := decodeSegment(progFP, mut, 1)
			switch {
			case err != nil:
				discarded++
			case len(got) == 1:
				skipped++
				if enc := reencode(t, progFP, h, got); !bytes.Equal(enc, second) {
					t.Fatalf("byte %d = %#x: skipping the first artifact changed the second", at, b)
				}
			default:
				accepted++
				checkDecoded(t, progFP, h, got)
			}
		}
	}
	t.Logf("%d bytes: %d mutations discard the segment, %d skip the artifact, %d are accepted", end-start, discarded, skipped, accepted)
	if discarded == 0 || skipped == 0 {
		t.Errorf("mutations never %s", map[bool]string{true: "discarded the segment", false: "skipped one artifact"}[discarded == 0])
	}
}

// firstFrame returns where the first artifact's frame lies in seg.
func firstFrame(seg []byte) (start, end int) {
	// Step over the header, as decodeSegment reads it, to the first frame.
	r := wirebin.NewReader(seg[len(segMagic):])
	r.Int()
	r.Str()
	r.Varint()
	r.Int()
	n := r.Frame().Rest()
	end = len(seg) - r.Rest()
	return end - n, end
}

// poke returns seg with one signed varint of its first artifact replaced by
// v: the one the reader stands at after seek has walked it over the frame.
func poke(t testing.TB, seg []byte, v int64, seek func(r *wirebin.Reader)) []byte {
	t.Helper()
	start, end := firstFrame(seg)
	r := wirebin.NewReader(seg[start:end])
	seek(r)
	at := end - r.Rest()
	r.Varint()
	if r.Err() != nil {
		t.Fatalf("seeking in the seed segment: %v", r.Err())
	}
	var w wirebin.Writer
	w.B = append(w.B, seg[:at]...)
	w.Varint(v)
	w.B = append(w.B, seg[end-r.Rest():]...)
	binary.LittleEndian.PutUint32(w.B[start-4:], uint32(end-start+len(w.B)-len(seg)))
	return w.B
}

// narrowFieldSeeds are copies of the seed segment whose first artifact holds
// a number the in-memory records have no room for — the fields that were
// narrowed when the records were compacted — a payload of the wrong kind in
// the field values now share, or an ID past the space a SEG record reads it
// in (the function's values or instructions, its Builder's conditions).
func narrowFieldSeeds(t testing.TB, seg []byte) map[string][]byte {
	toFunc := func(r *wirebin.Reader) { // over the session's fields to the function section
		r.Str()
		r.Str()
		r.Str()
		r.Str()
		decodeSummary(r)
		r.Int()
		r.Int()
		r.Int()
		r.Int()
	}
	toFuncLine := func(r *wirebin.Reader) {
		toFunc(r)
		r.Str() // name
		r.Sym() // return type
		r.Int()
		r.Int() // unit
		r.Sym() // file
	}
	// toSEG steps over the artifact to its SEG section and reads its vertex
	// count; fn and conds are the function and the conditions it holds.
	var fn *ir.Func
	var conds *cond.Builder
	toSEG := func(r *wirebin.Reader) int {
		toFunc(r)
		f, ix, err := ir.DecodeFunc(r)
		if err != nil {
			t.Fatal(err)
		}
		b, nodes, err := cond.DecodeBuilder(r)
		if err != nil {
			t.Fatal(err)
		}
		inf, err := ssa.DecodeInfo(r, f, ix, b, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pta.DecodeResult(r, f, inf, ix, nodes); err != nil {
			t.Fatal(err)
		}
		fn, conds = f, b
		return r.Len()
	}
	start, end := firstFrame(seg)
	toSEG(wirebin.NewReader(seg[start:end]))
	toFirstValue := func(r *wirebin.Reader) {
		toFuncLine(r)
		r.Int()
		r.Int()
		for range 2 { // aux specs, in and out
			for n := r.Len(); n > 0; n-- {
				r.Int()
				r.Sym()
				r.Int()
			}
		}
		r.Len()
		r.Len()
		r.Len()
		r.Len() // the value count
	}
	return map[string][]byte{
		"segment-wide-line":     poke(t, seg, 1<<40, toFuncLine),
		"segment-wide-value-id": poke(t, seg, 1<<32, toFirstValue),
		"segment-negative-param": poke(t, seg, -1, func(r *wirebin.Reader) {
			toFirstValue(r)
			r.Int()
			r.U8()
			r.Str()
			r.Sym()
			r.Int()
			r.I32()
			r.Varint()
			r.Bool()
		}),
		"segment-wide-operand": poke(t, seg, 1<<32, func(r *wirebin.Reader) {
			toSEG(r) // then the first vertex up to its operand index
			r.U8()
			r.U8()
			r.I32()
			r.I32()
		}),
		"segment-vertex-value-past-function": poke(t, seg, int64(fn.NumValues()), func(r *wirebin.Reader) {
			toSEG(r) // then the first vertex up to its value
			r.U8()
			r.U8()
		}),
		"segment-vertex-instr-past-function": poke(t, seg, int64(fn.NumInstrs()), func(r *wirebin.Reader) {
			toSEG(r) // then the first vertex up to its instruction
			r.U8()
			r.U8()
			r.I32()
		}),
		"segment-edge-cond-past-builder": poke(t, seg, int64(conds.NumNodes()), func(r *wirebin.Reader) {
			for n := toSEG(r); n > 0; n-- { // the vertices
				r.U8()
				r.U8()
				r.I32()
				r.I32()
				r.Int()
			}
			r.Len() // the edge total and the lists, up to the first edge's condition
			r.Len()
			r.Int()
			r.Len()
			r.I32()
		}),
	}
}

// TestSegmentRejectsWhatDoesNotFit: an ID, position, parameter or operand
// index the compact records cannot hold costs its artifact — a miss, rebuilt
// from source — and neither truncates into a different artifact nor takes
// the rest of the segment with it.
func TestSegmentRejectsWhatDoesNotFit(t *testing.T) {
	progFP, seg := codecSegment(t)
	for name, data := range narrowFieldSeeds(t, seg) {
		hdr, arts, err := decodeSegment(progFP, data, 1)
		if err != nil || hdr.Count != 2 {
			t.Errorf("%s: the segment was discarded: %v", name, err)
			continue
		}
		if len(arts) != 1 || arts[0].fn.Name != "drive" {
			t.Errorf("%s: decoded %d artifacts, want only the untouched second one", name, len(arts))
		}
	}
}

// TestSegmentCorpus keeps the fuzz target's committed seed corpus — the
// segment above, truncations of it and the narrowFieldSeeds — in step with
// the encoding: a file
// that is missing is written, one that differs fails.
func TestSegmentCorpus(t *testing.T) {
	_, seg := codecSegment(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSegment")
	corpus := map[string][]byte{
		"segment":            seg,
		"segment-cut-header": seg[:12],
		"segment-cut-1of4":   seg[:len(seg)/4],
		"segment-cut-2of4":   seg[:len(seg)/2],
		"segment-cut-3of4":   seg[:3*len(seg)/4],
		"segment-cut-tail":   seg[:len(seg)-1],
	}
	for name, data := range narrowFieldSeeds(t, seg) {
		corpus[name] = data
	}
	for name, data := range corpus {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		got, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			if err := os.MkdirAll(dir, 0o777); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o666); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s is not today's encoding of the seed segment; delete it and run this test again to regenerate it", path)
		}
	}
}

// FuzzDecodeSegment: arbitrary bytes never panic the decoder, and whatever it
// accepts meets the codec's contract. Seeds: testdata/fuzz (see
// TestSegmentCorpus).
func FuzzDecodeSegment(f *testing.F) {
	progFP, _ := codecSegment(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, arts, err := decodeSegment(progFP, data, 1)
		if err == nil {
			checkDecoded(t, progFP, hdr, arts)
		}
	})
}

// frameStarts returns where each artifact's frame content begins in seg.
func frameStarts(seg []byte) []int {
	r := wirebin.NewReader(seg[len(segMagic):])
	r.Int()
	r.Str()
	r.Varint()
	starts := make([]int, r.Int())
	for i := range starts {
		n := r.Frame().Rest()
		starts[i] = len(seg) - r.Rest() - n
	}
	return starts
}

// TestSegmentCodecParallelEquivalence: the worker count is not part of the
// format. The parent's store-v5 fixture and a segment of several chunks decode
// at any worker count to artifacts that encode, at any worker count, to the
// bytes they came from; and of two frames whose streams are broken, the error
// names the lower one however many workers ran.
func TestSegmentCodecParallelEquivalence(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "store-v5", "store.log"))
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
	fixture, ok, err := st.Get(store.NSArtifact, segFullKey)
	if err != nil || !ok {
		t.Fatalf("fixture holds no full segment: ok=%v err=%v", ok, err)
	}
	hr := wirebin.NewReader(fixture[len(segMagic):])
	hr.Int()
	fixtureFP := hr.Str()

	s := NewSession(BuildOptions{Workers: 2, Store: openStore(t)})
	gen := workload.Generate(
		workload.Subject{Name: "ladder", Origin: "synthetic", PaperKLoC: 60, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1})
	if _, err := s.Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	if len(s.tab.ids) < 3*encodeChunk {
		t.Fatalf("%d functions do not fill three chunks", len(s.tab.ids))
	}
	ladderFP := s.shape.fp
	ladder, err := encodeSegment(ladderFP, 3, s.tab.ids, s.arts, 1)
	if err != nil {
		t.Fatal(err)
	}

	counts := []int{1, 2, 3, 8}
	for _, tc := range []struct {
		name, fp string
		seg      []byte
	}{{"fixture", fixtureFP, fixture}, {"ladder", ladderFP, ladder}} {
		for _, dw := range counts {
			hdr, arts, err := decodeSegment(tc.fp, tc.seg, dw)
			if err != nil || len(arts) != hdr.Count {
				t.Fatalf("%s: decoding at %d workers yields %d of %d artifacts: %v", tc.name, dw, len(arts), hdr.Count, err)
			}
			ids := make([]int32, len(arts))
			for i := range ids {
				ids[i] = int32(i)
			}
			for _, ew := range counts {
				got, err := encodeSegment(tc.fp, hdr.Seq, ids, arts, ew)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, tc.seg) {
					t.Fatalf("%s: decoded at %d workers and encoded at %d, %d bytes differ from the segment's %d", tc.name, dw, ew, len(got), len(tc.seg))
				}
			}
		}
	}

	// An over-long string length where an artifact's AST hash begins breaks
	// that frame's stream, which discards the segment.
	starts := frameStarts(ladder)
	lo, hi := encodeChunk-1, 2*encodeChunk+5
	broken := bytes.Clone(ladder)
	for _, i := range []int{lo, hi} {
		copy(broken[starts[i]:], []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	}
	want := fmt.Sprintf("segment entry %d:", lo)
	for _, workers := range counts {
		_, arts, err := decodeSegment(ladderFP, broken, workers)
		if err == nil || arts != nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("at %d workers the broken segment yields %d artifacts and %v, want %q", workers, len(arts), err, want)
		}
	}
}
