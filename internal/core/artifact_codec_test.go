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
	"repro/internal/seg"
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

// openStore opens a store in a fresh directory.
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
// contract: the artifacts encode to a segment that decodes to the same
// artifacts (compared through their encoding, which is canonical), and every
// graph answers what detection asks of it.
func checkDecoded(t testing.TB, progFP string, hdr segmentHeader, arts []*funcArtifact) {
	t.Helper()
	first := reencode(t, progFP, hdr, arts)
	hdr2, arts2, err := decodeSegment(progFP, first, 1)
	if err != nil || len(arts2) != len(arts) || hdr2.Seq != hdr.Seq {
		t.Fatalf("re-encoded segment decodes to %d of %d artifacts: %v", len(arts2), len(arts), err)
	}
	if second := reencode(t, progFP, hdr2, arts2); !bytes.Equal(first, second) {
		t.Fatal("a decoded artifact changed across an encode/decode round trip")
	}
	for _, art := range arts {
		answersDetection(art.fn, art.seg)
	}
}

// answersDetection calls every accessor detection calls on g, the graph of
// shell f, for every instruction, value, block and vertex it holds; a graph
// the decoder should have refused panics. The value vertex of every
// parameter, operand, receiver and Dst must be there: detection looks them
// up, and creates none.
func answersDetection(f *ir.Func, g *seg.Graph) {
	g.Order()
	g.RetArgs()
	for v := int32(0); int(v) < f.NumValues(); v++ {
		g.Value(v).ParamIdx()
		g.ValueName(v)
		g.ValueString(v)
		g.IntVal(v)
		g.AtomValue(int(v))
		g.ValueNode(v)
	}
	vertex := func(v int32) {
		if v >= 0 {
			g.Node(g.ValueNode(v))
		}
	}
	for _, p := range g.Params() {
		vertex(p)
	}
	for _, in := range g.Order() {
		for _, a := range g.Args(in) {
			vertex(a)
		}
		for _, d := range g.Dsts(in) {
			vertex(d)
		}
		vertex(g.In(in).Dst)
	}
	for b := int32(0); int(b) < f.NumBlocks(); b++ {
		g.CDeps(b)
	}
	// An instruction of each block that holds one, to read every
	// reachability row from each.
	var ofBlock []int32
	seen := make([]bool, f.NumBlocks())
	for in := int32(0); int(in) < f.NumInstrs(); in++ {
		if b := g.In(in).Block; b >= 0 && !seen[b] {
			seen[b] = true
			ofBlock = append(ofBlock, in)
		}
	}
	for in := int32(0); int(in) < f.NumInstrs(); in++ {
		r := g.In(in)
		if r.Block < 0 {
			continue // no instruction holds the ID
		}
		g.Args(in)
		g.Dsts(in)
		g.Callee(in)
		g.Position(in)
		g.CD(in)
		for _, other := range ofBlock {
			g.HappensAfter(in, other)
		}
		switch r.Op {
		case ir.OpPhi:
			for i := range g.Args(in) {
				g.Gate(in, i)
			}
		case ir.OpLoad:
			srcs := g.LoadSources(in)
			for i := 1; i < len(srcs); i += 2 {
				g.Conds().Node(srcs[i])
			}
		}
	}
	for n := int32(0); int(n) < g.NumNodes(); n++ {
		g.NodeString(n)
		for _, e := range g.Succs(n) {
			g.Cond(e)
			g.Node(e.To)
		}
	}
	g.Dot()
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

// A narrowSeed is a copy of the seed segment whose first artifact holds a
// number the in-memory records have no room for, or an ID past the space it
// names, and the error that artifact must decode to.
type narrowSeed struct {
	data []byte
	want string
}

// segParts is the number of parts of a SEG's int32 array, as its codec
// writes their lengths.
const segParts = 13

// narrowFieldSeeds are the narrowSeeds: a position or an ID space wider than
// its field (the fields that were narrowed when the records were compacted),
// an aux parameter rooted at no parameter, and a SEG record's ID past the
// space it reads it in (the function's values or instructions, its Builder's
// conditions).
func narrowFieldSeeds(t testing.TB, data []byte) map[string]narrowSeed {
	toShell := func(r *wirebin.Reader) { // over the session's fields to the function's shell
		r.Str()
		r.Str()
		r.Str()
		r.Str()
		decodeSummary(r)
		for range 9 { // the size counters
			r.Int()
		}
	}
	toType := func(r *wirebin.Reader) {
		if _, err := ir.DecodeType(r); err != nil {
			t.Fatal(err)
		}
	}
	toLine := func(r *wirebin.Reader) {
		toShell(r)
		toType(r) // the return type
		r.Int()   // unit
	}
	toValues := func(r *wirebin.Reader) {
		toLine(r)
		r.Int()
		r.Int() // line and column
	}
	toFirstAuxIn := func(r *wirebin.Reader) {
		toValues(r)
		r.Int()
		r.Int()
		r.Int()                        // the ID-space sizes
		for n := r.Len(); n > 0; n-- { // the parameters' types
			toType(r)
		}
		if r.Len() == 0 {
			t.Fatal("the seed artifact has no aux parameter")
		}
	}
	// toVertices steps over the artifact to its SEG's vertices and reads
	// their count; fn and conds are the shell and the conditions it holds.
	var fn *ir.Func
	var conds *cond.Builder
	toVertices := func(r *wirebin.Reader) int {
		toShell(r)
		f, _, err := ir.DecodeFunc(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cond.DecodeBuilder(r)
		if err != nil {
			t.Fatal(err)
		}
		fn, conds = f, b
		for n := r.Len(); n > 0; n-- { // the instruction records
			for range 6 {
				r.Varint()
			}
			r.Uvarint()
			r.U8()
			r.U8()
		}
		for n := r.Len(); n > 0; n-- { // the value records
			for range 3 {
				r.Varint()
			}
			r.U8()
			r.U8()
		}
		r.Str() // the symbols
		ints := 0
		for range segParts {
			ints += r.Len()
		}
		for range ints + 1 { // the parts and the return operand count
			r.Varint()
		}
		return r.Len()
	}
	start, end := firstFrame(data)
	toVertices(wirebin.NewReader(data[start:end]))
	return map[string]narrowSeed{
		"segment-wide-line":      {poke(t, data, 1<<40, toLine), "bad position"},
		"segment-wide-value-id":  {poke(t, data, 1<<32, toValues), "values"},
		"segment-negative-param": {poke(t, data, -2, toFirstAuxIn), "bad aux spec"},
		"segment-wide-operand": {poke(t, data, 1<<32, func(r *wirebin.Reader) {
			toVertices(r) // then the first vertex up to its operand index
			r.U8()
			r.U8()
			r.I32()
			r.I32()
		}), "wider than its record's"},
		"segment-vertex-value-past-function": {poke(t, data, int64(fn.NumValues()), func(r *wirebin.Reader) {
			toVertices(r) // then the first vertex up to its value
			r.U8()
			r.U8()
		}), "bad value id"},
		"segment-vertex-instr-past-function": {poke(t, data, int64(fn.NumInstrs()), func(r *wirebin.Reader) {
			toVertices(r) // then the first vertex up to its instruction
			r.U8()
			r.U8()
			r.I32()
		}), "bad instr id"},
		"segment-edge-cond-past-builder": {poke(t, data, int64(conds.NumNodes()), func(r *wirebin.Reader) {
			for n := toVertices(r); n > 0; n-- {
				r.U8()
				r.U8()
				r.I32()
				r.I32()
				r.I32()
			}
			r.Len() // the edge count, then the first edge up to its condition
			r.I32()
		}), "bad edge cond id"},
	}
}

// TestSegmentRejectsWhatDoesNotFit: an ID, position, parameter or operand
// index the compact records cannot hold costs its artifact — a miss, rebuilt
// from source — and neither truncates into a different artifact nor takes
// the rest of the segment with it.
func TestSegmentRejectsWhatDoesNotFit(t *testing.T) {
	progFP, data := codecSegment(t)
	for name, seed := range narrowFieldSeeds(t, data) {
		hdr, arts, err := decodeSegment(progFP, seed.data, 1)
		if err != nil || hdr.Count != 2 {
			t.Errorf("%s: the segment was discarded: %v", name, err)
			continue
		}
		if len(arts) != 1 || arts[0].fn.Name != "drive" {
			t.Errorf("%s: decoded %d artifacts, want only the untouched second one", name, len(arts))
		}
		start, end := firstFrame(seed.data)
		if _, err := decodeArtifact(wirebin.NewReader(seed.data[start:end])); err == nil || !strings.Contains(err.Error(), seed.want) {
			t.Errorf("%s: the first artifact decodes to %v, want an error about %q", name, err, seed.want)
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
	for name, seed := range narrowFieldSeeds(t, seg) {
		corpus[name] = seed.data
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
// format. The store-v7 fixture and a segment of several chunks decode
// at any worker count to artifacts that encode, at any worker count, to the
// bytes they came from; and of two frames whose streams are broken, the error
// names the lower one however many workers ran.
func TestSegmentCodecParallelEquivalence(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "store-v7", "store.log"))
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
