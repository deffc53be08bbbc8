package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/conc"
	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/modref"
	"repro/internal/obs"
	"repro/internal/seg"
	"repro/internal/store"
	"repro/internal/wirebin"
)

// Persistence of funcArtifacts. An artifact is what a session keeps of a
// function once its SEG stands, and nothing more: the session's own
// fingerprints, Mod/Ref summary and size counters, the function's shell, and
// its condition builder and SEG, written by their packages' codecs (cond,
// seg), in the wirebin layout: a flat length-prefixed format that each codec
// writes from, and reads into, the analysis objects themselves, validating
// as it reads.
//
// Artifacts persist in *segments*: one record holding many artifacts on a
// single stream, instead of one record per function, so per-record store
// and framing overhead is amortized across the whole program.
//
// The layout under store.NSArtifact:
//
//   - "!full"      — a full snapshot segment: every artifact of the program.
//   - "!delta-NN"  — a bounded ring (NN in 00..15) of delta segments, each
//     holding only the artifacts one commit changed.
//
// Every segment carries a monotonically increasing sequence number; a
// warm load reads all present segments and keeps, per function, the
// version from the highest-sequence segment. Commit appends a delta for
// small change sets and rewrites "!full" when the ring is exhausted or
// more than half the program changed, which also re-bases the ring (later
// full supersedes earlier deltas by sequence; the store's last-writer-wins
// index bounds dead bytes to one live record per key).
//
// A segment is the magic, a header (codec version, program-shape
// fingerprint, sequence number, artifact count) and one wirebin frame per
// artifact. A segment from a different program shape or codec version, or
// whose stream is corrupt, decodes to a miss for everything in it; an
// artifact whose content fails a codec's validation is a miss alone — its
// frame says where the next one starts. Corruption costs a rebuild, never a
// wrong artifact.

// artifactCodecVersion gates decoding: bump on any format change so old
// records read as misses instead of garbage. Version 6 writes no SSA info or
// points-to result, and of a function's body what its SEG holds: the records
// and lists detection reads, not the blocks. Version 7 writes the SEG
// finished: every value's vertex, and each block's control-dependence
// condition and reachability row. Version 8 writes the same parts with the
// IDs lowering now gives: values and SSA versions numbered in creation
// order, no ID kept for a variable or a dead φ, so a body read from an older
// version would not be the one a build makes.
const artifactCodecVersion = 8

// segMagic opens every segment record, so foreign bytes fail fast before
// any field decoding.
const segMagic = "ppsg"

// Segment keys and ring bound. Keys start with '!' so they can never
// collide with a function name (identifiers cannot contain '!').
const (
	segFullKey       = "!full"
	segDeltaPrefix   = "!delta-"
	maxDeltaSegments = 16
)

func segDeltaKey(slot int) string { return fmt.Sprintf("%s%02d", segDeltaPrefix, slot) }

// segmentHeader opens every segment stream.
type segmentHeader struct {
	Version int
	ProgFP  string
	Seq     int64
	Count   int
}

// encodeSummary appends a Mod/Ref summary: its paths in canonical order,
// each with its Ref and Mod flags.
func encodeSummary(e *wirebin.Writer, sum *modref.Summary) {
	e.Bool(sum != nil)
	if sum == nil {
		return
	}
	paths := sum.Paths()
	sort.Slice(paths, func(i, j int) bool {
		a, b := paths[i], paths[j]
		if a.Root.Param != b.Root.Param {
			return a.Root.Param < b.Root.Param
		}
		if a.Root.Global != b.Root.Global {
			return a.Root.Global < b.Root.Global
		}
		return a.Depth < b.Depth
	})
	e.Uvarint(uint64(len(paths)))
	for _, p := range paths {
		e.Int(p.Root.Param)
		e.Sym(p.Root.Global)
		e.Int(p.Depth)
		e.Bool(sum.Refs(p))
		e.Bool(sum.Mods(p))
	}
}

func decodeSummary(r *wirebin.Reader) *modref.Summary {
	if !r.Bool() {
		return nil
	}
	sum := modref.NewSummary()
	for n := r.Len(); n > 0; n-- {
		var p modref.Path
		p.Root.Param, p.Root.Global, p.Depth = r.Int(), r.Sym(), r.Int()
		if r.Bool() {
			sum.AddRef(p)
		}
		if r.Bool() {
			sum.AddMod(p)
		}
	}
	return sum.Settled()
}

// summaryFingerprint is the persisted form of funcArtifact.sumFP: the text
// the digest was taken of, which the summary itself renders.
func summaryFingerprint(sum *modref.Summary) string {
	if sum == nil {
		return ""
	}
	return sum.Fingerprint()
}

// encodeArtifact appends art: the session's fingerprints and counters, the
// function's shell, its condition builder and its SEG, each in the order it
// is needed to decode the next.
func encodeArtifact(e *wirebin.Writer, art *funcArtifact) error {
	e.Str(art.astHash.String())
	e.Str(summaryFingerprint(art.sum))
	e.Str(art.sigFP)
	e.Str(art.depFP.String())
	encodeSummary(e, art.sum)
	for _, n := range art.sizes[2:] {
		e.Int(int(n))
	}
	ir.EncodeFunc(e, art.fn)
	if err := cond.EncodeBuilder(e, art.seg.Conds()); err != nil {
		return fmt.Errorf("artifact %s: %w", art.fn.Name, err)
	}
	seg.EncodeGraph(e, art.seg)
	return nil
}

// decodeArtifact reads one artifact from its frame. An error leaves r either
// failed (the stream is corrupt) or not (the content is not a genuine
// artifact's); callers treat both as a store miss and rebuild.
func decodeArtifact(r *wirebin.Reader) (*funcArtifact, error) {
	art := &funcArtifact{persisted: true}
	astHash, sumFP, sigFP, depFP := r.Str(), r.Str(), r.Str(), r.Str()
	var okAst, okDep bool
	art.astHash, okAst = parseAstKey(astHash)
	art.depFP, okDep = parseDigest(depFP)
	if !okAst || !okDep {
		return nil, r.Errorf("artifact: malformed fingerprints %q, %q", astHash, depFP)
	}
	art.sumFP, art.sigFP = digestOf([]byte(sumFP)), sigFP
	art.sum = decodeSummary(r)
	for i := 2; i < len(art.sizes); i++ {
		art.sizes[i] = int32(r.Int())
	}
	f, params, err := ir.DecodeFunc(r)
	if err != nil {
		return nil, err
	}
	conds, err := cond.DecodeBuilder(r)
	if err != nil {
		return nil, err
	}
	g, err := seg.DecodeGraph(r, f, conds)
	if err != nil {
		return nil, err
	}
	if len(g.Params()) != len(params) {
		return nil, fmt.Errorf("artifact %s: %d parameters, its SEG has %d", g.Name(), len(params), len(g.Params()))
	}
	// The shell's names are the graph's symbols, and the trailing parameters
	// are the aux ones.
	f.Name, f.Pos.File = g.Name(), g.File()
	for i, p := range g.Params() {
		f.AddShellParam(p, params[i], i >= len(params)-len(f.AuxIn))
	}
	art.fn, art.seg, art.sizes[0], art.sizes[1] = f, g, int32(f.NumInstrs()), 1
	if r.Rest() != 0 {
		return nil, fmt.Errorf("artifact %s: %d bytes left in its frame", f.Name, r.Rest())
	}
	return art, nil
}

// encodeChunk is how many artifacts one worker encodes at a stretch: enough
// to amortize the hand-out, few enough that a worker's buffer stays small.
const encodeChunk = 64

// encodeSegment bundles the artifacts of the functions ids into one segment
// record. Frames do not depend on one another, so chunks of them are encoded
// on up to workers goroutines, each chunk kept at exactly its size, and laid
// end to end, in the order of ids, in a buffer of exactly the record's size:
// the bytes are the same at every worker count.
func encodeSegment(progFP string, seq int64, ids []int32, arts []*funcArtifact, workers int) ([]byte, error) {
	var hdr wirebin.Writer
	hdr.B = append(hdr.B, segMagic...)
	hdr.Int(artifactCodecVersion)
	hdr.Str(progFP)
	hdr.Varint(seq)
	hdr.Int(len(ids))

	chunks := make([][]byte, (len(ids)+encodeChunk-1)/encodeChunk)
	scratch := make([]wirebin.Writer, conc.Workers(workers)) // one per worker, reused chunk after chunk
	if err := conc.ForEach(len(chunks), workers, func(w, c int) error {
		e := &scratch[w]
		e.B = e.B[:0]
		for _, id := range ids[c*encodeChunk : min((c+1)*encodeChunk, len(ids))] {
			frame := e.Begin()
			if err := encodeArtifact(e, arts[id]); err != nil {
				return err
			}
			e.End(frame)
		}
		chunks[c] = bytes.Clone(e.B)
		return nil
	}); err != nil {
		return nil, err
	}
	size := len(hdr.B)
	for _, b := range chunks {
		size += len(b)
	}
	out := append(make([]byte, 0, size), hdr.B...)
	for _, b := range chunks {
		out = append(out, b...)
	}
	return out, nil
}

// decodeFrames reads count frames off r: one serial pass cuts them, then up
// to workers goroutines decode them, each through a reader of its own. out[i]
// is the zero T where decode rejected frame i's content, which costs that
// frame alone. A stream error — in the framing, or inside a frame — fails the
// whole call: a framing error is reported first, else the error of the lowest
// frame that has one, whatever the worker count.
func decodeFrames[T any](r *wirebin.Reader, count, workers int, what string, decode func(*wirebin.Reader) (T, error)) ([]T, error) {
	// A frame is at least its four-byte length.
	if count < 0 || count > r.Rest()/4 {
		return nil, fmt.Errorf("%s: implausible entry count %d", what, count)
	}
	frames := make([]*wirebin.Reader, count)
	for i := range frames {
		frames[i] = r.Frame()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%s entry %d: %w", what, i, err)
		}
	}
	out := make([]T, count)
	err := conc.ForEach(count, workers, func(_, i int) error {
		v, err := decode(frames[i])
		if serr := frames[i].Err(); serr != nil {
			return fmt.Errorf("%s entry %d: %w", what, i, serr)
		}
		if err == nil {
			out[i] = v
		}
		return nil
	})
	return out, err
}

// decodeSegment rebuilds a segment's artifacts, in the segment's order. Any
// header mismatch or stream error discards the whole segment (callers treat
// the error as a miss for everything in it); an artifact whose content a
// codec rejects is skipped individually.
func decodeSegment(progFP string, data []byte, workers int) (segmentHeader, []*funcArtifact, error) {
	var hdr segmentHeader
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return hdr, nil, fmt.Errorf("segment: bad magic")
	}
	r := wirebin.NewReader(data[len(segMagic):])
	hdr.Version = r.Int()
	hdr.ProgFP = r.Str()
	hdr.Seq = r.Varint()
	hdr.Count = r.Int()
	if err := r.Err(); err != nil {
		return hdr, nil, fmt.Errorf("segment header: %w", err)
	}
	if hdr.Version != artifactCodecVersion {
		return hdr, nil, fmt.Errorf("segment: codec version %d, want %d", hdr.Version, artifactCodecVersion)
	}
	if hdr.ProgFP != progFP {
		return hdr, nil, fmt.Errorf("segment: program shape changed")
	}
	arts, err := decodeFrames(r, hdr.Count, workers, "segment", decodeArtifact)
	if err != nil {
		return hdr, nil, err
	}
	return hdr, slices.DeleteFunc(arts, func(art *funcArtifact) bool { return art == nil }), nil
}

// segState is the segment-ring bookkeeping a warm load recovers and every
// commit advances.
type segState struct {
	next    int64 // next segment sequence number
	deltas  int   // delta slots written since the last full (= next slot)
	hasFull bool  // a full segment is known to be on disk
	// stale: the live segments hold an artifact under a name the program does
	// not define (its function was deleted or renamed). Only a full snapshot
	// takes it out of the store, so the next one is due now: stored facts are
	// checked against exactly the artifacts the store offers.
	stale bool
}

// loadSegments reads every artifact segment present in the store and
// merges them by sequence number (highest wins per function). It returns
// the merged artifact map plus the recovered ring state. Unreadable
// segments are counted and skipped — a corrupt segment is a miss for
// everything in it, never an error.
func loadSegments(st store.Store, progFP string, workers int, rec *obs.Recorder) (map[string]*funcArtifact, segState) {
	type loadedSeg struct {
		hdr   segmentHeader
		arts  []*funcArtifact
		delta bool
		slot  int
	}
	var segs []loadedSeg
	var readNs, decodeNs time.Duration
	read := func(key string, delta bool, slot int) {
		t0 := time.Now()
		data, ok, err := st.Get(store.NSArtifact, key)
		readNs += time.Since(t0)
		if err != nil || !ok {
			return
		}
		t0 = time.Now()
		hdr, arts, err := decodeSegment(progFP, data, workers)
		decodeNs += time.Since(t0)
		if err != nil {
			if rec != nil {
				rec.Counter("store.artifact.decode_errors").Inc()
			}
			return
		}
		segs = append(segs, loadedSeg{hdr: hdr, arts: arts, delta: delta, slot: slot})
	}
	read(segFullKey, false, -1)
	for i := 0; i < maxDeltaSegments; i++ {
		read(segDeltaKey(i), true, i)
	}
	if rec != nil {
		rec.Counter("store.read_ns").Add(int64(readNs))
		rec.Counter("store.decode_ns").Add(int64(decodeNs))
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].hdr.Seq < segs[j].hdr.Seq })

	out := make(map[string]*funcArtifact)
	var ring segState
	fullSeq := int64(-1)
	for _, sg := range segs {
		if !sg.delta {
			fullSeq, ring.hasFull = sg.hdr.Seq, true
		}
	}
	for _, sg := range segs {
		// A delta older than the full snapshot is a slot the ring has not
		// come round to again: the snapshot holds the whole program as of its
		// commit, so all such a delta can add is functions deleted by then.
		if !sg.delta || sg.hdr.Seq > fullSeq {
			for _, art := range sg.arts {
				out[art.fn.Name] = art
			}
		}
		if sg.hdr.Seq >= ring.next {
			ring.next = sg.hdr.Seq + 1
		}
	}
	// The next delta slot must not overwrite a slot still live since the
	// last full; resume one past the highest such slot.
	for _, sg := range segs {
		if sg.delta && sg.hdr.Seq > fullSeq && sg.slot+1 > ring.deltas {
			ring.deltas = sg.slot + 1
		}
	}
	return out, ring
}
