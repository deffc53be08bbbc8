package core

import (
	"fmt"
	"sort"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/modref"
	"repro/internal/obs"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/ssa"
	"repro/internal/store"
	"repro/internal/wirebin"
)

// Serialization of funcArtifacts for the persistent store. The wire form
// composes the per-package codecs (cond, ir, ssa, pta, seg) plus the
// session's own fingerprints, encoded with the wirebin binary layout —
// a flat length-prefixed format the per-package codecs read with a linear
// scan. The first cut of this file used encoding/gob; it lost a cold-vs-
// warm benchmark race twice over, first re-transmitting the type graph and
// recompiling decode engines per record, then (with records bundled into
// segments) spending the warm window inside reflective struct decoding.
// The hand-rolled codec decodes the same segments several-fold faster and
// packs them tighter on disk.
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
// A segment from a different program shape, codec version, or with a
// corrupt stream decodes to a miss for everything in it; corruption costs
// a rebuild, never a wrong artifact — the same contract the per-function
// records had.

// artifactCodecVersion gates decoding: bump on any wire-format change so
// old records read as misses instead of garbage. Version 3 is the wirebin
// binary layout (version 2 was the same segment scheme gob-encoded);
// version-1 per-function records are simply never read (their keys are
// plain function names, which the segment loader does not consult).
// Version 4 drops the callee names and adds the SEG value-vertex count.
const artifactCodecVersion = 4

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

// pathFlagWire is one Mod/Ref summary entry in canonical order.
type pathFlagWire struct {
	Path modref.Path
	Ref  bool
	Mod  bool
}

type artifactWire struct {
	Version int
	ProgFP  string
	Name    string
	AstHash string
	SumFP   string
	SigFP   string
	DepFP   string
	HasSum  bool
	Sum     []pathFlagWire
	Conds   []cond.NodeWire
	Fn      *ir.FuncWire
	Info    *ssa.InfoWire
	PTA     *pta.ResultWire
	SEG     *seg.GraphWire

	SegNodes      int
	SegValueNodes int
	SegEdges      int
	CondNodes     int
	PTAStats      pta.Stats
}

func exportSummary(sum *modref.Summary) (bool, []pathFlagWire) {
	if sum == nil {
		return false, nil
	}
	set := make(map[modref.Path]bool, len(sum.Ref)+len(sum.Mod))
	for p := range sum.Ref {
		set[p] = true
	}
	for p := range sum.Mod {
		set[p] = true
	}
	paths := make([]modref.Path, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
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
	out := make([]pathFlagWire, len(paths))
	for i, p := range paths {
		out[i] = pathFlagWire{Path: p, Ref: sum.Ref[p], Mod: sum.Mod[p]}
	}
	return true, out
}

func importSummary(has bool, ws []pathFlagWire) *modref.Summary {
	if !has {
		return nil
	}
	sum := modref.NewSummary()
	for _, w := range ws {
		if w.Ref {
			sum.Ref[w.Path] = true
		}
		if w.Mod {
			sum.Mod[w.Path] = true
		}
	}
	return sum
}

// exportArtifactWire flattens art into its wire form.
func exportArtifactWire(name, progFP string, art *funcArtifact) (*artifactWire, error) {
	condsWire, err := art.info.Conds.Export()
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", name, err)
	}
	fnWire, _ := ir.ExportFunc(art.fn)
	w := &artifactWire{
		Version: artifactCodecVersion,
		ProgFP:  progFP,
		Name:    name,
		AstHash: art.astHash,
		SumFP:   art.sumFP,
		SigFP:   art.sigFP,
		DepFP:   art.depFP,
		Conds:   condsWire,
		Fn:      fnWire,
		Info:    ssa.ExportInfo(art.info),
		PTA:     pta.ExportResult(art.seg.PTA),
		SEG:     seg.ExportGraph(art.seg),

		SegNodes:      art.sizes.segNodes,
		SegValueNodes: art.sizes.segValueNodes,
		SegEdges:      art.sizes.segEdges,
		CondNodes:     art.sizes.condNodes,
		PTAStats:      art.sizes.pta,
	}
	w.HasSum, w.Sum = exportSummary(art.sum)
	return w, nil
}

func appendPathFlags(e *wirebin.Writer, ws []pathFlagWire) {
	e.Uvarint(uint64(len(ws)))
	for i := range ws {
		w := &ws[i]
		e.Int(w.Path.Root.Param)
		e.Str(w.Path.Root.Global)
		e.Int(w.Path.Depth)
		e.Bool(w.Ref)
		e.Bool(w.Mod)
	}
}

func decodePathFlags(r *wirebin.Reader) []pathFlagWire {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]pathFlagWire, n)
	for i := range out {
		w := &out[i]
		w.Path.Root.Param = r.Int()
		w.Path.Root.Global = r.Str()
		w.Path.Depth = r.Int()
		w.Ref = r.Bool()
		w.Mod = r.Bool()
	}
	return out
}

func appendArtifactWire(e *wirebin.Writer, w *artifactWire) {
	e.Str(w.Name)
	e.Str(w.AstHash)
	e.Str(w.SumFP)
	e.Str(w.SigFP)
	e.Str(w.DepFP)
	e.Bool(w.HasSum)
	appendPathFlags(e, w.Sum)
	cond.AppendNodeWires(e, w.Conds)
	w.Fn.AppendWire(e)
	w.Info.AppendWire(e)
	w.PTA.AppendWire(e)
	w.SEG.AppendWire(e)
	e.Int(w.SegNodes)
	e.Int(w.SegValueNodes)
	e.Int(w.SegEdges)
	e.Int(w.CondNodes)
	e.Int(w.PTAStats.GuardsPruned)
	e.Int(w.PTAStats.GuardsKept)
	e.Int(w.PTAStats.CapWidened)
	e.Int(w.PTAStats.LinearQueries)
	e.Int(w.PTAStats.LinearUnsat)
}

func decodeArtifactWire(r *wirebin.Reader) (*artifactWire, error) {
	w := &artifactWire{Version: artifactCodecVersion}
	w.Name = r.Str()
	w.AstHash = r.Str()
	w.SumFP = r.Str()
	w.SigFP = r.Str()
	w.DepFP = r.Str()
	w.HasSum = r.Bool()
	w.Sum = decodePathFlags(r)
	var err error
	if w.Conds, err = cond.DecodeNodeWires(r); err != nil {
		return nil, err
	}
	if w.Fn, err = ir.DecodeFuncWire(r); err != nil {
		return nil, err
	}
	if w.Info, err = ssa.DecodeInfoWire(r); err != nil {
		return nil, err
	}
	if w.PTA, err = pta.DecodeResultWire(r); err != nil {
		return nil, err
	}
	if w.SEG, err = seg.DecodeGraphWire(r); err != nil {
		return nil, err
	}
	w.SegNodes = r.Int()
	w.SegValueNodes = r.Int()
	w.SegEdges = r.Int()
	w.CondNodes = r.Int()
	w.PTAStats.GuardsPruned = r.Int()
	w.PTAStats.GuardsKept = r.Int()
	w.PTAStats.CapWidened = r.Int()
	w.PTAStats.LinearQueries = r.Int()
	w.PTAStats.LinearUnsat = r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return w, nil
}

// encodeSegment bundles the artifacts of the functions ids into one segment
// record: a magic-prefixed header followed by Count artifactWire encodings.
func encodeSegment(progFP string, seq int64, ids []int32, arts []*funcArtifact) ([]byte, error) {
	e := &wirebin.Writer{B: make([]byte, 0, 64<<10)}
	e.B = append(e.B, segMagic...)
	e.Int(artifactCodecVersion)
	e.Str(progFP)
	e.Varint(seq)
	e.Int(len(ids))
	for _, id := range ids {
		w, err := exportArtifactWire(arts[id].fn.Name, progFP, arts[id])
		if err != nil {
			return nil, err
		}
		appendArtifactWire(e, w)
	}
	return e.B, nil
}

// namedArtifact is one decoded segment entry.
type namedArtifact struct {
	name string
	art  *funcArtifact
}

// decodeSegment rebuilds a segment's artifacts. Any header mismatch or
// stream error discards the whole segment (callers treat the error as a
// miss for everything in it); an artifact that decodes but fails semantic
// import is skipped individually.
func decodeSegment(progFP string, data []byte) (segmentHeader, []namedArtifact, error) {
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
	if hdr.Count < 0 || hdr.Count > r.Rest() {
		return hdr, nil, fmt.Errorf("segment: implausible artifact count %d", hdr.Count)
	}
	out := make([]namedArtifact, 0, hdr.Count)
	for i := 0; i < hdr.Count; i++ {
		w, err := decodeArtifactWire(r)
		if err != nil {
			return hdr, nil, fmt.Errorf("segment entry %d: %w", i, err)
		}
		w.ProgFP = progFP
		art, err := importArtifact(w, progFP)
		if err != nil {
			continue
		}
		out = append(out, namedArtifact{name: w.Name, art: art})
	}
	return hdr, out, nil
}

// importArtifact rebuilds a funcArtifact from its wire form. A record for
// a different program shape or with missing pieces returns an error;
// callers treat every error as a store miss and rebuild.
func importArtifact(w *artifactWire, progFP string) (*funcArtifact, error) {
	name := w.Name
	if w.ProgFP != progFP {
		return nil, fmt.Errorf("artifact %s: program shape changed", name)
	}
	if w.Fn == nil || w.Info == nil || w.PTA == nil || w.SEG == nil {
		return nil, fmt.Errorf("artifact %s: incomplete record", name)
	}
	b, nodes, err := cond.ImportBuilder(w.Conds)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", name, err)
	}
	f, ix, err := ir.ImportFunc(w.Fn)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", name, err)
	}
	if f.Name != name {
		return nil, fmt.Errorf("artifact %s: function names %q", name, f.Name)
	}
	inf, err := ssa.ImportInfo(w.Info, f, ix, b, nodes)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", name, err)
	}
	pr, err := pta.ImportResult(w.PTA, f, inf, ix, nodes)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", name, err)
	}
	g, err := seg.ImportGraph(w.SEG, f, inf, pr, ix, nodes)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", name, err)
	}
	return &funcArtifact{
		astHash: w.AstHash,
		sumFP:   w.SumFP,
		sigFP:   w.SigFP,
		depFP:   w.DepFP,
		sum:     importSummary(w.HasSum, w.Sum),
		fn:      f,
		info:    inf,
		seg:     g,
		sizes: artifactSizes{
			instrs:        f.NumInstrs(),
			segNodes:      w.SegNodes,
			segValueNodes: w.SegValueNodes,
			segEdges:      w.SegEdges,
			condNodes:     w.CondNodes,
			pta:           w.PTAStats,
		},
		persisted: true,
	}, nil
}

// segState is the segment-ring bookkeeping a warm load recovers and every
// commit advances.
type segState struct {
	next    int64 // next segment sequence number
	deltas  int   // delta slots written since the last full (= next slot)
	hasFull bool  // a full segment is known to be on disk
}

// loadSegments reads every artifact segment present in the store and
// merges them by sequence number (highest wins per function). It returns
// the merged artifact map plus the recovered ring state. Unreadable
// segments are counted and skipped — a corrupt segment is a miss for
// everything in it, never an error.
func loadSegments(st store.Store, progFP string, rec *obs.Recorder) (map[string]*funcArtifact, segState) {
	type loadedSeg struct {
		hdr   segmentHeader
		arts  []namedArtifact
		delta bool
		slot  int
	}
	var segs []loadedSeg
	read := func(key string, delta bool, slot int) {
		data, ok, err := st.Get(store.NSArtifact, key)
		if err != nil || !ok {
			return
		}
		hdr, arts, err := decodeSegment(progFP, data)
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
	sort.Slice(segs, func(i, j int) bool { return segs[i].hdr.Seq < segs[j].hdr.Seq })

	out := make(map[string]*funcArtifact)
	var ring segState
	fullSeq := int64(-1)
	for _, sg := range segs {
		if !sg.delta {
			fullSeq, ring.hasFull = sg.hdr.Seq, true
		}
		for _, na := range sg.arts {
			out[na.name] = na.art
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
