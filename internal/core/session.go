// Incremental artifact-based builds.
//
// A Session keeps the per-function outputs of every pipeline stage — the
// lowered, SSA-converted, connector-transformed function, its Mod/Ref
// summary, connector signature and SEG — as artifacts, and with them the
// program-level tables built over the functions: the units' facts, the
// function layout, the condensed AST call graph and the program shape.
//
// Update (build.go) is one driver over named stages — parse and facts,
// warm-load, plan, wavefront, commit, persist — each a function that reads
// what the stages before it wrote; the stages are also the partition of
// Timings. It rebuilds only what a change can reach:
//
//   - a unit is known by its facts (name, source, and per declaration the
//     signature, content hash and callee names), never by its AST: one whose
//     bytes are unchanged is not parsed, a function that must be lowered is
//     parsed alone, and no syntax tree outlives the wavefront;
//   - a function whose AST hash (structure, literals, positions, unit index)
//     is unchanged keeps its artifacts unless a dependency demands otherwise;
//   - Mod/Ref summaries are recomputed only for SCCs that contain an edited
//     function or call one whose summary changed;
//   - transform/PTA/SEG artifacts are keyed by the function's connector
//     signature plus its callees': an edited callee whose signature is
//     unchanged does not invalidate its callers (the early-cutoff firewall);
//   - the program-level tables are patched while the edit leaves them valid,
//     so that an Update looks only at the re-parsed units' functions and the
//     SCCs that can reach an edited one; otherwise they are rebuilt, which is
//     what the first Update does.
//
// A warm Update yields reports, witnesses and size statistics byte-identical
// to a from-scratch build. Nothing is committed until the whole Update has
// succeeded, and nothing reachable from an Analysis is modified by a later
// Update: tables are carried by copying the spine and overwriting the changed
// slots.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/store"
	"repro/internal/transform"
)

// ArtifactStats counts artifact-store outcomes of one Session.Update:
// Hits are functions whose artifacts were reused untouched, Misses are
// functions built for the first time, Invalidated are functions whose prior
// artifacts were discarded and rebuilt. Misses+Invalidated is the dirty
// frontier actually recomputed. StoreHits counts artifacts warm-loaded from
// the persistent store this Update (a subset of Hits unless a dependency
// change invalidated the loaded artifact anyway). Visited counts the
// functions the Update looked at at all — those of re-parsed units and those
// that can reach an edited function; the other Hits kept their artifacts
// unseen. It equals the function count when a program-level table had to be
// rebuilt.
type ArtifactStats struct {
	Hits        int
	Misses      int
	Invalidated int
	StoreHits   int
	Visited     int
	// UnitsParsed counts the translation units this Update parsed: those
	// whose bytes it did not know. UnitsLoaded counts the units it knew from
	// the store's facts records (a first Update's only).
	UnitsParsed int
	UnitsLoaded int
	// FuncsParsed counts the functions this Update parsed again, one by one,
	// to lower them: those of units it knew, or parsed and did not keep the
	// syntax tree of (see build.kept).
	FuncsParsed int
}

// digest is a SHA-256 cut to 12 bytes: what the session compares to decide
// that a function's AST, summary or dependencies are the ones an artifact was
// built from. It is kept as the bytes; the persisted form is its hex.
type digest [12]byte

func digestOf(b []byte) digest {
	sum := sha256.Sum256(b)
	return digest(sum[:len(digest{})])
}

func (d digest) String() string { return hex.EncodeToString(d[:]) }

func parseDigest(s string) (d digest, ok bool) {
	if len(s) != hex.EncodedLen(len(d)) {
		return d, false
	}
	_, err := hex.Decode(d[:], []byte(s))
	return d, err == nil
}

// astKey identifies a declaration's content and place: the AST hash
// (structure, literals, positions) and the unit index. Its persisted form is
// "<hex>#<unit>".
type astKey struct {
	sum  digest
	unit int32
}

func (k astKey) String() string { return k.sum.String() + "#" + strconv.Itoa(int(k.unit)) }

func parseAstKey(s string) (k astKey, ok bool) {
	hash, unit, found := strings.Cut(s, "#")
	n, err := strconv.ParseInt(unit, 10, 32)
	k.sum, ok = parseDigest(hash)
	k.unit = int32(n)
	return k, ok && found && err == nil && n >= 0 && strconv.Itoa(int(n)) == unit
}

// funcArtifact is the cached per-function build output, valid as long as
// its astHash and depFP match the current program. Apart from persisted an
// artifact is immutable once committed.
type funcArtifact struct {
	funcMeta
	seg   *seg.Graph
	sizes artifactSizes
	// persisted reports that the persistent store holds the artifact as it
	// is. A rebuilt artifact starts false, and so does the copy made when
	// the firewall refreshes a retained artifact's summary without a
	// rebuild.
	persisted bool
}

// funcMeta is what an artifact says of its function: the fingerprints that
// decide whether it stands, and what callers read — the summary, the
// signature and the function itself.
type funcMeta struct {
	astHash astKey // AST content hash + unit index
	sumFP   digest // of the Mod/Ref summary's fingerprint
	depFP   digest // of sigFP + callee sigFPs: transform/SEG validity key
	sigFP   string // connector signature fingerprint
	sum     *modref.Summary
	// fn is the lowered, SSA-converted, connector-transformed function —
	// its interface: the SEG holds its body (ir.Func.ReleaseBody). Detection
	// reads the SEG only.
	fn *ir.Func
}

// artifactSizes are one function's size counters (Functions is 1, so sums
// count functions), snapshotted right after its build: detection later grows
// cond nodes and SEG value nodes in place, so live recounts of retained
// artifacts would drift from a cold build's numbers. An artifact keeps them
// as int32s, in sizeTotals.counters order.
type artifactSizes [11]int32

// newArtifactSizes snapshots s and p.
func newArtifactSizes(s Sizes, p pta.Stats) artifactSizes {
	var z artifactSizes
	t := sizeTotals{s, p}
	for i, c := range t.counters() {
		z[i] = int32(*c)
	}
	return z
}

// ptaStats returns the points-to counters of z.
func (z *artifactSizes) ptaStats() pta.Stats {
	var t sizeTotals
	t.add(z, 1)
	return t.pta
}

// sizeTotals sums artifactSizes.
type sizeTotals struct {
	Sizes
	pta pta.Stats
}

// counters lists the counters: the instruction and function counts, then
// those an artifact persists, in their order on the wire.
func (z *sizeTotals) counters() [11]*int {
	return [...]*int{&z.Lines, &z.Functions, &z.SEGNodes, &z.SEGValueNodes, &z.SEGEdges, &z.CondNodes,
		&z.pta.GuardsPruned, &z.pta.GuardsKept, &z.pta.CapWidened, &z.pta.LinearQueries, &z.pta.LinearUnsat}
}

// add accumulates sign × o.
func (z *sizeTotals) add(o *artifactSizes, sign int) {
	for i, c := range z.counters() {
		*c += sign * int(o[i])
	}
}

// Session is an incremental analysis pipeline. Create one with NewSession,
// then call Update with the full set of translation units after every edit;
// unchanged functions are served from the artifact store.
type Session struct {
	opts BuildOptions

	// The committed state: what the last successful Update left, and the
	// next one patches where it can. All of it is private to the session
	// (the Analysis has its own tables), so commit updates it in place.
	files    map[string]*parsedUnit // latest parse per unit name
	units    []*parsedUnit          // the committed units, in order
	shape    *progShape
	tab      *funcTable
	arts     []*funcArtifact // by function ID
	totals   sizeTotals      // summed over arts
	analysis *Analysis
	stats    ArtifactStats // last Update's counters
	// store is the persistent artifact backing; nil means memory-only, and
	// nothing is ever encoded.
	store store.Store
	// Segment-ring bookkeeping for the persistent artifact store (see
	// artifact_codec.go). storeLoaded gates the one-time warm-load pass:
	// after the first successful Update the in-memory artifacts are the
	// authority and re-reading segments could only serve stale data.
	// unsaved lists the functions whose committed artifact the store does
	// not hold yet because a write failed; every Update retries them.
	storeLoaded bool
	ring        segState
	unsaved     []int32
	// oneShot marks the session behind a BuildFromSource without a store: it
	// is updated once and dropped, so no function's AST digest is ever
	// compared, and none is computed.
	oneShot bool
}

// NewSession returns an empty incremental session.
func NewSession(opts BuildOptions) *Session {
	return &Session{opts: opts, files: make(map[string]*parsedUnit), store: opts.Store}
}

// ArtifactStats reports the artifact-store counters of the last Update.
func (s *Session) ArtifactStats() ArtifactStats { return s.stats }

// ArtifactCount reports the number of per-function artifacts currently
// retained.
func (s *Session) ArtifactCount() int {
	if s.tab == nil {
		return 0
	}
	return len(s.tab.ids)
}

// UnitCount reports the number of translation units the session knows: those
// of the last successful Update, held as name, source and facts (no AST).
func (s *Session) UnitCount() int { return len(s.files) }

// Source turns one unit's bytes into the strings Update takes. Where the
// session already holds a unit of that name, it hands back its own name
// string, and its own source string when the bytes equal it: a caller that
// decodes units into a reused buffer then allocates only the sources that
// changed, and Update's comparison of an unchanged unit is between one
// string and itself.
func (s *Session) Source(name, src []byte) minic.NamedSource {
	pu := s.files[string(name)]
	switch {
	case pu == nil:
		return minic.NamedSource{Name: string(name), Src: string(src)}
	case pu.src == string(src):
		return minic.NamedSource{Name: pu.name, Src: pu.src}
	}
	return minic.NamedSource{Name: pu.name, Src: string(src)}
}

// ArtifactFingerprint digests the committed per-function artifact
// metadata (name, AST hash, summary/signature/dependency fingerprints)
// in declaration order. Two sessions that analyzed the same program —
// at any worker count, cold or warm — produce equal fingerprints; the
// build-determinism tests gate on this.
func (s *Session) ArtifactFingerprint() string {
	h := sha256.New()
	if s.tab != nil {
		for _, id := range s.tab.ids {
			art := s.arts[id]
			fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s\x00", art.fn.Name, art.astHash, summaryFingerprint(art.sum), art.sigFP, art.depFP)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Analysis returns the analysis committed by the last successful Update
// (nil before the first).
func (s *Session) Analysis() *Analysis { return s.analysis }

// parsedUnit is what the session keeps of one translation unit: its name,
// its source and its facts (see unit_facts.go) — not its AST. A unit whose
// source did not change costs an Update a byte comparison.
type parsedUnit struct {
	name, src string
	unitFacts
	// shape renders the unit's globals and struct layouts, its share of the
	// whole-program lowering inputs (see progShape).
	shape string
	// sum is the unit's digest, the key of its facts in the store; it is
	// computed only for a session that has one. stored reports that the
	// store's facts records hold the unit as it is.
	sum    digest
	stored bool
}

// astKey is the AST hash of the unit's k-th function when the unit stands at
// index unit: the content sum is a fact, the unit index part of the key.
func (pu *parsedUnit) astKey(k, unit int) astKey {
	return astKey{sum: pu.funcs[k].sum, unit: int32(unit)}
}

// pos is where the unit's k-th function is declared.
func (pu *parsedUnit) pos(k int) minic.Pos {
	return minic.Pos{File: pu.name, Line: int(pu.funcs[k].line), Col: int(pu.funcs[k].col)}
}

// progShape holds the whole-program inputs to lowering: every global (order,
// name, type) and every struct layout. Any change to them invalidates every
// artifact (rare, and cheap to detect: each unit renders its share at parse).
// Unit identity is deliberately absent — it is already part of each
// function's AST hash (unit index plus file-qualified positions), so adding
// or removing a translation unit invalidates only the functions it actually
// repositions.
type progShape struct {
	fp           string // digest of the units' shape renderings, in order
	structs      map[string][]minic.Param
	globalTypes  map[string]minic.Type
	globals      []*ir.Global
	globalByName map[string]*ir.Global
}

// shapeFP digests the units' shape renderings, in order.
func shapeFP(parsed []*parsedUnit) string {
	h := sha256.New()
	for _, pu := range parsed {
		h.Write([]byte(pu.shape))
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

func newProgShape(parsed []*parsedUnit) *progShape {
	sh := &progShape{
		fp:           shapeFP(parsed),
		structs:      make(map[string][]minic.Param),
		globalTypes:  make(map[string]minic.Type),
		globalByName: make(map[string]*ir.Global),
	}
	for _, pu := range parsed {
		for _, sd := range pu.structs {
			sh.structs[sd.name] = sd.fields
		}
		for _, g := range pu.globals {
			sh.globalTypes[g.Name] = g.Type
			ig := &ir.Global{Name: g.Name, Type: g.Type}
			sh.globals = append(sh.globals, ig)
			sh.globalByName[g.Name] = ig
		}
	}
	return sh
}

// funcTable is what the session knows of the program's functions as a set:
// which names are defined, in what order and under which IDs (the module's
// Layout), where each unit's declarations start, and the condensation of the
// AST-level call graph (name → defined callee names). It is immutable; an
// Update either finds it still valid or builds the next one.
type funcTable struct {
	lay   *ir.Layout
	names []string // in declaration order
	ids   []int32  // in declaration order
	// unitStart[u] is the declaration position of unit u's first function
	// (unitStart[len(units)] the number of functions).
	unitStart []int32
	// sccs lists the strongly connected components in bottom-up,
	// callee-first order, members by function ID; sccOf maps a function ID to
	// its component's index; callees and callers are the condensed graph's
	// edges in both directions.
	sccs    [][]int32
	sccOf   []int32
	callees modref.Graph
	callers modref.Graph
}

// locate returns the unit and the index within it of the declaration at
// position pos.
func (t *funcTable) locate(pos int32) (unit, k int) {
	unit = sort.Search(len(t.unitStart)-1, func(u int) bool { return t.unitStart[u+1] > pos })
	return unit, int(pos - t.unitStart[unit])
}

// retType returns what lowering asks of a called name: the return type of
// the function the parsed units define under it.
func (t *funcTable) retType(parsed []*parsedUnit) func(string) (minic.Type, bool) {
	return func(name string) (minic.Type, bool) {
		id := t.lay.ID(name)
		if id < 0 {
			return minic.Type{}, false
		}
		u, k := t.locate(int32(t.lay.Pos(id)))
		return parsed[u].ret(k), true
	}
}

// newFuncTable lays out the functions the parsed units declare and condenses
// their call graph. When prev declares the same names in the same order its
// Layout is kept; otherwise every name prev knows keeps its ID (retained
// functions carry it) and new names take the IDs no function holds.
func newFuncTable(parsed []*parsedUnit, prev *funcTable) (*funcTable, error) {
	t := &funcTable{unitStart: make([]int32, 0, len(parsed)+1)}
	n := 0
	for _, pu := range parsed {
		n += len(pu.funcs)
	}
	t.names = make([]string, 0, n)
	for _, pu := range parsed {
		t.unitStart = append(t.unitStart, int32(len(t.names)))
		for k := range pu.funcs {
			t.names = append(t.names, pu.funcs[k].name)
		}
	}
	t.unitStart = append(t.unitStart, int32(n))

	if prev != nil && slices.Equal(t.names, prev.names) {
		t.lay, t.names, t.ids = prev.lay, prev.names, prev.ids
	} else {
		t.ids = make([]int32, n)
		if prev == nil {
			for i := range t.ids {
				t.ids[i] = int32(i)
			}
		} else {
			held := make([]bool, prev.lay.NumIDs())
			for i, name := range t.names {
				id := prev.lay.ID(name)
				if t.ids[i] = int32(id); id >= 0 {
					held[id] = true
				}
			}
			free := 0
			for i, id := range t.ids {
				if id >= 0 {
					continue
				}
				for free < len(held) && held[free] {
					free++
				}
				t.ids[i] = int32(free)
				free++
			}
		}
		var a, b int
		if t.lay, a, b = ir.NewLayout(t.names, t.ids); t.lay == nil {
			ua, ka := t.locate(int32(a))
			ub, kb := t.locate(int32(b))
			return nil, fmt.Errorf("lower: duplicate function %q (at %s and %s)", t.names[a],
				parsed[ua].pos(ka), parsed[ub].pos(kb))
		}
	}

	// The call graph, by function ID: defined callees in callee-name order.
	calls := modref.Graph{Start: make([]int32, 1, t.lay.NumIDs()+1)}
	for id := range t.lay.NumIDs() {
		if pos := t.lay.Pos(id); pos >= 0 {
			u, k := t.locate(int32(pos))
			for _, c := range parsed[u].calleesOf(k) {
				if cid := t.lay.ID(c); cid >= 0 {
					calls.Items = append(calls.Items, int32(cid))
				}
			}
		}
		calls.Start = append(calls.Start, int32(len(calls.Items)))
	}

	c := modref.Condense(calls, t.ids)
	t.sccs, t.sccOf, t.callees, t.callers = c.SCCs, c.Of, c.Callees, c.Callers
	return t, nil
}

// persist brings the store up to the committed state: the candidate
// artifacts (function IDs) it does not hold as they are go into one segment —
// a delta holding just that change set, or a rewritten full snapshot when the
// delta ring is exhausted, the change touched most of the program, or the
// store holds an artifact under a name the program no longer defines — and
// the facts of the units it does not hold go beside it: every unit's with a
// full snapshot, the changed units' in the delta's slot, so that an edit
// writes what the edit changed. Store errors are swallowed — persistence buys
// warmth, and a failed write must not fail a build that already succeeded —
// but remembered: what could not be written stays in s.unsaved, or not
// stored, for the next attempt. It reports how many artifacts the store was
// missing.
func (s *Session) persist(candidates []int32) int {
	var changed []int32
	for _, id := range candidates {
		if !s.arts[id].persisted {
			changed = append(changed, id)
		}
	}
	s.unsaved = changed
	var edited []*parsedUnit
	for _, pu := range s.units {
		if !pu.stored {
			edited = append(edited, pu)
		}
	}
	ring := s.ring
	if len(changed) == 0 && len(edited) == 0 && !ring.stale {
		return 0
	}
	// In declaration order, like the full snapshot.
	slices.SortFunc(changed, func(a, b int32) int { return s.tab.lay.Pos(int(a)) - s.tab.lay.Pos(int(b)) })
	changed = slices.Compact(changed)
	full := !ring.hasFull || ring.deltas >= maxDeltaSegments || ring.stale || 2*len(changed) >= len(s.tab.ids)
	key, ids := segFullKey, s.tab.ids
	factsKey, units := unitFactsKey, s.units
	if !full {
		// A commit that changed a unit's bytes and no artifact still takes
		// the slot, with an empty segment: the slot is what keeps the next
		// commit from overwriting these facts.
		key, ids = segDeltaKey(ring.deltas), changed
		factsKey, units = unitFactsDeltaKey(ring.deltas), edited
	}
	data, err := encodeSegment(s.shape.fp, ring.next, ids, s.arts, s.opts.Workers)
	if err != nil {
		return len(changed)
	}
	if err := s.store.Put(store.NSArtifact, key, data); err != nil {
		return len(changed)
	}
	for _, id := range ids {
		s.arts[id].persisted = true
	}
	ring.next++
	if full {
		// The delta slots start over, and with them the facts they hold.
		ring.deltas, ring.hasFull, ring.stale = 0, true, false
		for _, pu := range s.units {
			pu.stored = false
		}
	} else {
		ring.deltas++
	}
	s.ring, s.unsaved = ring, nil
	if len(units) > 0 && s.store.Put(store.NSArtifact, factsKey, encodeUnitFacts(units)) == nil {
		for _, pu := range units {
			pu.stored = true
		}
	}
	if rec := s.opts.Obs; rec != nil {
		rec.Counter("store.artifact.saves").Add(int64(len(ids)))
	}
	return len(changed)
}

// Persist flushes any artifacts the persistent store does not yet hold in
// their committed form and reports how many it wrote. Update already
// persists at commit, so this is normally a no-op; the tenant layer calls
// it before evicting a session so a commit whose store write failed (store
// errors are swallowed) gets one more chance to reach disk, making
// "evict, then warm re-admit" lose at most performance, never artifacts.
// Without a persistent store it reports 0.
func (s *Session) Persist() int {
	if s.store == nil || s.analysis == nil {
		return 0
	}
	return s.persist(s.unsaved)
}

// appendSignature appends a function's signature fingerprint to b: its
// post-transform interface — return type, parameter types, and the aux specs
// the connector transformation will add for its summary. Everything a call
// site's lowering and rewriting reads from a callee is in here. The bytes are
// persisted with the artifact and compared across restarts
// (TestFingerprintGolden pins them).
func (s *Session) appendSignature(b []byte, sig []minic.Type, sum *modref.Summary, globals map[string]minic.Type) []byte {
	b = append(append(b, "ret="...), sig[0].String()...)
	b = append(b, ";params="...)
	for _, t := range sig[1:] {
		b = append(append(b, t.String()...), ',')
	}
	if !s.opts.DisableConnectors {
		in, out := transform.ConnectorSpecs(sig[1:], globals, sum)
		b = append(b, ";aux="...)
		for dir, specs := range [][]ir.AuxSpec{in, out} {
			for _, sp := range specs {
				b = strconv.AppendInt(append(b, "io"[dir]), int64(sp.Root), 10)
				b = append(append(b, '@'), sp.Global...)
				b = strconv.AppendInt(append(b, '.'), int64(sp.Depth), 10)
				b = append(b, ',')
			}
		}
	}
	return b
}
