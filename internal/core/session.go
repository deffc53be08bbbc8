// Incremental artifact-based builds.
//
// A Session keeps the per-function outputs of every pipeline stage —
// lowered CFG IR, SSA info, Mod/Ref summary, connector signature, local
// points-to facts, and the SEG — as artifacts, and with them the
// program-level tables built over the functions: the units' facts, the
// function layout (names, declaration order, IDs), the condensed AST call
// graph with its caller edges, the program shape (globals, structs), and the
// assembled module and analysis tables. Update diffs the incoming
// translation units against the previous ones and rebuilds only what a
// change can actually reach:
//
//   - a unit is known by its facts (name, source, and per declaration the
//     signature, content hash and callee names), never by its AST: one whose
//     source bytes are unchanged is not parsed unless one of its functions
//     must be lowered, and a parse lives only as long as the Update that
//     made it — each function's syntax tree only until it is lowered;
//   - a function whose AST hash (structure, literals, positions, unit
//     index) is unchanged keeps its artifacts unless a dependency demands
//     otherwise;
//   - Mod/Ref summaries are recomputed bottom-up over the AST-level call
//     graph, but only for SCCs containing an edited function or calling a
//     function whose summary fingerprint changed — the classic
//     change-propagation frontier;
//   - transform/PTA/SEG artifacts are keyed by a dependency fingerprint:
//     the function's own connector signature plus the signatures of
//     everything it calls. The early-cutoff firewall lives here: an edited
//     callee whose connector signature (return type, parameter types, aux
//     specs) is unchanged does not invalidate its callers' artifacts, even
//     though its own body was rebuilt;
//   - the program-level tables are patched, not rebuilt, while the edit
//     leaves them valid: an Update then looks only at the functions of the
//     re-parsed units and at the SCCs that can reach an edited function,
//     and everything else keeps its place in every table unseen. What
//     invalidates a table is rebuilding it and looking at every function —
//     which is also what the first Update does: one build, over whatever
//     set of functions is affected.
//
// Everything rebuilt is lowered from its unit's parse, one declaration at a
// time and deterministically, so a warm Update yields an Analysis whose
// reports, witnesses, and size statistics are byte-identical to a
// from-scratch build of the same sources. Session state is only committed once the whole update has
// succeeded; a parse or lowering error leaves the previous state intact.
// Nothing reachable from an Analysis is ever modified by a later Update:
// tables are carried by copying the spine and overwriting the changed slots.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/ssa"
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
	// whose bytes it did not know, and those it knew of which a function had
	// to be lowered. UnitsLoaded counts the units it knew from the store's
	// facts records (a first Update's only).
	UnitsParsed int
	UnitsLoaded int
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
	astHash astKey // AST content hash + unit index
	sumFP   digest // of the Mod/Ref summary's fingerprint
	sigFP   string // connector signature fingerprint
	depFP   digest // of sigFP + callee sigFPs: transform/SEG validity key
	sum     *modref.Summary
	// fn is the lowered, SSA-converted, connector-transformed function —
	// its interface: the SEG holds its body (ir.Func.ReleaseBody). Detection
	// reads the SEG only.
	fn    *ir.Func
	seg   *seg.Graph
	sizes artifactSizes
	// persisted reports that the persistent store holds the artifact as it
	// is. A rebuilt artifact starts false, and so does the copy made when
	// the firewall refreshes a retained artifact's summary without a
	// rebuild.
	persisted bool
}

// artifactSizes are one function's size counters, snapshotted right after
// its build: detection later grows cond nodes and SEG value nodes in place,
// so live recounts of retained artifacts would drift from a cold build's
// numbers.
type artifactSizes struct {
	instrs        int
	segNodes      int
	segValueNodes int
	segEdges      int
	condNodes     int
	pta           pta.Stats
}

// add accumulates sign × o.
func (z *artifactSizes) add(o *artifactSizes, sign int) {
	z.instrs += sign * o.instrs
	z.segNodes += sign * o.segNodes
	z.segValueNodes += sign * o.segValueNodes
	z.segEdges += sign * o.segEdges
	z.condNodes += sign * o.condNodes
	z.pta.GuardsPruned += sign * o.pta.GuardsPruned
	z.pta.GuardsKept += sign * o.pta.GuardsKept
	z.pta.CapWidened += sign * o.pta.CapWidened
	z.pta.LinearQueries += sign * o.pta.LinearQueries
	z.pta.LinearUnsat += sign * o.pta.LinearUnsat
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
	totals   artifactSizes   // summed over arts
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

// unitAST is one unit's parse for the duration of one Update: made before
// the wavefront for a unit whose facts have to be (re-)derived, or inside it,
// once, when the first of a known unit's functions has to be lowered.
type unitAST struct {
	once sync.Once
	file *minic.File
	err  error
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

func newProgShape(parsed []*parsedUnit) *progShape {
	h := sha256.New()
	for _, pu := range parsed {
		h.Write([]byte(pu.shape))
	}
	sh := &progShape{
		fp:           hex.EncodeToString(h.Sum(nil))[:24],
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
	callees adjacency
	callers adjacency
}

// adjacency is a graph in compressed-sparse-row form: the neighbours of
// vertex i are items[start[i]:start[i+1]].
type adjacency struct {
	start []int32
	items []int32
}

func (a *adjacency) of(i int32) []int32 { return a.items[a.start[i]:a.start[i+1]] }

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
	numIDs := t.lay.NumIDs()
	calls := adjacency{start: make([]int32, numIDs+1)}
	byID := make([][]string, numIDs)
	pos := 0
	for _, pu := range parsed {
		for k := range pu.funcs {
			byID[t.ids[pos]] = pu.calleesOf(k)
			pos++
		}
	}
	for id, callees := range byID {
		for _, c := range callees {
			if cid := t.lay.ID(c); cid >= 0 {
				calls.items = append(calls.items, int32(cid))
			}
		}
		calls.start[id+1] = int32(len(calls.items))
	}

	// Tarjan's algorithm from every function in declaration order.
	const unseen = -1
	index := make([]int32, numIDs)
	low := make([]int32, numIDs)
	onStack := make([]bool, numIDs)
	t.sccOf = make([]int32, numIDs)
	for i := range index {
		index[i], t.sccOf[i] = unseen, unseen
	}
	var stack []int32
	counter := int32(0)
	var strongconnect func(v int32)
	strongconnect = func(v int32) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, c := range calls.of(v) {
			if index[c] == unseen {
				strongconnect(c)
				low[v] = min(low[v], low[c])
			} else if onStack[c] {
				low[v] = min(low[v], index[c])
			}
		}
		if low[v] == index[v] {
			at := len(stack) - 1
			for stack[at] != v {
				at--
			}
			scc := slices.Clone(stack[at:])
			slices.Reverse(scc)
			stack = stack[:at]
			for _, m := range scc {
				onStack[m] = false
				t.sccOf[m] = int32(len(t.sccs))
			}
			t.sccs = append(t.sccs, scc)
		}
	}
	for _, id := range t.ids {
		if index[id] == unseen {
			strongconnect(id)
		}
	}

	// Condense: each component's callee components once each, then the same
	// edges reversed.
	nS := len(t.sccs)
	t.callees.start = make([]int32, nS+1)
	t.callers.start = make([]int32, nS+1)
	seenFrom := make([]int32, nS) // component j+1 has an edge to this one already
	for j, scc := range t.sccs {
		seenFrom[j] = int32(j + 1)
		for _, m := range scc {
			for _, c := range calls.of(m) {
				if jj := t.sccOf[c]; seenFrom[jj] != int32(j+1) {
					seenFrom[jj] = int32(j + 1)
					t.callees.items = append(t.callees.items, jj)
					t.callers.start[jj+1]++
				}
			}
		}
		t.callees.start[j+1] = int32(len(t.callees.items))
	}
	for j := 0; j < nS; j++ {
		t.callers.start[j+1] += t.callers.start[j]
	}
	t.callers.items = make([]int32, len(t.callees.items))
	fill := slices.Clone(t.callers.start[:nS])
	for j := int32(0); j < int32(nS); j++ {
		for _, jj := range t.callees.of(j) {
			t.callers.items[fill[jj]] = j
			fill[jj]++
		}
	}
	return t, nil
}

// fnState is the per-function bookkeeping of one Update in progress, kept
// for the functions the Update looks at. During the build wavefront each
// field is written only by the node that owns it (the function's L-node, its
// SCC's S-node, or its F-node) and read by dependent nodes after that node
// completed — the scheduler's dependency edges provide the happens-before
// ordering.
type fnState struct {
	id      int32
	unit, k int32       // the declaring unit and the declaration's index in it
	pu      *parsedUnit // that unit: the function's name, signature and callees
	astHash astKey
	old     *funcArtifact // nil when new or program-shape invalidated
	had     bool          // the committed program defines the name
	dirty   bool          // no old artifact, or its AST hash differs

	sum        *modref.Summary
	sumFP      digest
	sumChanged bool
	sigFP      string
	sigMoved   bool // no previous artifact, or its sigFP differs
	depFP      digest

	rebuild bool
	fn      *ir.Func           // freshly lowered this update (nil if not lowered)
	info    *ssa.Info          // SSA info of fn
	finalFn *ir.Func           // the function entering the committed module
	prep    *transform.Prepped // extended signature awaiting body rewrite
	art     *funcArtifact      // the artifact to commit
}

func (st *fnState) name() string      { return st.pu.funcs[st.k].name }
func (st *fnState) callees() []string { return st.pu.calleesOf(int(st.k)) }

// Update analyzes units incrementally against the session's previous state.
// On success the new state is committed and the fresh Analysis returned; on
// error the session is left exactly as before the call.
func (s *Session) Update(units []minic.NamedSource) (*Analysis, error) {
	rec := s.opts.Obs
	var tm Timings
	var stats ArtifactStats

	// ---- Which units does the session know? One whose source is the bytes
	// the session holds is known by its facts and is not parsed here — nor
	// later, unless one of its functions has to be lowered.
	sp := rec.Phase("parse")
	t0 := time.Now()
	parsed := make([]*parsedUnit, len(units))
	var toParse []int
	unchanged := s.analysis != nil && len(units) == len(s.units)
	for i, u := range units {
		if pu := s.files[u.Name]; pu != nil && pu.src == u.Src {
			parsed[i] = pu
		} else {
			toParse = append(toParse, i)
		}
		unchanged = unchanged && parsed[i] == s.units[i]
	}
	if unchanged {
		// Nothing changed since the committed Update: its Analysis stands.
		// Only what describes this call — timings, artifact outcome — is
		// fresh; with a store, a write that failed at that commit gets its
		// retry, as on every Update.
		a := *s.analysis
		a.Timings = Timings{Parse: time.Since(t0)}
		a.Artifacts = ArtifactStats{Hits: len(s.tab.ids)}
		sp.End()
		if s.store != nil {
			t0 = time.Now()
			s.persist(s.unsaved)
			a.Timings.StoreSave = time.Since(t0)
		}
		if rec != nil {
			rec.Counter("build.artifact.hits").Add(int64(a.Artifacts.Hits))
			rec.Counter("build.units_known").Add(int64(len(units)))
		}
		s.analysis, s.stats = &a, a.Artifacts
		return &a, nil
	}

	// With a store, a unit is also known across processes, by the digest of
	// its name and bytes: the first Update of a session looks the others up
	// in the store's facts records, and a unit found there is not parsed
	// either.
	var sums []digest // by unit, of those in toParse
	if s.store != nil {
		t1 := time.Now()
		sums = make([]digest, len(units))
		_ = conc.ForEach(len(toParse), s.opts.Workers, func(_, j int) error { // nothing in it fails
			i := toParse[j]
			sums[i] = unitDigest(units[i].Name, units[i].Src)
			return nil
		})
		if !s.storeLoaded {
			sp := rec.Phase("store.load")
			known := loadUnitFacts(s.store, s.opts.Workers, rec)
			rest := toParse[:0]
			for _, i := range toParse {
				if pu := known[sums[i]]; pu != nil && pu.name == units[i].Name {
					pu.src, pu.shape = units[i].Src, pu.unitFacts.shape()
					parsed[i] = pu
					stats.UnitsLoaded++
				} else {
					rest = append(rest, i)
				}
			}
			toParse = rest
			sp.End()
		}
		tm.StoreLoad = time.Since(t1)
	}

	// ---- Parse the rest, in parallel per translation unit, deriving their
	// facts: hashing the declarations walks the unit's AST like parsing does,
	// so it rides the same fan-out. All of this happens before anything
	// shared is touched, so a syntax error in a later unit cannot leak
	// partial state; conc.ForEach's lowest-index error contract keeps the
	// reported error independent of the worker count. The parses live in
	// asts — an entry per unit this Update parses or may have to — until the
	// Update returns.
	asts := make([]*unitAST, len(units))
	var unitsParsed atomic.Int64
	parseUnit := func(w, i int) (*minic.File, error) {
		end := perFunc(rec, w, "build.parse", units[i].Name)
		f, err := minic.ParseFile(units[i].Name, units[i].Src)
		end()
		if err != nil {
			return nil, fmt.Errorf("parse: parsing %s: %w", units[i].Name, err)
		}
		for _, fn := range f.Funcs {
			fn.Unit = i
		}
		unitsParsed.Add(1)
		return f, nil
	}
	parseUnits := func(which []int) error {
		return conc.ForEach(len(which), s.opts.Workers, func(w, j int) error {
			i := which[j]
			f, err := parseUnit(w, i)
			if err != nil {
				return err
			}
			var like *unitFacts // an edited unit mostly declares what it did
			if was := s.files[units[i].Name]; was != nil {
				like = &was.unitFacts
			}
			pu := &parsedUnit{name: units[i].Name, src: units[i].Src, unitFacts: factsOf(f, like, !s.oneShot)}
			pu.shape = pu.unitFacts.shape()
			if sums != nil {
				pu.sum = sums[i]
			}
			parsed[i], asts[i] = pu, &unitAST{file: f}
			return nil
		})
	}
	if err := parseUnits(toParse); err != nil {
		return nil, err
	}
	tm.Parse = time.Since(t0) - tm.StoreLoad
	sp.End()

	// ---- Which program-level tables does the edit leave valid? They all
	// are when every unit either is the committed one or declares the same
	// functions and the same shape as the committed unit at its position,
	// with every edited function calling what it called. Then the functions
	// to look at are those of the changed units and whatever can reach an
	// edited one; otherwise the tables are rebuilt and every function is
	// looked at, as on the first Update.
	tab, shape := s.tab, s.shape
	patch := s.analysis != nil && len(parsed) == len(s.units)
	var dirtyIDs []int32
	visited := 0
	for i := 0; patch && i < len(parsed); i++ {
		pu, was := parsed[i], s.units[i]
		if pu == was {
			continue
		}
		base := tab.unitStart[i]
		if patch = pu.shape == was.shape && len(pu.funcs) == int(tab.unitStart[i+1]-base); !patch {
			break
		}
		visited += len(pu.funcs)
		for k := range pu.funcs {
			id := tab.ids[int(base)+k]
			if pu.funcs[k].name != tab.names[int(base)+k] {
				patch = false
			} else if pu.astKey(k, i) != s.arts[id].astHash {
				patch = slices.Equal(pu.calleesOf(k), was.calleesOf(k))
				dirtyIDs = append(dirtyIDs, id)
			}
			if !patch {
				break
			}
		}
	}
	shapeChanged := false
	tables := func() (err error) {
		if tab, err = newFuncTable(parsed, s.tab); err != nil {
			return err
		}
		if shape = newProgShape(parsed); s.shape != nil && shape.fp == s.shape.fp {
			shape = s.shape
		}
		shapeChanged = shape != s.shape
		return nil
	}
	if !patch {
		if err := tables(); err != nil {
			return nil, err
		}
	}

	// ---- Warm-load: the first Update of a session reads the persistent
	// store's artifact segments in one pass (a restarted server arrives
	// here with no artifacts in memory). Segments carry the program-shape
	// fingerprint they were built under, so a shape change reads as a miss
	// — the same rule shapeChanged applies to the in-memory artifacts. Any
	// decode failure (truncated, bit-flipped, stale codec) is also just a
	// miss: corruption costs a rebuild, never a wrong artifact.
	ring := s.ring
	var loaded map[string]*funcArtifact
	if s.store != nil && !s.storeLoaded {
		sp := rec.Phase("store.load")
		t0 := time.Now()
		loaded, ring = loadSegments(s.store, shape.fp, s.opts.Workers, rec)
		// Stored facts are believed as far as the stored artifacts bear them
		// out: a unit known by them (stored, here, since nothing else is yet)
		// must declare exactly the functions the artifacts of its unit index
		// were built from, hash for hash. One that does not is parsed after
		// all, and the tables laid out again.
		perUnit := make([]int, len(units))
		for _, art := range loaded {
			if u := int(art.astHash.unit); u < len(perUnit) {
				perUnit[u]++
			}
		}
		borneOut := func(pu *parsedUnit, i int) bool {
			for k := range pu.funcs {
				if art := loaded[pu.funcs[k].name]; art == nil || art.astHash != pu.astKey(k, i) {
					return false
				}
			}
			return perUnit[i] == len(pu.funcs)
		}
		var suspect []int
		for i, pu := range parsed {
			if pu.stored && !borneOut(pu, i) {
				suspect = append(suspect, i)
			}
		}
		tm.StoreLoad += time.Since(t0)
		sp.End()
		if len(suspect) > 0 {
			t0 = time.Now()
			stats.UnitsLoaded -= len(suspect)
			fp := shape.fp
			if err := parseUnits(suspect); err != nil {
				return nil, err
			}
			if err := tables(); err != nil {
				return nil, err
			}
			tm.Parse += time.Since(t0)
			if shape.fp != fp {
				t0 = time.Now()
				loaded, ring = loadSegments(s.store, shape.fp, s.opts.Workers, rec)
				tm.StoreLoad += time.Since(t0)
			}
		}
		// An artifact the store offers under a name the program does not
		// define — here, or below when an edit drops a name — makes the next
		// segment a full snapshot (see segState.stale).
		for name := range loaded {
			ring.stale = ring.stale || tab.lay.ID(name) < 0
		}
	} else if s.store != nil && tab != s.tab {
		for _, name := range s.tab.names {
			ring.stale = ring.stale || tab.lay.ID(name) < 0
		}
	}

	// The units known going into the build: by the session or by the store.
	unitsKnown := len(units) - int(unitsParsed.Load())

	// ---- The affected functions, by declaration position: all of them, or
	// the members of the SCCs from which an edited function is reachable.
	var affected []int32 // SCC indexes, ascending (callee-first)
	snode := make([]int32, len(tab.sccs))
	if patch {
		for _, id := range dirtyIDs {
			if j := tab.sccOf[id]; snode[j] == 0 {
				snode[j] = 1
				affected = append(affected, j)
			}
		}
		for i := 0; i < len(affected); i++ {
			for _, j := range tab.callers.of(affected[i]) {
				if snode[j] == 0 {
					snode[j] = 1
					affected = append(affected, j)
				}
			}
		}
		slices.Sort(affected)
	} else {
		affected = make([]int32, len(tab.sccs))
		for j := range affected {
			affected[j] = int32(j)
		}
	}
	var positions []int32
	for i, j := range affected {
		snode[j] = int32(i + 1)
		for _, id := range tab.sccs[j] {
			positions = append(positions, int32(tab.lay.Pos(int(id))))
		}
	}
	slices.Sort(positions)

	// ---- Function states, in declaration order, from the units' facts.
	states := make([]fnState, len(positions))
	visit := make([]int32, tab.lay.NumIDs()) // function ID → index into states, +1
	dirty := 0
	unit := 0
	for i, pos := range positions {
		for tab.unitStart[unit+1] <= pos {
			unit++
		}
		pu, k := parsed[unit], int(pos-tab.unitStart[unit])
		st := &states[i]
		*st = fnState{id: tab.ids[pos], unit: int32(unit), k: int32(k), pu: pu, astHash: pu.astKey(k, unit)}
		visit[st.id] = int32(i + 1)
		if asts[unit] == nil {
			asts[unit] = new(unitAST)
		}
		if st.had = s.tab != nil && (patch || s.tab.lay.ID(st.name()) >= 0); st.had && !shapeChanged {
			st.old = s.arts[st.id]
		}
		if st.old == nil && loaded != nil {
			if art := loaded[st.name()]; art != nil {
				art.fn.ID = int(st.id)
				st.old = art
				stats.StoreHits++
			}
		}
		if st.dirty = st.old == nil || st.old.astHash != st.astHash; st.dirty {
			dirty++
		}
		if patch && parsed[unit] == s.units[unit] {
			visited++ // not of a changed unit, so not counted yet
		}
	}
	if !patch {
		visited = len(states)
	}
	stats.Visited = visited
	if loaded != nil && rec != nil {
		rec.Counter("store.artifact.loads").Add(int64(stats.StoreHits))
	}
	// committed: every st.old is an artifact of this session's previous
	// Update, not one warm-loaded from the store.
	committed := s.analysis != nil

	// callee finds what a called name stands for: the state of a function
	// this Update looks at, or else the committed artifact of one it does
	// not — which nothing in this Update can change — or neither for an
	// external.
	callee := func(name string) (*fnState, *funcArtifact) {
		id := tab.lay.ID(name)
		switch {
		case id < 0:
			return nil, nil
		case visit[id] != 0:
			return &states[visit[id]-1], nil
		}
		return nil, s.arts[id]
	}
	retType := tab.retType(parsed)
	// ast returns unit u's parse, making it if this Update has not yet: a
	// known unit is parsed when the first of its functions has to be
	// lowered — its own edit is not the only reason, a callee's changed
	// summary or signature is another — and then once, whichever workers
	// ask. The parse must declare what the unit's facts say.
	var parseNs int64
	ast := func(w, u int) (*minic.File, error) {
		a := asts[u]
		a.once.Do(func() {
			if a.file != nil {
				return
			}
			t1 := time.Now()
			f, err := parseUnit(w, u)
			atomic.AddInt64(&parseNs, int64(time.Since(t1)))
			if err == nil && !slices.EqualFunc(f.Funcs, parsed[u].funcs, func(fn *minic.FuncDecl, ff funcFacts) bool { return fn.Name == ff.name }) {
				err = fmt.Errorf("parse: %s does not declare the functions it is known by", units[u].Name)
			}
			a.file, a.err = f, err
		})
		return a.file, a.err
	}

	// ---- Module shell: lowering resolves global references through the
	// module; the functions are filled in at commit.
	m := &ir.Module{Layout: tab.lay, Globals: shape.globals, GlobalByName: shape.globalByName, Units: len(units)}

	// ---- Wavefront: everything between parsing and commit — lowering,
	// SSA, the Mod/Ref frontier recompute, connector fingerprints, the
	// connector transform, and PTA+SEG — runs as one dependency-counting
	// wavefront over the affected part of the condensed AST call graph (see
	// DESIGN.md "Parallel build pipeline"). Three node kinds:
	//
	//   - an L-node per AST-dirty function lowers and SSA-converts it;
	//     L-nodes have no dependencies and run fully parallel;
	//   - an S-node per SCC decides whether the Mod/Ref fixpoint must be
	//     recomputed, scratch-lowers the clean members it needs, runs the
	//     fixpoint, derives signature/dependency fingerprints and the
	//     rebuild decision, and extends rebuilt members' signatures; it
	//     depends on its members' L-nodes and on its callee S-nodes;
	//   - an F-node per function finishes a rebuilt function — call-site
	//     rewriting, PTA, SEG, artifact assembly — depending only on its
	//     own S-node, so the expensive per-function tail never blocks the
	//     interprocedural frontier.
	//
	// Each node writes only fnState fields it owns and reads callee state
	// strictly after the owning node completed (the scheduler supplies
	// the happens-before edge); a callee outside the affected set is read
	// from its committed artifact. Summary merges are commutative set
	// unions and everything after the wavefront assembles in canonical
	// declaration order, so output is byte-identical at any worker count.
	var lowerNs, ssaNs, modrefNs, transformNs, ptaNs, segNs int64
	// scratch holds one buffer per worker: what a fingerprint is rendered
	// into before it is hashed or copied out.
	scratch := make([][]byte, conc.Workers(s.opts.Workers))
	lowerOne := func(w int, st *fnState) error {
		file, err := ast(w, int(st.unit))
		if err != nil {
			return err
		}
		decl := file.Funcs[st.k]
		name := decl.Name
		t1 := time.Now()
		endL := perFunc(rec, w, "build.lower", name)
		lf, err := lower.FuncWith(m, decl, retType, shape.structs)
		endL()
		// The IR is all that is read of the function from here on: its
		// syntax tree dies now, not when the Update returns.
		decl.Body = nil
		atomic.AddInt64(&lowerNs, int64(time.Since(t1)))
		if err != nil {
			return fmt.Errorf("lower: %w", err)
		}
		lf.ID = int(st.id)
		t1 = time.Now()
		endS := perFunc(rec, w, "build.ssa", name)
		inf, err := ssa.Transform(lf)
		endS()
		atomic.AddInt64(&ssaNs, int64(time.Since(t1)))
		if err != nil {
			return fmt.Errorf("ssa %s: %w", name, err)
		}
		st.fn, st.info = lf, inf
		return nil
	}
	resolve := func(name string) *ir.Func {
		if st, art := callee(name); st != nil {
			return st.finalFn
		} else if art != nil {
			return art.fn
		}
		return nil
	}
	runSCC := func(w int, scc []int32) error {
		member := func(id int32) *fnState { return &states[visit[id]-1] }
		// Mod/Ref: recompute only the frontier. A clean SCC none of whose
		// external callees changed their summary keeps its old fixpoint.
		// Callee sumChanged flags are final: their S-nodes completed.
		t1 := time.Now()
		recompute := false
		for _, id := range scc {
			st := member(id)
			if st.dirty || st.old.sum == nil {
				recompute = true
				break
			}
			for _, c := range st.callees() {
				if cs, _ := callee(c); cs != nil && cs.sumChanged {
					recompute = true
					break
				}
			}
			if recompute {
				break
			}
		}
		if !recompute {
			for _, id := range scc {
				st := member(id)
				st.sum, st.sumFP = st.old.sum, st.old.sumFP
			}
			atomic.AddInt64(&modrefNs, int64(time.Since(t1)))
		} else {
			atomic.AddInt64(&modrefNs, int64(time.Since(t1)))
			for _, id := range scc {
				st := member(id)
				if st.fn == nil {
					// Scratch-lower a clean member so its summary can be
					// recomputed; the result doubles as the rebuild IR if
					// dependency fingerprints later turn out to have
					// changed.
					if err := lowerOne(w, st); err != nil {
						return err
					}
				}
				st.sum = modref.NewSummary()
			}
			lookup := func(name string) *modref.Summary {
				if st, art := callee(name); st != nil {
					return st.sum
				} else if art != nil {
					return art.sum
				}
				return nil
			}
			t1 = time.Now()
			for changed := true; changed; {
				changed = false
				for _, id := range scc {
					st := member(id)
					if modref.AnalyzeFunc(st.fn, st.sum, lookup) {
						changed = true
					}
				}
			}
			for _, id := range scc {
				st := member(id)
				st.sum = st.sum.Settled()
				scratch[w] = st.sum.AppendFingerprint(scratch[w][:0])
				st.sumFP = digestOf(scratch[w])
				if st.old == nil || st.old.sumFP != st.sumFP {
					st.sumChanged = true
				}
			}
			atomic.AddInt64(&modrefNs, int64(time.Since(t1)))
		}

		// Connector signatures and dependency fingerprints. The firewall:
		// a callee whose summary changed but whose signature fingerprint
		// did not leaves its callers' depFPs — and artifacts — untouched.
		// Callee sigFPs are final (dependency S-nodes completed; same-SCC
		// members were fingerprinted in the loop above).
		//
		// Both are functions of inputs that rarely move: a function whose
		// declaration and summary are those of its committed artifact has
		// that artifact's signature, and if no callee's signature moved
		// either (appeared, disappeared, or changed), its dependency
		// fingerprint too. Only the session's own committed state is
		// trusted that far; artifacts warm-loaded from the store are
		// re-fingerprinted.
		for _, id := range scc {
			st := member(id)
			if committed && !st.dirty && !st.sumChanged {
				st.sigFP = st.old.sigFP
			} else {
				scratch[w] = s.appendSignature(scratch[w][:0], st.pu.sig(int(st.k)), st.sum, shape.globalTypes)
				st.sigFP = string(scratch[w])
			}
			st.sigMoved = st.old == nil || st.old.sigFP != st.sigFP
		}
		calleeSigMoved := func(st *fnState) bool {
			for _, c := range st.callees() {
				if cs, art := callee(c); cs != nil {
					if cs.sigMoved {
						return true
					}
				} else if art == nil && s.tab != nil && s.tab.lay.ID(c) >= 0 {
					return true // was defined, now external
				}
			}
			return false
		}
		sigOf := func(name string) string {
			if st, art := callee(name); st != nil {
				return st.sigFP
			} else if art != nil {
				return art.sigFP
			}
			return "extern"
		}
		for _, id := range scc {
			st := member(id)
			if committed && !st.dirty && !st.sigMoved && !calleeSigMoved(st) {
				st.depFP = st.old.depFP
			} else {
				b := append(append(append(scratch[w][:0], "self\x00"...), st.sigFP...), 0)
				for _, c := range st.callees() {
					b = append(append(append(b, "callee\x00"...), c...), 0)
					b = append(append(b, sigOf(c)...), 0)
				}
				st.depFP, scratch[w] = digestOf(b), b
			}
			st.rebuild = st.dirty || st.old.depFP != st.depFP
		}

		// Lower the clean members pulled in by dependency changes (edited
		// callee signatures) and pick what enters the committed module:
		// retained functions keep their old IR — scratch-lowered copies
		// made for summary recomputation are deliberately discarded.
		for _, id := range scc {
			st := member(id)
			if st.rebuild && st.fn == nil {
				if err := lowerOne(w, st); err != nil {
					return err
				}
			}
			if st.rebuild {
				st.finalFn = st.fn
			} else {
				st.finalFn = st.old.fn
			}
		}

		// Extend rebuilt members' signatures now so dependent S- and
		// F-nodes read final aux specs; bodies are rewritten in F-nodes.
		if !s.opts.DisableConnectors {
			t1 = time.Now()
			for _, id := range scc {
				st := member(id)
				if st.rebuild {
					st.prep = transform.Prep(m, st.finalFn, st.sum)
				}
			}
			atomic.AddInt64(&transformNs, int64(time.Since(t1)))
		}
		return nil
	}
	runFinish := func(w int, st *fnState) error {
		if !st.rebuild {
			// Retain the built IR/SEG but refresh the metadata: the
			// firewall keeps artifacts alive across summary changes whose
			// signature is stable, so the stored summary must be this
			// update's, not the one the artifact was originally built
			// under. Most of the time nothing moved and the committed
			// artifact serves as it is.
			st.art = st.old
			if old := st.old; old.sum != st.sum || old.sumFP != st.sumFP || old.sigFP != st.sigFP || old.depFP != st.depFP {
				art := *old
				art.sum, art.sumFP, art.sigFP, art.depFP, art.persisted = st.sum, st.sumFP, st.sigFP, st.depFP, false
				st.art = &art
			}
			return nil
		}
		name := st.name()
		f := st.finalFn
		if st.prep != nil {
			t1 := time.Now()
			endT := perFunc(rec, w, "build.transform", name)
			err := st.prep.Rewrite(m, resolve)
			endT()
			atomic.AddInt64(&transformNs, int64(time.Since(t1)))
			if err != nil {
				return fmt.Errorf("transform: transform %s: %w", name, err)
			}
		}
		t1 := time.Now()
		endPTA := perFunc(rec, w, "build.pta", name)
		pr, err := pta.Analyze(f, st.info, s.opts.PTA)
		endPTA()
		atomic.AddInt64(&ptaNs, int64(time.Since(t1)))
		if err != nil {
			return fmt.Errorf("pta %s: %w", name, err)
		}
		t1 = time.Now()
		endSEG := perFunc(rec, w, "build.seg", name)
		g := seg.Build(f, st.info, pr)
		endSEG()
		atomic.AddInt64(&segNs, int64(time.Since(t1)))
		gs := g.Stats()
		st.art = &funcArtifact{
			astHash: st.astHash,
			sumFP:   st.sumFP,
			sigFP:   st.sigFP,
			depFP:   st.depFP,
			sum:     st.sum,
			fn:      f,
			seg:     g,
			sizes: artifactSizes{
				instrs:        f.NumInstrs(),
				segNodes:      gs.Nodes,
				segValueNodes: gs.ValueNodes,
				segEdges:      gs.Edges,
				condNodes:     st.info.Conds.NumNodes(),
				pta:           pr.Stats,
			},
		}
		// Of the function, callers, detection and the store read only its
		// interface and its SEG from here on.
		f.ReleaseBody()
		return nil
	}

	// DAG layout: SCC by SCC in the condensation's callee-first order, the
	// SCC's L-nodes (its AST-dirty members), then its S-node, then its
	// F-nodes, members in declaration order. The wavefront runs the
	// lowest-index ready node first, so it finishes the functions of an SCC
	// — and drops their bodies — before it lowers the next SCC's: the bodies
	// alive at once are those of the SCCs in flight, not the program's.
	type wnode struct {
		kind byte // 'L', 'S' or 'F'
		i    int  // into states; into affected for an S-node
	}
	nodes := make([]wnode, 0, dirty+len(affected)+len(states))
	deps := make([][]int, 0, cap(nodes))
	sAt := make([]int, len(affected)) // the node of each S-node
	var members []int
	for sj, j := range affected {
		members = members[:0]
		for _, id := range tab.sccs[j] {
			members = append(members, int(visit[id]-1))
		}
		slices.Sort(members)
		var sdeps []int
		for _, i := range members {
			if states[i].dirty {
				sdeps = append(sdeps, len(nodes))
				nodes, deps = append(nodes, wnode{'L', i}), append(deps, nil)
			}
		}
		for _, jj := range tab.callees.of(j) {
			if d := snode[jj]; d != 0 {
				sdeps = append(sdeps, sAt[d-1])
			}
		}
		sAt[sj] = len(nodes)
		nodes, deps = append(nodes, wnode{'S', sj}), append(deps, sdeps)
		for _, i := range members {
			nodes, deps = append(nodes, wnode{'F', i}), append(deps, []int{sAt[sj]})
		}
	}

	sp = rec.Phase("wavefront")
	t0 = time.Now()
	width, err := conc.Wavefront(len(deps), deps, s.opts.Workers, func(w, i int) error {
		switch nd := nodes[i]; nd.kind {
		case 'L':
			return lowerOne(w, &states[nd.i])
		case 'S':
			return runSCC(w, tab.sccs[affected[nd.i]])
		default:
			st := &states[nd.i]
			err := runFinish(w, st)
			// Of what the function's nodes made, the artifact is all a later
			// node or the commit reads; a scratch lowering dies here.
			st.fn, st.info, st.prep = nil, nil, nil
			return err
		}
	})
	wavefrontWall := time.Since(t0)
	sp.End()
	if err != nil {
		return nil, err
	}
	rec.Gauge("modref.wavefront_width").Set(int64(width))

	// Apportion the wavefront's wall clock across the per-stage Timings
	// fields in proportion to the CPU time measured inside each stage, so
	// the fields still sum to ≈ the build wall even though stages now
	// overlap across workers (at workers=1 this reproduces the historical
	// per-stage walls). The same split feeds the phase.* counters the
	// staged pipeline used to emit.
	if cpu := parseNs + lowerNs + ssaNs + modrefNs + transformNs + ptaNs + segNs; cpu > 0 {
		scale := float64(wavefrontWall) / float64(cpu)
		stage := func(ns int64) time.Duration { return time.Duration(float64(ns) * scale) }
		tm.Parse += stage(parseNs)
		tm.Lower, tm.SSA, tm.ModRef = stage(lowerNs), stage(ssaNs), stage(modrefNs)
		tm.Transform, tm.PTA, tm.SEG = stage(transformNs), stage(ptaNs), stage(segNs)
	}
	if rec != nil {
		for _, pc := range []struct {
			name string
			d    time.Duration
		}{
			{"lower", tm.Lower}, {"ssa", tm.SSA}, {"modref", tm.ModRef},
			{"transform", tm.Transform}, {"pta+seg", tm.PTA + tm.SEG},
		} {
			rec.Counter("phase." + pc.name + "_ns").Add(int64(pc.d))
		}
	}

	// ---- Commit: from here on nothing can fail. The session's own tables
	// are patched in place (or replaced, when rebuilt); the module and the
	// analysis tables start as copies of the committed ones, so that the
	// Analysis handed out before stays as it was. Retained functions
	// already carry their final aux signatures, which is exactly what
	// rebuilt callers' call sites read during the wavefront.
	numIDs := tab.lay.NumIDs()
	a := &Analysis{Module: m}
	arts, totals := s.arts, s.totals
	if patch {
		prev := s.analysis
		m.Funcs = slices.Clone(prev.Module.Funcs)
		a.SEGs, a.Summaries = slices.Clone(prev.SEGs), slices.Clone(prev.Summaries)
	} else {
		arts, totals = make([]*funcArtifact, numIDs), artifactSizes{}
		m.Funcs = make([]*ir.Func, len(states))
		a.SEGs, a.Summaries = make([]*seg.Graph, numIDs), make([]*modref.Summary, numIDs)
	}
	var fresh []*ir.Func // functions the committed module does not hold
	var changed []int32  // artifacts the store may not hold as they are
	if patch {
		changed = slices.Clone(s.unsaved)
	}
	for i := range states {
		st := &states[i]
		art, id := st.art, st.id
		switch {
		case !st.rebuild:
		case st.had:
			stats.Invalidated++
		default:
			stats.Misses++
		}
		if st.old != nil && arts[id] == st.old {
			totals.add(&st.old.sizes, -1)
		}
		totals.add(&art.sizes, +1)
		if !art.persisted {
			changed = append(changed, id)
		}
		if st.rebuild {
			fresh = append(fresh, art.fn)
		}
		arts[id] = art
		m.Funcs[positions[i]] = art.fn
		a.SEGs[id], a.Summaries[id] = art.seg, art.sum
	}
	stats.Hits = len(tab.ids) - stats.Invalidated - stats.Misses
	stats.UnitsParsed = int(unitsParsed.Load())
	s.arts, s.totals, s.tab, s.shape = arts, totals, tab, shape

	// The units: the session knows those of this request, by their facts.
	clear(s.files)
	for _, pu := range parsed {
		s.files[pu.name] = pu
	}
	s.units = parsed

	// ---- Persist: bundle every artifact whose on-disk record is missing
	// or stale into one segment (see persist).
	if s.store != nil {
		sp := rec.Phase("store.save")
		t0 := time.Now()
		s.storeLoaded, s.ring = true, ring
		s.persist(changed)
		tm.StoreSave = time.Since(t0)
		sp.End()
	}

	a.Timings, a.Artifacts = tm, stats
	a.PTAStats = totals.pta
	a.Sizes = Sizes{
		Lines:         totals.instrs,
		Functions:     len(tab.ids),
		SEGNodes:      totals.segNodes,
		SEGValueNodes: totals.segValueNodes,
		SEGEdges:      totals.segEdges,
		CondNodes:     totals.condNodes,
	}
	var prev *detect.Program
	if s.analysis != nil {
		prev = s.analysis.Prog
	}
	a.Prog = detect.NewProgramFrom(prev, m, a.SEGs, fresh)

	if rec != nil {
		rec.Counter("build.artifact.hits").Add(int64(stats.Hits))
		rec.Counter("build.artifact.misses").Add(int64(stats.Misses))
		rec.Counter("build.artifact.invalidated").Add(int64(stats.Invalidated))
		rec.Counter("build.funcs_visited").Add(int64(stats.Visited))
		rec.Counter("build.units_parsed").Add(int64(stats.UnitsParsed))
		rec.Counter("build.units_known").Add(int64(unitsKnown))
		emitBuildMetrics(rec, a)
	}
	s.analysis, s.stats = a, stats
	return a, nil
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
