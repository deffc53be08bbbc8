// Incremental artifact-based builds.
//
// A Session keeps the per-function outputs of every pipeline stage —
// lowered CFG IR, SSA info, Mod/Ref summary, connector signature, local
// points-to facts, and the SEG — as artifacts in a content-addressed store.
// Update diffs the incoming translation units against the previous ones and
// rebuilds only what a change can actually reach:
//
//   - a unit whose source hash is unchanged is not re-parsed;
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
//     though its own body was rebuilt.
//
// Everything rebuilt is lowered from the cached AST, one declaration at a
// time and deterministically, so a warm Update yields an Analysis whose
// reports, witnesses, and size statistics are byte-identical to a
// from-scratch build of the same sources. Session state is only committed once the whole update has
// succeeded; a parse or lowering error leaves the previous state intact.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/obs"
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
// change invalidated the loaded artifact anyway).
type ArtifactStats struct {
	Hits        int
	Misses      int
	Invalidated int
	StoreHits   int
}

// funcArtifact is the cached per-function build output, valid as long as
// its astHash and depFP match the current program.
type funcArtifact struct {
	astHash string // AST content hash + unit index
	sumFP   string // Mod/Ref summary fingerprint
	sigFP   string // connector signature fingerprint
	depFP   string // sigFP + callee sigFPs: transform/SEG validity key
	decl    *minic.FuncDecl
	callees []string
	sum     *modref.Summary
	fn      *ir.Func // lowered, SSA-converted, connector-transformed
	info    *ssa.Info
	seg     *seg.Graph
	// Size counters snapshotted right after the build: detection later
	// grows cond nodes and SEG value nodes in place, so live recounts of
	// retained artifacts would drift from a cold build's numbers.
	segNodes  int
	segEdges  int
	condNodes int
	ptaStats  pta.Stats
	// persistedMeta is the artifactMeta the persistent store last accepted
	// for this function ("" = never persisted). Commit re-encodes whenever
	// the live metadata differs — including the firewall case, where a
	// retained artifact's summary is refreshed without a rebuild.
	persistedMeta string
}

// Session is an incremental analysis pipeline. Create one with NewSession,
// then call Update with the full set of translation units after every edit;
// unchanged functions are served from the artifact store.
type Session struct {
	opts BuildOptions
	// persistDetect keeps detection caches alive across Update/CheckAll
	// calls. NewSession enables it; the throwaway session behind
	// BuildFromSource does not, preserving the historical cold-start
	// CheckAll behavior that scaling measurements depend on.
	persistDetect bool

	files     map[string]*parsedUnit // unit source hash → parsed file
	unitKeys  []string               // unit source hashes of the committed Update, in order
	progFP    string                 // globals/structs/unit-shape fingerprint
	artifacts map[string]*funcArtifact
	order     []string // committed declaration order of the artifact map
	analysis  *Analysis
	stats     ArtifactStats // last Update's counters
	// store is the persistent artifact backing, nil when the
	// configured Store cannot outlive the process (MemStore or none) —
	// in that case the encode/decode round-trip could never pay off and
	// the session behaves exactly like the historical memory-only one.
	store store.Store
	// Segment-ring bookkeeping for the persistent artifact store (see
	// artifact_codec.go). storeLoaded gates the one-time warm-load pass:
	// after the first successful Update the in-memory artifact map is the
	// authority and re-reading segments could only serve stale data.
	storeLoaded bool
	ring        segState
}

// NewSession returns an empty incremental session.
func NewSession(opts BuildOptions) *Session {
	s := newSession(opts)
	s.persistDetect = true
	return s
}

func newSession(opts BuildOptions) *Session {
	s := &Session{
		opts:      opts,
		files:     make(map[string]*parsedUnit),
		artifacts: make(map[string]*funcArtifact),
	}
	if opts.Store != nil && opts.Store.Persistent() {
		s.store = opts.Store
	}
	return s
}

// ArtifactStats reports the artifact-store counters of the last Update.
func (s *Session) ArtifactStats() ArtifactStats { return s.stats }

// ArtifactCount reports the number of per-function artifacts currently
// retained in the content-addressed store.
func (s *Session) ArtifactCount() int { return len(s.artifacts) }

// UnitCount reports the number of distinct translation-unit sources whose
// parses are currently cached.
func (s *Session) UnitCount() int { return len(s.files) }

// ArtifactFingerprint digests the committed per-function artifact
// metadata (name, AST hash, summary/signature/dependency fingerprints)
// in declaration order. Two sessions that analyzed the same program —
// at any worker count, cold or warm — produce equal fingerprints; the
// build-determinism tests gate on this.
func (s *Session) ArtifactFingerprint() string {
	h := sha256.New()
	for _, name := range s.order {
		art := s.artifacts[name]
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s\x00", name, art.astHash, art.sumFP, art.sigFP, art.depFP)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Analysis returns the analysis committed by the last successful Update
// (nil before the first).
func (s *Session) Analysis() *Analysis { return s.analysis }

// parsedUnit is one translation unit's parse, kept with the per-declaration
// facts every Update needs of it, so that a unit whose source did not change
// costs a map lookup, not a walk over its AST.
type parsedUnit struct {
	file *minic.File
	// unit is the index the hashes below were computed under (-1 before
	// the first): a function's AST hash covers its unit index.
	unit    int
	astHash []string   // per file.Funcs: AST content hash + unit index
	callees [][]string // per file.Funcs: sorted names of the functions called
}

// index brings the per-declaration facts up to date for the unit's position
// in this Update.
func (pu *parsedUnit) index(unit int) {
	if pu.unit == unit {
		return
	}
	pu.unit = unit
	pu.astHash = make([]string, len(pu.file.Funcs))
	if pu.callees == nil {
		pu.callees = make([][]string, len(pu.file.Funcs))
	}
	for i, fn := range pu.file.Funcs {
		fn.Unit = unit
		pu.astHash[i] = minic.HashFunc(fn) + "#" + strconv.Itoa(unit)
		if pu.callees[i] == nil {
			pu.callees[i] = minic.CalleeNames(fn)
		}
	}
}

// fnState is the per-function bookkeeping of one Update in progress.
// During the build wavefront each field is written only by the node that
// owns it (the function's L-node, its SCC's S-node, or its F-node) and
// read by dependent nodes after that node completed — the scheduler's
// dependency edges provide the happens-before ordering.
type fnState struct {
	decl    *minic.FuncDecl
	astHash string
	callees []string
	old     *funcArtifact // nil when new or program-shape invalidated

	sum        *modref.Summary
	sumFP      string
	sumChanged bool
	sigFP      string
	sigMoved   bool // no previous artifact, or its sigFP differs
	depFP      string

	rebuild   bool
	fn        *ir.Func  // freshly lowered this update (nil if not lowered)
	info      *ssa.Info // SSA info of fn
	finalFn   *ir.Func  // the function entering the committed module
	finalInfo *ssa.Info
	prep      *transform.Prepped // extended signature awaiting body rewrite
	art       *funcArtifact      // rebuilt artifact (F-node output)
}

// Update analyzes units incrementally against the session's previous state.
// On success the new state is committed and the fresh Analysis returned; on
// error the session is left exactly as before the call.
func (s *Session) Update(units []minic.NamedSource) (*Analysis, error) {
	rec := s.opts.Obs
	var tm Timings

	// ---- Parse: re-parse only units whose source hash changed, in
	// parallel per translation unit. All parsing happens before any
	// shared AST is touched, so a syntax error in a later unit cannot
	// leak partial state; conc.ForEach's lowest-index error contract
	// keeps the reported error independent of the worker count.
	sp := rec.Phase("parse")
	t0 := time.Now()
	hashes := make([]string, len(units))
	parsed := make([]*parsedUnit, len(units))
	var toParse []int
	for i, u := range units {
		h := minic.HashSource(u.Name, u.Src)
		hashes[i] = h
		if pu, ok := s.files[h]; ok {
			parsed[i] = pu
		} else {
			toParse = append(toParse, i)
		}
	}
	if s.analysis != nil && slices.Equal(hashes, s.unitKeys) {
		// Nothing changed since the committed Update: its Analysis stands.
		// Only what describes this call — timings, artifact outcome — is
		// fresh; with a store, a segment write that failed at that commit
		// gets its retry, as on every Update.
		a := *s.analysis
		a.Timings = Timings{Parse: time.Since(t0)}
		a.Artifacts = ArtifactStats{Hits: len(s.order)}
		sp.End()
		if s.store != nil {
			t0 = time.Now()
			s.ring, _ = persistChanged(s.store, rec, s.order, s.artifacts, s.progFP, s.ring)
			a.Timings.StoreSave = time.Since(t0)
		}
		if rec != nil {
			rec.Counter("build.artifact.hits").Add(int64(a.Artifacts.Hits))
		}
		s.analysis, s.stats = &a, a.Artifacts
		return &a, nil
	}
	// Hashing the declarations walks the unit's AST like parsing does, so
	// it rides the same fan-out.
	if err := conc.ForEach(len(toParse), s.opts.Workers, func(w, j int) error {
		i := toParse[j]
		end := perFunc(rec, w, "build.parse", units[i].Name)
		f, err := minic.ParseFile(units[i].Name, units[i].Src)
		end()
		if err != nil {
			return fmt.Errorf("parse: parsing %s: %w", units[i].Name, err)
		}
		parsed[i] = &parsedUnit{file: f, unit: -1}
		parsed[i].index(i)
		return nil
	}); err != nil {
		return nil, err
	}
	files := make([]*minic.File, len(units))
	for i, pu := range parsed {
		pu.index(i) // a no-op unless a known unit moved
		files[i] = pu.file
	}
	tm.Parse = time.Since(t0)
	sp.End()

	prog := &minic.Program{Files: files}
	sigs := lower.Sigs(prog)
	structs := lower.Structs(prog)
	globalTypes := make(map[string]minic.Type)
	for _, f := range files {
		for _, g := range f.Globals {
			globalTypes[g.Name] = g.Type
		}
	}

	// ---- Program-shape fingerprint: globals, structs, and the unit list
	// are whole-program inputs to lowering; any change invalidates every
	// artifact (rare, and cheap to detect).
	progFP := programShapeFP(files)
	shapeChanged := progFP != s.progFP

	// ---- Function table, duplicate detection, AST-level dirtiness,
	// assembled serially in declaration order.
	nDecls := 0
	for _, f := range files {
		nDecls += len(f.Funcs)
	}
	fnStates := make([]fnState, 0, nDecls)
	for _, pu := range parsed {
		for i, fn := range pu.file.Funcs {
			fnStates = append(fnStates, fnState{decl: fn, astHash: pu.astHash[i], callees: pu.callees[i]})
		}
	}
	order := make([]string, 0, len(fnStates))
	states := make(map[string]*fnState, len(fnStates))
	var stats ArtifactStats
	for i := range fnStates {
		st := &fnStates[i]
		fn := st.decl
		if prev, ok := states[fn.Name]; ok {
			return nil, fmt.Errorf("lower: duplicate function %q (at %s and %s)", fn.Name, prev.decl.Pos, fn.Pos)
		}
		if !shapeChanged {
			st.old = s.artifacts[fn.Name]
		}
		states[fn.Name] = st
		order = append(order, fn.Name)
	}
	// ---- Warm-load: the first Update of a session reads the persistent
	// store's artifact segments in one pass (a restarted server arrives
	// here with an empty in-memory map). Segments carry the program-shape
	// fingerprint they were built under, so a shape change reads as a miss
	// — the same rule shapeChanged applies to the in-memory map. Any
	// decode failure (truncated, bit-flipped, stale codec) is also just a
	// miss: corruption costs a rebuild, never a wrong artifact.
	ring := s.ring
	if s.store != nil && !s.storeLoaded {
		sp := rec.Phase("store.load")
		t0 := time.Now()
		var loaded map[string]*funcArtifact
		loaded, ring = loadSegments(s.store, progFP, rec)
		for _, name := range order {
			st := states[name]
			if st.old != nil {
				continue
			}
			if art := loaded[name]; art != nil {
				st.old = art
				stats.StoreHits++
			}
		}
		if rec != nil {
			rec.Counter("store.artifact.loads").Add(int64(stats.StoreHits))
		}
		tm.StoreLoad = time.Since(t0)
		sp.End()
	}

	dirty := func(st *fnState) bool {
		return st.old == nil || st.old.astHash != st.astHash
	}
	// committed: every st.old is an artifact of this session's previous
	// Update, not one warm-loaded from the store.
	committed := s.analysis != nil

	// ---- Module shell: globals must exist before any lowering (lowering
	// resolves global references through the module).
	m := ir.NewModule()
	m.ByName = make(map[string]*ir.Func, len(order))
	m.Units = len(files)
	for _, f := range files {
		for _, g := range f.Globals {
			m.AddGlobal(&ir.Global{Name: g.Name, Type: g.Type})
		}
	}

	// ---- Wavefront: everything between parsing and commit — lowering,
	// SSA, the Mod/Ref frontier recompute, connector fingerprints, the
	// connector transform, and PTA+SEG — runs as one dependency-counting
	// wavefront over the condensed AST call graph (see DESIGN.md
	// "Parallel build pipeline"). Three node kinds:
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
	// the happens-before edge). Summary merges are commutative set
	// unions and everything after the wavefront assembles in canonical
	// declaration order, so output is byte-identical at any worker count.
	var lowerNs, ssaNs, modrefNs, transformNs, ptaNs, segNs int64
	lowerOne := func(w int, name string) error {
		st := states[name]
		t1 := time.Now()
		endL := perFunc(rec, w, "build.lower", name)
		lf, err := lower.FuncWith(m, st.decl, sigs, structs)
		endL()
		atomic.AddInt64(&lowerNs, int64(time.Since(t1)))
		if err != nil {
			return fmt.Errorf("lower: %w", err)
		}
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
		if st, ok := states[name]; ok {
			return st.finalFn
		}
		return nil
	}
	runSCC := func(w int, scc []string) error {
		// Mod/Ref: recompute only the frontier. A clean SCC none of whose
		// external callees changed their summary keeps its old fixpoint.
		// Callee sumChanged flags are final: their S-nodes completed.
		t1 := time.Now()
		recompute := false
		for _, name := range scc {
			st := states[name]
			if dirty(st) || st.old.sum == nil {
				recompute = true
				break
			}
			for _, c := range st.callees {
				if cs, ok := states[c]; ok && cs.sumChanged {
					recompute = true
					break
				}
			}
			if recompute {
				break
			}
		}
		if !recompute {
			for _, name := range scc {
				st := states[name]
				st.sum, st.sumFP = st.old.sum, st.old.sumFP
			}
			atomic.AddInt64(&modrefNs, int64(time.Since(t1)))
		} else {
			atomic.AddInt64(&modrefNs, int64(time.Since(t1)))
			for _, name := range scc {
				st := states[name]
				if st.fn == nil {
					// Scratch-lower a clean member so its summary can be
					// recomputed; the result doubles as the rebuild IR if
					// dependency fingerprints later turn out to have
					// changed.
					if err := lowerOne(w, name); err != nil {
						return err
					}
				}
				st.sum = modref.NewSummary()
			}
			lookup := func(callee string) *modref.Summary {
				if st, ok := states[callee]; ok {
					return st.sum
				}
				return nil
			}
			t1 = time.Now()
			for changed := true; changed; {
				changed = false
				for _, name := range scc {
					if modref.AnalyzeFunc(states[name].fn, states[name].sum, lookup) {
						changed = true
					}
				}
			}
			for _, name := range scc {
				st := states[name]
				st.sumFP = st.sum.Fingerprint()
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
		for _, name := range scc {
			st := states[name]
			if committed && !dirty(st) && !st.sumChanged {
				st.sigFP = st.old.sigFP
			} else {
				st.sigFP = s.signatureFP(st, globalTypes)
			}
			st.sigMoved = st.old == nil || st.old.sigFP != st.sigFP
		}
		calleeSigMoved := func(st *fnState) bool {
			for _, c := range st.callees {
				if cs, ok := states[c]; ok {
					if cs.sigMoved {
						return true
					}
				} else if s.artifacts[c] != nil {
					return true // was defined, now external
				}
			}
			return false
		}
		sigOf := func(callee string) string {
			if st, ok := states[callee]; ok {
				return st.sigFP
			}
			return "extern"
		}
		for _, name := range scc {
			st := states[name]
			if committed && !dirty(st) && !st.sigMoved && !calleeSigMoved(st) {
				st.depFP = st.old.depFP
			} else {
				h := sha256.New()
				fmt.Fprintf(h, "self\x00%s\x00", st.sigFP)
				for _, c := range st.callees {
					fmt.Fprintf(h, "callee\x00%s\x00%s\x00", c, sigOf(c))
				}
				st.depFP = hex.EncodeToString(h.Sum(nil))[:24]
			}
			st.rebuild = dirty(st) || st.old.depFP != st.depFP
		}

		// Lower the clean members pulled in by dependency changes (edited
		// callee signatures) and pick what enters the committed module:
		// retained functions keep their old IR — scratch-lowered copies
		// made for summary recomputation are deliberately discarded.
		for _, name := range scc {
			st := states[name]
			if st.rebuild && st.fn == nil {
				if err := lowerOne(w, name); err != nil {
					return err
				}
			}
			if st.rebuild {
				st.finalFn, st.finalInfo = st.fn, st.info
			} else {
				st.finalFn, st.finalInfo = st.old.fn, st.old.info
			}
		}

		// Extend rebuilt members' signatures now so dependent S- and
		// F-nodes read final aux specs; bodies are rewritten in F-nodes.
		if !s.opts.DisableConnectors {
			t1 = time.Now()
			for _, name := range scc {
				st := states[name]
				if st.rebuild {
					st.prep = transform.Prep(m, st.finalFn, st.sum)
				}
			}
			atomic.AddInt64(&transformNs, int64(time.Since(t1)))
		}
		return nil
	}
	runFinish := func(w int, name string) error {
		st := states[name]
		if !st.rebuild {
			return nil
		}
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
		pr, err := pta.Analyze(f, st.finalInfo, s.opts.PTA)
		endPTA()
		atomic.AddInt64(&ptaNs, int64(time.Since(t1)))
		if err != nil {
			return fmt.Errorf("pta %s: %w", name, err)
		}
		t1 = time.Now()
		endSEG := perFunc(rec, w, "build.seg", name)
		g := seg.Build(f, st.finalInfo, pr)
		endSEG()
		atomic.AddInt64(&segNs, int64(time.Since(t1)))
		st.art = &funcArtifact{
			astHash:   st.astHash,
			sumFP:     st.sumFP,
			sigFP:     st.sigFP,
			depFP:     st.depFP,
			decl:      st.decl,
			callees:   st.callees,
			sum:       st.sum,
			fn:        f,
			info:      st.finalInfo,
			seg:       g,
			segNodes:  g.NumNodes(),
			segEdges:  g.NumEdges(),
			condNodes: st.finalInfo.Conds.NumNodes(),
			ptaStats:  pr.Stats,
		}
		return nil
	}

	// DAG layout: [0,nL) L-nodes for AST-dirty functions, [nL,nL+nS)
	// S-nodes in astSCCs' callee-first order, [nL+nS,nL+nS+len(order))
	// F-nodes in declaration order.
	sccs := astSCCs(order, states)
	var dirtyNames []string
	for _, name := range order {
		if dirty(states[name]) {
			dirtyNames = append(dirtyNames, name)
		}
	}
	nL, nS := len(dirtyNames), len(sccs)
	lIdx := make(map[string]int, nL)
	for i, name := range dirtyNames {
		lIdx[name] = i
	}
	sccIdx := make(map[string]int, len(order))
	for j, scc := range sccs {
		for _, name := range scc {
			sccIdx[name] = j
		}
	}
	deps := make([][]int, nL+nS+len(order))
	for j, scc := range sccs {
		node := nL + j
		seen := map[int]bool{node: true}
		for _, name := range scc {
			if li, ok := lIdx[name]; ok {
				deps[node] = append(deps[node], li)
			}
			for _, c := range states[name].callees {
				if jj, ok := sccIdx[c]; ok {
					if d := nL + jj; !seen[d] {
						seen[d] = true
						deps[node] = append(deps[node], d)
					}
				}
			}
		}
	}
	for k, name := range order {
		deps[nL+nS+k] = []int{nL + sccIdx[name]}
	}

	sp = rec.Phase("wavefront")
	t0 = time.Now()
	width, err := conc.Wavefront(len(deps), deps, s.opts.Workers, func(w, i int) error {
		switch {
		case i < nL:
			return lowerOne(w, dirtyNames[i])
		case i < nL+nS:
			return runSCC(w, sccs[i-nL])
		default:
			return runFinish(w, order[i-nL-nS])
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
	if cpu := lowerNs + ssaNs + modrefNs + transformNs + ptaNs + segNs; cpu > 0 {
		scale := float64(wavefrontWall) / float64(cpu)
		stage := func(ns int64) time.Duration { return time.Duration(float64(ns) * scale) }
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

	// ---- Account the store and assemble the module in declaration
	// order, mixing retained and rebuilt functions. Retained functions
	// already carry their final aux signatures, which is exactly what
	// rebuilt callers' call sites read during the wavefront.
	for _, name := range order {
		st := states[name]
		switch {
		case !st.rebuild:
			stats.Hits++
		case s.artifacts[name] != nil:
			stats.Invalidated++
		default:
			stats.Misses++
		}
		m.AddFunc(st.finalFn)
	}

	// ---- Commit: from here on nothing can fail.
	newArts := make(map[string]*funcArtifact, len(order))
	for _, name := range order {
		st := states[name]
		if st.rebuild {
			newArts[name] = st.art
			continue
		}
		// Retain the built IR/SEG but refresh the metadata: the firewall
		// keeps artifacts alive across summary changes whose signature is
		// stable, so the stored summary must be this update's, not the
		// one the artifact was originally built under. Most of the time
		// nothing moved and the committed artifact serves as it is.
		if old := st.old; old.decl == st.decl && old.sum == st.sum &&
			old.sumFP == st.sumFP && old.sigFP == st.sigFP && old.depFP == st.depFP {
			newArts[name] = old
			continue
		}
		art := *st.old
		art.astHash, art.decl, art.callees = st.astHash, st.decl, st.callees
		art.sum, art.sumFP, art.sigFP, art.depFP = st.sum, st.sumFP, st.sigFP, st.depFP
		newArts[name] = &art
	}

	// ---- Persist: bundle every artifact whose on-disk record is missing
	// or stale into one segment — a delta holding just the change set, or
	// a rewritten full snapshot when the delta ring is exhausted or the
	// change touched most of the program. Store errors are swallowed —
	// persistence buys warmth, and a failed write must not fail a build
	// that already succeeded.
	if s.store != nil {
		sp := rec.Phase("store.save")
		t0 := time.Now()
		ring, _ = persistChanged(s.store, rec, order, newArts, progFP, ring)
		tm.StoreSave = time.Since(t0)
		sp.End()
	}

	a := &Analysis{
		Module:    m,
		Infos:     make(map[*ir.Func]*ssa.Info, len(order)),
		SEGs:      make(map[*ir.Func]*seg.Graph, len(order)),
		ModRef:    &modref.Result{Summaries: make(map[*ir.Func]*modref.Summary, len(order))},
		Timings:   tm,
		Artifacts: stats,
	}
	for _, name := range order {
		art := newArts[name]
		a.Infos[art.fn] = art.info
		a.SEGs[art.fn] = art.seg
		a.ModRef.Summaries[art.fn] = art.sum
		a.PTAStats.Add(art.ptaStats)
		a.Sizes.SEGNodes += art.segNodes
		a.Sizes.SEGEdges += art.segEdges
		a.Sizes.CondNodes += art.condNodes
	}
	a.Sizes.Lines = m.LineCount()
	a.Sizes.Functions = len(order)

	if s.persistDetect {
		var prev *detect.Program
		if s.analysis != nil {
			prev = s.analysis.Prog
		}
		a.Prog = detect.NewProgramFrom(prev, m, a.Infos, a.SEGs)
	} else {
		a.Prog = detect.NewProgram(m, a.Infos, a.SEGs)
	}

	if rec != nil {
		rec.Counter("build.artifact.hits").Add(int64(stats.Hits))
		rec.Counter("build.artifact.misses").Add(int64(stats.Misses))
		rec.Counter("build.artifact.invalidated").Add(int64(stats.Invalidated))
		emitBuildMetrics(rec, a)
	}

	s.files = make(map[string]*parsedUnit, len(parsed))
	for i, h := range hashes {
		s.files[h] = parsed[i]
	}
	s.unitKeys = hashes
	s.progFP = progFP
	s.artifacts = newArts
	s.order = order
	s.analysis = a
	s.stats = stats
	if s.store != nil {
		s.storeLoaded = true
		s.ring = ring
	}
	return a, nil
}

// persistChanged bundles every artifact whose on-disk record is missing or
// stale into one segment — a delta holding just the change set, or a
// rewritten full snapshot when the delta ring is exhausted or the change
// touched most of the program. Store errors are swallowed — persistence
// buys warmth, and a failed write must not fail a build that already
// succeeded. Returns the advanced ring state and the number of artifacts
// persisted.
func persistChanged(st store.Store, rec *obs.Recorder, order []string, arts map[string]*funcArtifact, progFP string, ring segState) (segState, int) {
	var changed []string
	for _, name := range order {
		art := arts[name]
		if art.persistedMeta != artifactMeta(progFP, art) {
			changed = append(changed, name)
		}
	}
	if len(changed) == 0 {
		return ring, 0
	}
	full := !ring.hasFull || ring.deltas >= maxDeltaSegments || 2*len(changed) >= len(order)
	key, names := segFullKey, order
	if !full {
		key, names = segDeltaKey(ring.deltas), changed
	}
	data, err := encodeSegment(progFP, ring.next, names, arts)
	if err != nil {
		return ring, 0
	}
	if err := st.Put(store.NSArtifact, key, data); err != nil {
		return ring, 0
	}
	for _, name := range names {
		art := arts[name]
		art.persistedMeta = artifactMeta(progFP, art)
	}
	ring.next++
	if full {
		ring.deltas, ring.hasFull = 0, true
	} else {
		ring.deltas++
	}
	if rec != nil {
		rec.Counter("store.artifact.saves").Add(int64(len(names)))
	}
	return ring, len(changed)
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
	ring, n := persistChanged(s.store, s.opts.Obs, s.order, s.artifacts, s.progFP, s.ring)
	s.ring = ring
	return n
}

// signatureFP fingerprints a function's post-transform interface: return
// type, parameter types, and the aux specs the connector transformation
// will add for its summary. Everything a call site's lowering and rewriting
// reads from a callee is in here.
func (s *Session) signatureFP(st *fnState, globals map[string]minic.Type) string {
	var b strings.Builder
	b.WriteString("ret=")
	b.WriteString(st.decl.Ret.String())
	b.WriteString(";params=")
	ptypes := make([]minic.Type, len(st.decl.Params))
	for i, p := range st.decl.Params {
		ptypes[i] = p.Type
		b.WriteString(p.Type.String())
		b.WriteByte(',')
	}
	if !s.opts.DisableConnectors {
		in, out := transform.ConnectorSpecs(ptypes, globals, st.sum)
		b.WriteString(";aux=")
		for _, sp := range in {
			fmt.Fprintf(&b, "i%d@%s.%d,", sp.Root, sp.Global, sp.Depth)
		}
		for _, sp := range out {
			fmt.Fprintf(&b, "o%d@%s.%d,", sp.Root, sp.Global, sp.Depth)
		}
	}
	return b.String()
}

// programShapeFP fingerprints the whole-program lowering inputs: every
// global (order, name, type) and every struct layout. Unit identity is
// deliberately absent — it is already part of each function's AST hash
// (unit index plus file-qualified positions), so adding or removing a
// translation unit invalidates only the functions it actually repositions.
func programShapeFP(files []*minic.File) string {
	h := sha256.New()
	for _, f := range files {
		for _, g := range f.Globals {
			fmt.Fprintf(h, "global\x00%s\x00%s\x00", g.Name, g.Type)
		}
		for _, sd := range f.Structs {
			fmt.Fprintf(h, "struct\x00%s\x00", sd.Name)
			for _, fld := range sd.Fields {
				fmt.Fprintf(h, "field\x00%s\x00%s\x00", fld.Name, fld.Type)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// astSCCs computes strongly connected components of the AST-level call
// graph (name → defined callee names) in bottom-up, callee-first order.
func astSCCs(order []string, states map[string]*fnState) [][]string {
	index := make(map[string]int, len(order))
	low := make(map[string]int, len(order))
	onStack := make(map[string]bool, len(order))
	var stack []string
	var sccs [][]string
	counter := 0

	var strongconnect func(name string)
	strongconnect = func(name string) {
		index[name] = counter
		low[name] = counter
		counter++
		stack = append(stack, name)
		onStack[name] = true
		for _, c := range states[name].callees {
			if _, defined := states[c]; !defined {
				continue
			}
			if _, seen := index[c]; !seen {
				strongconnect(c)
				if low[c] < low[name] {
					low[name] = low[c]
				}
			} else if onStack[c] && index[c] < low[name] {
				low[name] = index[c]
			}
		}
		if low[name] == index[name] {
			var scc []string
			for {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[n] = false
				scc = append(scc, n)
				if n == name {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, name := range order {
		if _, seen := index[name]; !seen {
			strongconnect(name)
		}
	}
	return sccs
}
