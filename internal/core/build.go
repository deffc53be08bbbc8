package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/dense"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/obs"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/ssa"
	"repro/internal/transform"
)

// timing names one Timings field: one stage of the build's partition.
type timing int

const (
	tParse timing = iota
	tStoreLoad
	tPlan
	tLower
	tSSA
	tModRef
	tTransform
	tPTA
	tSEG
	tCommit
	tStoreSave
	numTimings
)

// timingNames name the fields' counters "phase.<name>_ns", and for a stage
// timed per function its histogram "build.<name>.func_ns" and spans "<name>:<func>".
var timingNames = [numTimings]string{"parse", "store.load", "plan", "lower", "ssa", "modref", "transform", "pta", "seg", "commit", "store.save"}

var phaseCounters, funcHistograms [numTimings]string

func init() {
	for f, name := range timingNames {
		phaseCounters[f], funcHistograms[f] = "phase."+name+"_ns", "build."+name+".func_ns"
	}
}

// A stage is one step of an Update: run does its work when runs (nil: always)
// says it has some. The driver times the stage once and books the time to
// field, less what the stage carved out for other fields — or, for the
// wavefront (field -1), whose work overlaps across workers, splits it over
// the fields in proportion to the CPU time its nodes charged to each.
type stage struct {
	name  string
	field timing
	runs  func(*build) bool
	run   func(*build) error
}

var stages = [...]stage{
	{"parse", tParse, nil, (*build).parse},
	{"store.load", tStoreLoad, (*build).warm, (*build).warmLoad},
	{"plan", tPlan, (*build).edited, (*build).plan},
	{"wavefront", -1, (*build).edited, (*build).wavefront},
	{"commit", tCommit, nil, (*build).commit},
	{"store.save", tStoreSave, (*build).stored, (*build).save},
}

// beforeStage, when set (tests set it), runs before each stage an Update runs.
var beforeStage func(name string)

// build is one Update in progress, in the fields its stages write in turn.
// Each stage reads what the stages before it wrote; none writes the session
// before commit, so an Update that fails leaves the session as it was.
type build struct {
	s     *Session
	units []minic.NamedSource
	rec   *obs.Recorder
	tm    [numTimings]time.Duration
	stats ArtifactStats
	part  [numTimings]time.Duration // what the running stage spent on other fields' work
	cpu   [numTimings]atomic.Int64  // what the wavefront's nodes charged to each field

	parsed      []*parsedUnit
	kept        *minic.File // the tree of keptUnit, the highest-index unit parsed (see decl)
	keptArena   *minic.Arena
	keptUnit    int
	arenas      []*minic.Arena // by worker: the syntax tree it parsed last
	sums        []digest       // by unit, of those the session does not know; nil without a store
	unchanged   bool           // every unit is the committed one: the committed Analysis stands
	unitsKnown  int            // by the session or the store, going into the build
	unitsParsed atomic.Int64
	funcsParsed atomic.Int64

	loaded map[string]*funcArtifact // what the store offers; nil unless read
	ring   segState

	tab          *funcTable
	shape        *progShape
	patch        bool // the committed tables stand
	shapeChanged bool
	dirtyIDs     []int32
	affected     []int32 // SCC indexes, ascending (callee-first)
	snode        idIndex // by SCC: nonzero when affected, then 1 + the node of its S-node
	positions    []int32 // of the states' functions, ascending
	states       []fnState
	visit        idIndex // function ID → 1 + index into states
	m            *ir.Module
	retType      func(string) (minic.Type, bool)
	nodes        []wnode
	deps         [][]int
	scratch      [][]byte // by worker: what a fingerprint is rendered into

	a       *Analysis
	built   pta.Stats // summed over the functions this Update built
	changed []int32   // artifacts the store may not hold
}

func (b *build) warm() bool   { return !b.unchanged && b.s.store != nil && !b.s.storeLoaded }
func (b *build) edited() bool { return !b.unchanged }
func (b *build) stored() bool { return b.s.store != nil }

// Update analyzes units incrementally against the session's previous state.
// On success the new state is committed and the fresh Analysis returned; on
// error the session is left exactly as before the call.
func (s *Session) Update(units []minic.NamedSource) (*Analysis, error) {
	b := &build{s: s, units: units, rec: s.opts.Obs, ring: s.ring, keptUnit: -1, arenas: make([]*minic.Arena, conc.Workers(s.opts.Workers))}
	for i := range stages {
		st := &stages[i]
		if st.runs != nil && !st.runs(b) {
			continue
		}
		if beforeStage != nil {
			beforeStage(st.name)
		}
		t0 := time.Now()
		err := st.run(b)
		b.book(st, t0, time.Since(t0))
		if err != nil {
			return nil, err
		}
	}
	tm := &b.tm
	b.a.Timings = Timings{Parse: tm[tParse], Plan: tm[tPlan], Lower: tm[tLower], SSA: tm[tSSA],
		ModRef: tm[tModRef], Transform: tm[tTransform], PTA: tm[tPTA], SEG: tm[tSEG], Commit: tm[tCommit],
		StoreLoad: tm[tStoreLoad], StoreSave: tm[tStoreSave]}
	s.analysis, s.stats = b.a, b.a.Artifacts
	return b.a, nil
}

// book adds one stage's wall clock d to the Timings fields and to their phase
// counters, and traces the stage.
func (b *build) book(st *stage, t0 time.Time, d time.Duration) {
	by, rest := b.part, d
	if st.field >= 0 {
		for _, x := range b.part {
			rest -= x
		}
		by[st.field] += rest
	} else {
		total := int64(0)
		for f := range b.cpu {
			total += b.cpu[f].Load()
		}
		for f := range by {
			by[f] = time.Duration(float64(d) * float64(b.cpu[f].Load()) / float64(max(total, 1)))
		}
		if total == 0 {
			by[tModRef] = d // a wavefront with no node to run: its scheduler's time
		}
	}
	for f, x := range by {
		if x != 0 {
			b.tm[f] += x
			b.rec.Counter(phaseCounters[f]).Add(int64(x))
		}
		b.cpu[f].Store(0)
	}
	b.part = [numTimings]time.Duration{}
	b.rec.Event(0, st.name, t0, d)
}

// carve books the time since t0, which the running stage spent on field f's
// work, to f.
func (b *build) carve(f timing, t0 time.Time) {
	d := time.Since(t0)
	b.part[f] += d
	b.rec.Event(0, timingNames[f], t0, d)
}

// perFunc charges the CPU time since t0 to field f. For work on one named
// function or unit (fn) it also observes the field's per-function histogram
// and, when tracing, puts a span on worker w's track.
func (b *build) perFunc(w int, f timing, fn string, t0 time.Time) {
	d := time.Since(t0)
	b.cpu[f].Add(int64(d))
	if rec := b.rec; rec != nil && fn != "" {
		rec.Histogram(funcHistograms[f]).Observe(int64(d))
		if rec.Tracing() {
			rec.Event(w+1, timingNames[f]+":"+fn, t0, d)
		}
	}
}

// parse finds out which units the session knows. One whose source is the
// bytes the session holds is known by its facts and is not parsed: a function
// of it that has to be lowered is parsed alone (see decl). With a store, a unit
// is also known across processes, by the digest of its name and bytes: the
// first Update of a session looks the others up in the store's facts records,
// and a unit found there is not parsed either. The rest are parsed.
func (b *build) parse() error {
	s, units := b.s, b.units
	b.parsed = make([]*parsedUnit, len(units))
	var toParse []int
	b.unchanged = s.analysis != nil && len(units) == len(s.units)
	for i, u := range units {
		if pu := s.files[u.Name]; pu != nil && pu.src == u.Src {
			b.parsed[i] = pu
		} else {
			toParse = append(toParse, i)
		}
		b.unchanged = b.unchanged && b.parsed[i] == s.units[i]
	}
	if s.store != nil && !b.unchanged {
		t0 := time.Now()
		b.sums = make([]digest, len(units))
		_ = conc.ForEach(len(toParse), s.opts.Workers, func(_, j int) error { // nothing in it fails
			i := toParse[j]
			b.sums[i] = unitDigest(units[i].Name, units[i].Src)
			return nil
		})
		if !s.storeLoaded {
			known := loadUnitFacts(s.store, s.opts.Workers, b.rec)
			rest := toParse[:0]
			for _, i := range toParse {
				if pu := known[b.sums[i]]; pu != nil && pu.name == units[i].Name {
					pu.src, pu.shape = units[i].Src, pu.unitFacts.shape()
					b.parsed[i] = pu
					b.stats.UnitsLoaded++
				} else {
					rest = append(rest, i)
				}
			}
			toParse = rest
		}
		b.carve(tStoreLoad, t0)
	}
	b.unitsKnown = len(units) - len(toParse)
	return b.parseUnits(toParse)
}

// parseUnits parses the units which, in parallel per unit, and derives their
// facts: hashing the declarations walks the unit's AST like parsing does, so
// it rides the same fan-out. Each tree dies with the next parse on its
// worker's arena, but for the highest-index unit's, which is kept: a
// one-unit program, or edit, is then parsed once. conc.ForEach's
// lowest-index error contract keeps the reported error independent of the
// worker count.
func (b *build) parseUnits(which []int) error {
	keep := -1
	if n := len(which); n > 0 && which[n-1] > b.keptUnit {
		keep = which[n-1]
	}
	return conc.ForEach(len(which), b.s.opts.Workers, func(w, j int) error {
		i, u := which[j], b.units[which[j]]
		a := b.arena(w)
		t0 := time.Now()
		f, err := a.ParseFile(u.Name, u.Src)
		b.perFunc(w, tParse, u.Name, t0)
		if err != nil {
			return fmt.Errorf("parse: parsing %s: %w", u.Name, err)
		}
		b.unitsParsed.Add(1)
		if i == keep { // the last index: no later parse here reuses the arena
			for _, fn := range f.Funcs {
				fn.Unit = i
			}
			b.kept, b.keptArena, b.keptUnit, b.arenas[w] = f, a, i, nil
		}
		var like *unitFacts // an edited unit mostly declares what it did
		if was := b.s.files[u.Name]; was != nil {
			like = &was.unitFacts
		}
		pu := &parsedUnit{name: u.Name, src: u.Src, unitFacts: factsOf(f, like, !b.s.oneShot)}
		pu.shape = pu.unitFacts.shape()
		if b.sums != nil {
			pu.sum = b.sums[i]
		}
		b.parsed[i] = pu
		return nil
	})
}

// arenaPool lends Updates the arenas they parse into: a tree dies with the
// next parse on its arena, and all of them when the wavefront gives the
// arenas back.
var arenaPool = sync.Pool{New: func() any { return new(minic.Arena) }}

func (b *build) arena(w int) *minic.Arena {
	if b.arenas[w] == nil {
		b.arenas[w] = arenaPool.Get().(*minic.Arena)
	}
	return b.arenas[w]
}

// decl returns the declaration of the function to lower: from the kept tree,
// or parsed from its unit's source, starting at its name, into worker w's
// arena — it is due for lowering for its own edit or for a callee's changed
// summary or signature. The parse must declare what the unit's facts say.
func (b *build) decl(w int, st *fnState) (*minic.FuncDecl, error) {
	if int(st.unit) == b.keptUnit {
		return b.kept.Funcs[st.k], nil
	}
	u, k := b.units[st.unit], int(st.k)
	t0 := time.Now()
	decl, err := b.arena(w).ParseFunc(u.Src, st.pu.pos(k), int(st.off), st.pu.ret(k))
	b.perFunc(w, tParse, st.name(), t0)
	if err == nil && decl.Name != st.name() {
		err = &minic.Error{Pos: decl.Pos, Msg: fmt.Sprintf("%s declared where the unit's facts say %s", decl.Name, st.name())}
	}
	if err != nil {
		return nil, fmt.Errorf("parse: parsing %s: %w", u.Name, err)
	}
	decl.Unit = int(st.unit)
	b.funcsParsed.Add(1)
	return decl, nil
}

// warmLoad is the first Update's read of the store's artifact segments, in
// one pass (a restarted server arrives here with no artifacts in memory).
// Segments carry the program-shape fingerprint they were built under, so a
// shape change reads as a miss — the same rule shapeChanged applies to the
// in-memory artifacts. Any decode failure (truncated, bit-flipped, stale
// codec) is also just a miss: corruption costs a rebuild, never a wrong
// artifact.
func (b *build) warmLoad() error {
	s := b.s
	fp := shapeFP(b.parsed)
	b.loaded, b.ring = loadSegments(s.store, fp, s.opts.Workers, b.rec)
	// Stored facts are believed as far as the stored artifacts bear them out:
	// a unit known by them (stored, here, since nothing else is yet) must
	// declare exactly the functions the artifacts of its unit index were
	// built from, hash for hash. One that does not is parsed after all.
	perUnit := make([]int, len(b.units))
	for _, art := range b.loaded {
		if u := int(art.astHash.unit); u < len(perUnit) {
			perUnit[u]++
		}
	}
	borneOut := func(pu *parsedUnit, i int) bool {
		for k := range pu.funcs {
			if art := b.loaded[pu.funcs[k].name]; art == nil || art.astHash != pu.astKey(k, i) {
				return false
			}
		}
		return perUnit[i] == len(pu.funcs)
	}
	var suspect []int
	for i, pu := range b.parsed {
		if pu.stored && !borneOut(pu, i) {
			suspect = append(suspect, i)
		}
	}
	if len(suspect) == 0 {
		return nil
	}
	b.stats.UnitsLoaded -= len(suspect)
	b.unitsKnown -= len(suspect)
	t0 := time.Now()
	err := b.parseUnits(suspect)
	b.carve(tParse, t0)
	if err != nil {
		return err
	}
	if f := shapeFP(b.parsed); f != fp {
		b.loaded, b.ring = loadSegments(s.store, f, s.opts.Workers, b.rec)
	}
	return nil
}

// plan lays out the build: the program-level tables, the affected functions
// and their states, and the wavefront that builds them.
func (b *build) plan() error {
	if err := b.tables(); err != nil {
		return err
	}
	// An artifact the store offers under a name the program does not define
	// — here, or when an edit drops a name — makes the next segment a full
	// snapshot (see segState.stale).
	if b.loaded != nil {
		for name := range b.loaded {
			b.ring.stale = b.ring.stale || b.tab.lay.ID(name) < 0
		}
	} else if b.s.store != nil && b.tab != b.s.tab {
		for _, name := range b.s.tab.names {
			b.ring.stale = b.ring.stale || b.tab.lay.ID(name) < 0
		}
	}
	b.affect()
	b.fnStates()
	b.layout()
	return nil
}

// tables decides which program-level tables the edit leaves valid. They all
// are when every unit either is the committed one or declares the same
// functions and the same shape as the committed unit at its position, with
// every edited function calling what it called. Then the functions to look at
// are those of the changed units and whatever can reach an edited one;
// otherwise the tables are rebuilt and every function is looked at, as on the
// first Update.
func (b *build) tables() (err error) {
	s, parsed := b.s, b.parsed
	b.tab, b.shape = s.tab, s.shape
	b.patch = s.analysis != nil && len(parsed) == len(s.units)
	for i := 0; b.patch && i < len(parsed); i++ {
		pu, was := parsed[i], s.units[i]
		if pu == was {
			continue
		}
		base := b.tab.unitStart[i]
		if b.patch = pu.shape == was.shape && len(pu.funcs) == int(b.tab.unitStart[i+1]-base); !b.patch {
			break
		}
		b.stats.Visited += len(pu.funcs)
		for k := range pu.funcs {
			id := b.tab.ids[int(base)+k]
			if pu.funcs[k].name != b.tab.names[int(base)+k] {
				b.patch = false
			} else if pu.astKey(k, i) != s.arts[id].astHash {
				b.patch = slices.Equal(pu.calleesOf(k), was.calleesOf(k))
				b.dirtyIDs = append(b.dirtyIDs, id)
			}
			if !b.patch {
				break
			}
		}
	}
	if b.patch {
		return nil
	}
	if b.tab, err = newFuncTable(parsed, s.tab); err != nil {
		return err
	}
	if b.shape = newProgShape(parsed); s.shape != nil && b.shape.fp == s.shape.fp {
		b.shape = s.shape
	}
	b.shapeChanged = b.shape != s.shape
	return nil
}

// affect finds the affected functions, by declaration position: all of them,
// or the members of the SCCs from which an edited function is reachable.
func (b *build) affect() {
	tab := b.tab
	b.snode = newIDIndex(len(tab.sccs), b.patch)
	if b.patch {
		for _, id := range b.dirtyIDs {
			if j := tab.sccOf[id]; b.snode.get(j) == 0 {
				b.snode.set(j, 1)
				b.affected = append(b.affected, j)
			}
		}
		for i := 0; i < len(b.affected); i++ {
			for _, j := range tab.callers.Of(b.affected[i]) {
				if b.snode.get(j) == 0 {
					b.snode.set(j, 1)
					b.affected = append(b.affected, j)
				}
			}
		}
		slices.Sort(b.affected)
	} else {
		b.affected = make([]int32, len(tab.sccs))
		for j := range b.affected {
			b.affected[j] = int32(j)
		}
	}
	for _, j := range b.affected {
		for _, id := range tab.sccs[j] {
			b.positions = append(b.positions, int32(tab.lay.Pos(int(id))))
		}
	}
	slices.Sort(b.positions)
}

// fnStates makes the affected functions' states, in declaration order, from
// the units' facts and the artifacts each may keep: its committed one, or one
// the store offers.
func (b *build) fnStates() {
	s, tab := b.s, b.tab
	b.states = make([]fnState, len(b.positions))
	b.visit = newIDIndex(tab.lay.NumIDs(), b.patch)
	unit, line, at := 0, int32(1), 0 // a line of the unit's source, and its offset
	for i, pos := range b.positions {
		for tab.unitStart[unit+1] <= pos {
			unit, line, at = unit+1, 1, 0
		}
		pu, k := b.parsed[unit], int(pos-tab.unitStart[unit])
		st := &b.states[i]
		*st = fnState{id: tab.ids[pos], unit: int32(unit), k: int32(k), pu: pu}
		for ; unit != b.keptUnit && line < pu.funcs[k].line; line++ {
			at += strings.IndexByte(b.units[unit].Src[at:], '\n') + 1
		}
		st.off = int32(at) + pu.funcs[k].col - 1 // columns count bytes
		st.astHash = pu.astKey(k, unit)
		b.visit.set(st.id, int32(i+1))
		if st.had = s.tab != nil && (b.patch || s.tab.lay.ID(st.name()) >= 0); st.had && !b.shapeChanged {
			st.old = s.arts[st.id]
		}
		if st.old == nil && b.loaded != nil {
			if art := b.loaded[st.name()]; art != nil {
				art.fn.ID = int(st.id)
				st.old = art
				b.stats.StoreHits++
			}
		}
		st.dirty = st.old == nil || st.old.astHash != st.astHash
		if b.patch && b.parsed[unit] == s.units[unit] {
			b.stats.Visited++ // not of a changed unit, so not counted yet
		}
	}
	if !b.patch {
		b.stats.Visited = len(b.states)
	}
	if b.loaded != nil {
		b.rec.Counter("store.artifact.loads").Add(int64(b.stats.StoreHits))
	}
	b.loaded = nil // what the program uses of it is in the states now
}

// idIndex maps IDs — of functions, or of SCCs — to int32s, 0 for an ID it
// does not hold: an array over every ID for a build that looks at every
// function, a map for a patching one, so that an edit's build does not make
// arrays the size of the program.
type idIndex struct {
	all  []int32
	some map[int32]int32
}

func newIDIndex(n int, sparse bool) idIndex {
	if sparse {
		return idIndex{some: make(map[int32]int32)}
	}
	return idIndex{all: make([]int32, n)}
}

func (x *idIndex) get(id int32) int32 {
	if x.some != nil {
		return x.some[id]
	}
	return x.all[id]
}

func (x *idIndex) set(id, v int32) {
	if x.some != nil {
		x.some[id] = v
	} else {
		x.all[id] = v
	}
}

// wnode is one node of the build wavefront.
type wnode struct {
	kind byte // 'L', 'S' or 'F'
	i    int  // into states; the SCC for an S-node
}

// layout lays the wavefront out SCC by SCC in the condensation's callee-first
// order: the SCC's L-nodes (its AST-dirty members), then its S-node, then its
// F-nodes, members in declaration order. The wavefront runs the lowest-index
// ready node first, so it finishes the functions of an SCC — and drops their
// bodies — before it lowers the next SCC's: the bodies alive at once are those
// of the SCCs in flight, not the program's.
func (b *build) layout() {
	tab := b.tab
	// The module shell: lowering resolves global references through it; the
	// functions are filled in at commit.
	b.m = &ir.Module{Layout: tab.lay, Globals: b.shape.globals, GlobalByName: b.shape.globalByName, Units: len(b.units)}
	b.retType = tab.retType(b.parsed)
	b.scratch = make([][]byte, conc.Workers(b.s.opts.Workers))
	b.nodes = make([]wnode, 0, 2*len(b.states)+len(b.affected))
	b.deps = make([][]int, 0, cap(b.nodes))
	var members []int
	for _, j := range b.affected {
		members = members[:0]
		for _, id := range tab.sccs[j] {
			members = append(members, int(b.visit.get(id)-1))
		}
		slices.Sort(members)
		var sdeps []int
		for _, i := range members {
			if b.states[i].dirty {
				sdeps = append(sdeps, len(b.nodes))
				b.nodes, b.deps = append(b.nodes, wnode{'L', i}), append(b.deps, nil)
			}
		}
		for _, jj := range tab.callees.Of(j) {
			if d := b.snode.get(jj); d != 0 {
				sdeps = append(sdeps, int(d-1))
			}
		}
		s := len(b.nodes)
		b.snode.set(j, int32(s+1))
		b.nodes, b.deps = append(b.nodes, wnode{'S', int(j)}), append(b.deps, sdeps)
		for _, i := range members {
			b.nodes, b.deps = append(b.nodes, wnode{'F', i}), append(b.deps, []int{s})
		}
	}
}

// fnState is the per-function bookkeeping of one Update in progress, kept
// for the functions the Update looks at. During the build wavefront each
// field is written only by the node that owns it (the function's L-node, its
// SCC's S-node, or its F-node) and read by dependent nodes after that node
// completed — the scheduler's dependency edges provide the happens-before
// ordering.
type fnState struct {
	id      int32
	unit, k int32         // the declaring unit and the declaration's index in it
	off     int32         // where in the unit's source the declaration's name starts
	pu      *parsedUnit   // that unit: the function's name, signature and callees
	old     *funcArtifact // nil when new or program-shape invalidated
	had     bool          // the committed program defines the name
	dirty   bool          // no old artifact, or its AST hash differs

	// funcMeta describes the artifact this Update makes: the AST hash, then
	// what the S-node settles — the function entering the committed module,
	// its summary and the fingerprints — which callers' nodes read.
	funcMeta
	sumChanged bool
	sigMoved   bool // no previous artifact, or its sigFP differs
	rebuild    bool
	lowered    *ir.Func           // freshly lowered this update (nil if not lowered)
	info       *ssa.Info          // SSA info of lowered
	prep       *transform.Prepped // extended signature awaiting body rewrite
	art        *funcArtifact      // the artifact to commit
}

func (st *fnState) name() string      { return st.pu.funcs[st.k].name }
func (st *fnState) callees() []string { return st.pu.calleesOf(int(st.k)) }

// extern is what a caller reads of a name no function defines.
var extern = &funcMeta{sigFP: "extern"}

// callee finds what a called name stands for: the state of a function this
// Update looks at, with its funcMeta as far as its S-node settled it; else the
// funcMeta of the committed artifact of one it does not look at — which
// nothing in this Update can change — or, for an external, extern.
func (b *build) callee(name string) (*fnState, *funcMeta) {
	id := b.tab.lay.ID(name)
	switch {
	case id < 0:
		return nil, extern
	case b.visit.get(int32(id)) != 0:
		st := &b.states[b.visit.get(int32(id))-1]
		return st, &st.funcMeta
	}
	return nil, &b.s.arts[id].funcMeta
}

// calleeSumMoved reports whether the summary of a called name changed in this
// Update; calleeSigMoved whether its signature did, or it was defined and is
// now external.
func (b *build) calleeSumMoved(name string) bool {
	cs, _ := b.callee(name)
	return cs != nil && cs.sumChanged
}
func (b *build) calleeSigMoved(name string) bool {
	cs, c := b.callee(name)
	return cs != nil && cs.sigMoved || c == extern && b.s.tab != nil && b.s.tab.lay.ID(name) >= 0
}
func (b *build) fnOf(name string) *ir.Func         { _, c := b.callee(name); return c.fn }
func (b *build) sumOf(name string) *modref.Summary { _, c := b.callee(name); return c.sum }
func (b *build) state(id int32) *fnState           { return &b.states[b.visit.get(id)-1] }

// wavefront runs everything between parsing and commit — lowering, SSA, the
// Mod/Ref frontier recompute, connector fingerprints, the connector transform,
// and PTA+SEG — as one dependency-counting wavefront over the affected part
// of the condensed AST call graph (see DESIGN.md "Parallel build pipeline").
// Three node kinds:
//
//   - an L-node per AST-dirty function lowers and SSA-converts it; L-nodes
//     have no dependencies and run fully parallel;
//   - an S-node per SCC decides whether the Mod/Ref fixpoint must be
//     recomputed, scratch-lowers the clean members it needs, runs the
//     fixpoint, derives signature/dependency fingerprints and the rebuild
//     decision, and extends rebuilt members' signatures; it depends on its
//     members' L-nodes and on its callee S-nodes;
//   - an F-node per function finishes a rebuilt function — call-site
//     rewriting, PTA, SEG, artifact assembly — depending only on its own
//     S-node, so the expensive per-function tail never blocks the
//     interprocedural frontier.
//
// Each node writes only fnState fields it owns and reads callee state
// strictly after the owning node completed; a callee outside the affected set
// is read from its committed artifact. Summary merges are commutative set
// unions and commit assembles in canonical declaration order, so output is
// byte-identical at any worker count.
func (b *build) wavefront() error {
	width, err := conc.Wavefront(len(b.deps), b.deps, b.s.opts.Workers, func(w, i int) error {
		switch nd := b.nodes[i]; nd.kind {
		case 'L':
			return b.lowerFunc(w, &b.states[nd.i])
		case 'S':
			return b.runSCC(w, b.tab.sccs[nd.i])
		default:
			st := &b.states[nd.i]
			err := b.finish(w, st)
			// Of what the function's nodes made, the artifact is all a later
			// node or the commit reads; a scratch lowering dies here.
			st.lowered, st.info, st.prep = nil, nil, nil
			return err
		}
	})
	for _, a := range append(b.arenas, b.keptArena) {
		if a != nil {
			arenaPool.Put(a)
		}
	}
	b.kept, b.keptArena, b.arenas, b.nodes, b.deps = nil, nil, nil, nil, nil // no later stage reads a parse or a node
	if err != nil {
		return err
	}
	b.rec.Gauge("modref.wavefront_width").Set(int64(width))
	return nil
}

// lowerFunc lowers and SSA-converts one function. The IR is all that is read
// of it from here on.
func (b *build) lowerFunc(w int, st *fnState) error {
	decl, err := b.decl(w, st)
	if err != nil {
		return err
	}
	name := decl.Name
	t0 := time.Now()
	lf, err := lower.FuncWith(b.m, decl, b.retType, b.shape.structs)
	b.perFunc(w, tLower, name, t0)
	if err != nil {
		return fmt.Errorf("lower: %w", err)
	}
	lf.ID = int(st.id)
	t0 = time.Now()
	inf, err := ssa.Transform(lf)
	b.perFunc(w, tSSA, name, t0)
	if err != nil {
		return fmt.Errorf("ssa %s: %w", name, err)
	}
	st.lowered, st.info = lf, inf
	return nil
}

// runSCC is an S-node: it settles the interface of the SCC's members and
// decides which of them are rebuilt.
func (b *build) runSCC(w int, scc []int32) error {
	if err := b.summarize(w, scc); err != nil {
		return err
	}
	b.fingerprint(w, scc)

	// Lower the clean members pulled in by dependency changes (edited callee
	// signatures) and pick what enters the committed module: retained
	// functions keep their old IR — scratch-lowered copies made for summary
	// recomputation are deliberately discarded.
	for _, id := range scc {
		st := b.state(id)
		if st.rebuild && st.lowered == nil {
			if err := b.lowerFunc(w, st); err != nil {
				return err
			}
		}
		if st.rebuild {
			st.fn = st.lowered
		} else {
			st.fn = st.old.fn
		}
	}

	// Extend rebuilt members' signatures now so dependent S- and F-nodes read
	// final aux specs; bodies are rewritten in F-nodes.
	if !b.s.opts.DisableConnectors {
		t0 := time.Now()
		for _, id := range scc {
			if st := b.state(id); st.rebuild {
				st.prep = transform.Prep(b.m, st.fn, st.sum)
			}
		}
		b.perFunc(w, tTransform, "", t0)
	}
	return nil
}

// summarize gives the SCC's members their Mod/Ref summaries, recomputing only
// the frontier: a clean SCC none of whose external callees changed their
// summary keeps its old fixpoint. Callee sumChanged flags are final: their
// S-nodes completed.
func (b *build) summarize(w int, scc []int32) error {
	t0 := time.Now()
	recompute := false
	for _, id := range scc {
		st := b.state(id)
		recompute = recompute || st.dirty || st.old.sum == nil || slices.ContainsFunc(st.callees(), b.calleeSumMoved)
	}
	b.perFunc(w, tModRef, "", t0)
	if !recompute {
		for _, id := range scc {
			st := b.state(id)
			st.sum, st.sumFP = st.old.sum, st.old.sumFP
		}
		return nil
	}
	for _, id := range scc {
		st := b.state(id)
		if st.lowered == nil {
			// Scratch-lower a clean member so its summary can be recomputed;
			// the result doubles as the rebuild IR if dependency fingerprints
			// later turn out to have changed.
			if err := b.lowerFunc(w, st); err != nil {
				return err
			}
		}
		st.sum = modref.NewSummary()
	}
	t0 = time.Now()
	for changed := true; changed; {
		changed = false
		for _, id := range scc {
			st := b.state(id)
			if modref.AnalyzeFunc(st.lowered, st.sum, b.sumOf) {
				changed = true
			}
		}
	}
	for _, id := range scc {
		st := b.state(id)
		st.sum = st.sum.Settled()
		b.scratch[w] = st.sum.AppendFingerprint(b.scratch[w][:0])
		st.sumFP = digestOf(b.scratch[w])
		st.sumChanged = st.old == nil || st.old.sumFP != st.sumFP
		if !st.sumChanged && st.old.sum != nil {
			st.sum = st.old.sum // the same summary: the committed one serves
		}
	}
	b.perFunc(w, tModRef, "", t0)
	return nil
}

// fingerprint derives the SCC's connector signatures and dependency
// fingerprints, and with them what is rebuilt. The firewall: a callee whose
// summary changed but whose signature fingerprint did not leaves its callers'
// depFPs — and artifacts — untouched. Callee sigFPs are final (dependency
// S-nodes completed; same-SCC members are fingerprinted in the first loop).
//
// Both are functions of inputs that rarely move: a function whose declaration
// and summary are those of its committed artifact has that artifact's
// signature, and if no callee's signature moved either (appeared,
// disappeared, or changed), its dependency fingerprint too. Only the
// session's own committed state is trusted that far; artifacts warm-loaded
// from the store are re-fingerprinted.
func (b *build) fingerprint(w int, scc []int32) {
	s := b.s
	committed := s.analysis != nil
	for _, id := range scc {
		st := b.state(id)
		if committed && !st.dirty && !st.sumChanged {
			st.sigFP = st.old.sigFP
		} else {
			b.scratch[w] = s.appendSignature(b.scratch[w][:0], st.pu.sig(int(st.k)), st.sum, b.shape.globalTypes)
			st.sigFP = string(b.scratch[w])
		}
		st.sigMoved = st.old == nil || st.old.sigFP != st.sigFP
	}
	for _, id := range scc {
		st := b.state(id)
		if committed && !st.dirty && !st.sigMoved && !slices.ContainsFunc(st.callees(), b.calleeSigMoved) {
			st.depFP = st.old.depFP
		} else {
			buf := append(append(append(b.scratch[w][:0], "self\x00"...), st.sigFP...), 0)
			for _, c := range st.callees() {
				_, ci := b.callee(c)
				buf = append(append(append(buf, "callee\x00"...), c...), 0)
				buf = append(append(buf, ci.sigFP...), 0)
			}
			st.depFP, b.scratch[w] = digestOf(buf), buf
		}
		st.rebuild = st.dirty || st.old.depFP != st.depFP
	}
}

// finish is an F-node: it makes the function's artifact to commit.
func (b *build) finish(w int, st *fnState) error {
	if !st.rebuild {
		// Retain the built IR/SEG but refresh the metadata: the firewall
		// keeps artifacts alive across summary changes whose signature is
		// stable, so the stored summary must be this update's, not the one
		// the artifact was originally built under. Most of the time nothing
		// moved and the committed artifact serves as it is.
		st.art = st.old
		if st.old.funcMeta != st.funcMeta {
			art := *st.old
			art.funcMeta, art.persisted = st.funcMeta, false
			st.art = &art
		}
		return nil
	}
	name := st.name()
	f := st.fn
	if st.prep != nil {
		t0 := time.Now()
		err := st.prep.Rewrite(b.m, b.fnOf)
		b.perFunc(w, tTransform, name, t0)
		if err != nil {
			return fmt.Errorf("transform: transform %s: %w", name, err)
		}
	}
	t0 := time.Now()
	pr, err := pta.Analyze(f, st.info, b.s.opts.PTA)
	b.perFunc(w, tPTA, name, t0)
	if err != nil {
		return fmt.Errorf("pta %s: %w", name, err)
	}
	t0 = time.Now()
	g := seg.Build(f, st.info, pr)
	b.perFunc(w, tSEG, name, t0)
	gs := g.Stats()
	st.art = &funcArtifact{funcMeta: st.funcMeta, seg: g, sizes: newArtifactSizes(Sizes{Lines: f.NumInstrs(), Functions: 1,
		SEGNodes: gs.Nodes, SEGValueNodes: gs.ValueNodes, SEGEdges: gs.Edges, CondNodes: st.info.Conds.NumNodes()}, pr.Stats)}
	// Of the function, callers, detection and the store read only its
	// interface and its SEG from here on.
	if f.Name != b.s.opts.KeepBody {
		f.ReleaseBody()
	}
	return nil
}

// commit makes the build the session's state: from here on nothing can fail.
// An unchanged resubmit keeps the committed Analysis; only what describes
// this call — timings, artifact outcome — is fresh.
func (b *build) commit() error {
	s, rec := b.s, b.rec
	if b.unchanged {
		a := *s.analysis
		a.Artifacts = ArtifactStats{Hits: len(s.tab.ids)}
		b.a, b.changed = &a, s.unsaved
	} else {
		b.assemble()
		emitBuildMetrics(rec, b.a, b.built)
	}
	st := &b.a.Artifacts
	rec.Counter("build.artifact.hits").Add(int64(st.Hits))
	rec.Counter("build.artifact.misses").Add(int64(st.Misses))
	rec.Counter("build.artifact.invalidated").Add(int64(st.Invalidated))
	rec.Counter("build.funcs_visited").Add(int64(st.Visited))
	rec.Counter("build.units_parsed").Add(int64(st.UnitsParsed))
	rec.Counter("build.funcs_parsed").Add(int64(st.FuncsParsed))
	rec.Counter("build.units_known").Add(int64(b.unitsKnown))
	return nil
}

// assemble commits a build. The session's own tables are patched in place
// (or replaced, when rebuilt); the module and the analysis tables are forks of
// the committed ones (dense.Table), which copy only the chunks this build
// writes, so that the Analysis handed out before stays as it was. Retained
// functions already carry their final aux signatures, which is exactly what
// rebuilt callers' call sites read during the wavefront.
func (b *build) assemble() {
	s, m, stats := b.s, b.m, &b.stats
	numIDs := b.tab.lay.NumIDs()
	a := &Analysis{Module: m}
	arts, totals := s.arts, s.totals
	var (
		funcs dense.Table[*ir.Func]
		segs  dense.Table[*seg.Graph]
		sums  dense.Table[*modref.Summary]
	)
	if b.patch {
		// The committed Analysis's tables are forks that own no chunk, and
		// so are these copies: writing one copies what it writes.
		prev := s.analysis
		funcs, segs, sums = prev.Module.FuncTable(), prev.SEGs, prev.Summaries
		b.changed = slices.Clone(s.unsaved)
	} else {
		arts, totals = make([]*funcArtifact, numIDs), sizeTotals{}
		funcs = dense.NewTable[*ir.Func](len(b.states))
		segs, sums = dense.NewTable[*seg.Graph](numIDs), dense.NewTable[*modref.Summary](numIDs)
	}
	var fresh []*ir.Func // functions the committed module does not hold
	for i := range b.states {
		st := &b.states[i]
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
			b.changed = append(b.changed, id)
		}
		if st.rebuild {
			fresh = append(fresh, art.fn)
			b.built.Add(art.sizes.ptaStats())
		}
		arts[id] = art
		setIfMoved(&funcs, int(b.positions[i]), art.fn)
		setIfMoved(&segs, int(id), art.seg)
		setIfMoved(&sums, int(id), art.sum)
	}
	b.states, b.visit = nil, idIndex{} // commit and persist read the committed tables from here on
	stats.Hits = len(b.tab.ids) - stats.Invalidated - stats.Misses
	stats.UnitsParsed, stats.FuncsParsed = int(b.unitsParsed.Load()), int(b.funcsParsed.Load())
	s.arts, s.totals, s.tab, s.shape = arts, totals, b.tab, b.shape
	m.SetFuncs(funcs.Fork())
	a.SEGs, a.Summaries = segs.Fork(), sums.Fork()

	// The units: the session knows those of this request, by their facts.
	// Those at the positions an edit left alone it knew already.
	for i, pu := range s.units {
		if i >= len(b.parsed) || b.parsed[i].name != pu.name {
			delete(s.files, pu.name)
		}
	}
	for i, pu := range b.parsed {
		if i >= len(s.units) || s.units[i] != pu {
			s.files[pu.name] = pu
		}
	}
	s.units = b.parsed

	a.Artifacts, a.Sizes, a.PTAStats = *stats, totals.Sizes, totals.pta
	var prev *detect.Program
	if s.analysis != nil {
		prev = s.analysis.Prog
	}
	a.Prog = detect.NewProgramFrom(prev, m, a.SEGs, fresh)
	b.a = a
}

// setIfMoved writes entry i of t unless it holds v already: a write copies
// the entry's chunk, and most of what an edit looks at it leaves as it was.
func setIfMoved[T comparable](t *dense.Table[T], i int, v T) {
	if t.At(i) != v {
		t.Set(i, v)
	}
}

// save bundles every artifact whose on-disk record is missing or stale into
// one segment (see Session.persist); with the committed state, a write that
// failed at an earlier commit gets its retry, as on every Update.
func (b *build) save() error {
	b.s.storeLoaded, b.s.ring = true, b.ring
	b.s.persist(b.changed)
	return nil
}
