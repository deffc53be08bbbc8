// Package pta implements Pinpoint's local, quasi path-sensitive points-to
// analysis (§3.1.1), the first stage of the holistic design.
//
// The analysis runs per function, after the connector transformation, on an
// acyclic SSA CFG. It tracks:
//
//   - the guarded points-to set of every SSA pointer value: pairs (location,
//     condition) over abstract locations (stack slots, heap allocations,
//     globals, and opaque "external" locations for connector roots);
//   - the guarded contents of every location: pairs (value, condition)
//     stating "under this condition the location holds this value".
//
// Conditions are boolean DAGs over branch atoms. At control-flow joins,
// pairs arriving from different predecessors are guarded with the join
// gates (the same conditions gating φ operands); contradictory guards are
// pruned by the linear-time solver of package cond — never by the SMT
// solver, which is the point: about 70% of path conditions built here are
// satisfiable and will be solved again at the bug-finding stage anyway
// (paper §3.1.1), so filtering only the "easy" unsatisfiable ones removes
// redundant work without paying SMT costs twice.
//
// The key product consumed by SEG construction is LoadSources: for every
// load, the guarded set of stored values that may reach it — the
// memory-induced data-dependence edges of the SEG.
package pta

import (
	"fmt"
	"slices"

	"repro/internal/cond"
	"repro/internal/dense"
	"repro/internal/ir"
	"repro/internal/ssa"
)

// LocKind discriminates abstract memory locations.
type LocKind uint8

const (
	// LAlloc is a stack slot (per OpAlloc site).
	LAlloc LocKind = iota
	// LMalloc is a heap object (per OpMalloc site).
	LMalloc
	// LGlobal is a global variable's cell.
	LGlobal
	// LExt is the opaque pointee of an external root pointer (a
	// parameter, aux parameter, or call-received pointer). Distinct
	// roots are assumed unaliased (paper §4.2).
	LExt
	// LNull is the null pseudo-location.
	LNull
)

// Loc is an abstract memory location.
type Loc struct {
	Kind LocKind
	// Fn is the ID of the function of the site (the whole-program analysis
	// names sites of every function; the local one leaves it 0), and Site
	// the ID of the site in it: the alloc/malloc instruction (LAlloc,
	// LMalloc), the root value (LExt).
	Fn, Site int32
	Name     string // global name (LGlobal)
	// Field distinguishes struct fields of locally-allocated objects
	// ("" = the whole object / non-struct cell). External and global
	// objects collapse their fields (the connector model is
	// field-insensitive across function boundaries; see DESIGN.md).
	Field string
}

func (l Loc) String() string {
	base := ""
	switch l.Kind {
	case LAlloc:
		base = fmt.Sprintf("alloc#%d", l.Site)
	case LMalloc:
		base = fmt.Sprintf("malloc#%d", l.Site)
	case LGlobal:
		base = "@" + l.Name
	case LExt:
		base = fmt.Sprintf("ext(v%d)", l.Site)
	default:
		base = "null"
	}
	if l.Field != "" {
		base += "." + l.Field
	}
	return base
}

// GuardedLoc is a location with the condition under which it is pointed to.
type GuardedLoc struct {
	Loc  Loc
	Cond *cond.Cond
}

// GuardedVal is a stored value with the condition under which it is the
// content of a location (or, in LoadSources, flows to the load).
type GuardedVal struct {
	Val  int32 // value ID
	Cond *cond.Cond
}

// Options tunes the analysis; the zero value is the paper configuration.
type Options struct {
	// DisableLinearSolver turns off infeasible-guard pruning (ablation:
	// "what if we never filtered easy-unsat conditions").
	DisableLinearSolver bool
}

// condSizeCap bounds guard sizes, in condition nodes; larger guards widen to
// true.
const condSizeCap = 64

// Stats reports analysis effort counters.
type Stats struct {
	// GuardsPruned counts guarded pairs dropped as apparently unsat.
	GuardsPruned int
	// GuardsKept counts guarded pairs that survived feasibility checks.
	GuardsKept int
	// CapWidened counts guards widened to true by the size cap.
	CapWidened int
	// LinearQueries/LinearUnsat mirror the linear solver counters.
	LinearQueries int
	LinearUnsat   int
}

// Add accumulates o into s — the cross-function aggregation used by the
// pipeline driver and the benchmarks.
func (s *Stats) Add(o Stats) {
	s.GuardsPruned += o.GuardsPruned
	s.GuardsKept += o.GuardsKept
	s.CapWidened += o.CapWidened
	s.LinearQueries += o.LinearQueries
	s.LinearUnsat += o.LinearUnsat
}

// String renders the counters in the shape cmd/pinpoint's -stats output
// uses.
func (s Stats) String() string {
	return fmt.Sprintf("%d guards kept, %d pruned, %d widened by cap; %d linear queries (%d unsat)",
		s.GuardsKept, s.GuardsPruned, s.CapWidened, s.LinearQueries, s.LinearUnsat)
}

// Result is the per-function analysis result, which the SEG's construction
// reads (and detection never does). Its tables are keyed by the IR's dense
// IDs; an assigned nil list is a result ("not a pointer", "no sources"), not
// an absence.
type Result struct {
	Fn   *ir.Func
	Info *ssa.Info
	// locs holds the guarded points-to set of each pointer value, by
	// value ID, and past the numVals value IDs, by numVals + instruction ID, each
	// store's guarded target locations — the points-to set of its address,
	// so the two share the list.
	locs dense.Lists[GuardedLoc]
	// loadSources holds, by instruction ID, the guarded values reaching each load.
	loadSources dense.Lists[GuardedVal]
	numVals     int32
	Stats       Stats
}

// PointsTo returns the guarded points-to set computed for value v (nil if v
// is not a pointer or was never reached).
func (r *Result) PointsTo(v int32) []GuardedLoc {
	if v >= r.numVals {
		return nil
	}
	p, _ := r.locs.Get(int(v))
	return p
}

// LoadSources returns the guarded values reaching load instruction in.
func (r *Result) LoadSources(in int32) []GuardedVal {
	vs, _ := r.loadSources.Get(int(in))
	return vs
}

// StoredAt returns store instruction in's guarded target locations.
func (r *Result) StoredAt(in int32) []GuardedLoc {
	ls, _ := r.locs.Get(int(r.numVals + in))
	return ls
}

// state is the memory state at a program point: the contents of every
// location written so far. A function touches a handful of locations, so
// the state is a short list searched linearly — cheaper to clone at every
// block than a map keyed by the (string-carrying) Loc is to hash.
type state []locContents

type locContents struct {
	loc  Loc
	vals []GuardedVal // copy-on-write; see transferStore
}

func (s state) clone() state { return append(state(nil), s...) }

func (s state) find(l Loc) (int, bool) {
	for i := range s {
		if s[i].loc == l {
			return i, true
		}
	}
	return 0, false
}

func (s state) get(l Loc) []GuardedVal {
	if i, ok := s.find(l); ok {
		return s[i].vals
	}
	return nil
}

func (s *state) set(l Loc, vals []GuardedVal) {
	if i, ok := s.find(l); ok {
		(*s)[i].vals = vals
		return
	}
	*s = append(*s, locContents{loc: l, vals: vals})
}

type analyzer struct {
	f    *ir.Func
	inf  *ssa.Info
	res  *Result
	ls   *cond.LinearSolver
	opts Options
}

// Analyze runs the quasi path-sensitive points-to analysis on f.
func Analyze(f *ir.Func, inf *ssa.Info, opts Options) (*Result, error) {
	a := &analyzer{
		f:   f,
		inf: inf,
		res: &Result{
			Fn: f, Info: inf, numVals: int32(f.NumValues()),
			locs:        dense.NewLists[GuardedLoc](f.NumValues() + f.NumInstrs()),
			loadSources: dense.NewLists[GuardedVal](f.NumInstrs()),
		},
		ls:   cond.NewLinearSolver(),
		opts: opts,
	}

	exits := make([]state, f.NumBlocks()) // by block ID
	// Transform has checked that the CFG is acyclic.
	order, _ := f.TopoOrder()
	for _, b := range order {
		st := a.mergePreds(b, exits)
		for _, in := range f.Instrs(b) {
			a.transfer(&st, in)
		}
		exits[b] = st
	}
	a.res.Stats.LinearQueries = a.ls.Queries
	a.res.Stats.LinearUnsat = a.ls.Unsat
	return a.res, nil
}

// feasible checks (and conjoins) a guard; pruned guards return ok=false.
func (a *analyzer) feasible(parts ...*cond.Cond) (*cond.Cond, bool) {
	c := a.inf.Conds.And(parts...)
	if c.IsFalse() {
		a.res.Stats.GuardsPruned++
		return c, false
	}
	if !a.opts.DisableLinearSolver && a.ls.ApparentlyUnsat(c) {
		a.res.Stats.GuardsPruned++
		return a.inf.Conds.False(), false
	}
	a.res.Stats.GuardsKept++
	if cond.Size(c) > condSizeCap {
		a.res.Stats.CapWidened++
		return a.inf.Conds.True(), true
	}
	return c, true
}

// mergePreds computes the block-entry state from predecessor exits, gating
// pairs with the join gates. Pairs identical across all predecessors pass
// through untouched to keep conditions compact.
func (a *analyzer) mergePreds(b int32, exits []state) state {
	preds := a.f.Preds(b)
	switch len(preds) {
	case 0:
		return nil
	case 1:
		return exits[preds[0]].clone()
	}
	gates := a.inf.JoinGates(b)
	var out state
	for _, p := range preds {
		for _, lc := range exits[p] {
			l := lc.loc
			if _, done := out.find(l); done {
				continue // merged when an earlier predecessor mentioned it
			}
			// Fast path: identical slices in all preds.
			first := exits[preds[0]].get(l)
			same := true
			for _, q := range preds[1:] {
				if !slices.Equal(exits[q].get(l), first) {
					same = false
					break
				}
			}
			if same {
				if first != nil {
					out = append(out, locContents{loc: l, vals: first})
				}
				continue
			}
			var merged []GuardedVal
			for i, q := range preds {
				g := gates[i]
				for _, gv := range exits[q].get(l) {
					c, ok := a.feasible(gv.Cond, g)
					if !ok {
						continue
					}
					merged = append(merged, GuardedVal{Val: gv.Val, Cond: c})
				}
			}
			out = append(out, locContents{loc: l, vals: dedupGuarded(a.inf.Conds, merged)})
		}
	}
	return out
}

// dedupGuarded groups pairs by value, Or-ing their conditions. The lists are
// a handful of entries long, so a scan beats any index.
func dedupGuarded(cb *cond.Builder, in []GuardedVal) []GuardedVal {
	if len(in) < 2 {
		return in
	}
	out := in[:0]
next:
	for _, gv := range in {
		for i := range out {
			if out[i].Val == gv.Val {
				out[i].Cond = cb.Or(out[i].Cond, gv.Cond)
				continue next
			}
		}
		out = append(out, gv)
	}
	return out
}

// ptsOf returns the guarded points-to set of v, computing the base cases
// for parameters and constants lazily.
func (a *analyzer) ptsOf(v int32) []GuardedLoc {
	if p, ok := a.res.locs.Get(int(v)); ok {
		return p
	}
	var p []GuardedLoc
	switch {
	case a.f.Value(v).Kind == ir.VConstNull:
		p = []GuardedLoc{{Loc: Loc{Kind: LNull}, Cond: a.inf.Conds.True()}}
	case a.f.Type(v).IsPointer():
		// A parameter, or an opaque pointer with no recorded definition
		// semantics.
		p = a.ext(v)
	}
	a.res.locs.Put(int(v), p)
	return p
}

// ext is the points-to set of a root pointer v: its own opaque pointee.
func (a *analyzer) ext(v int32) []GuardedLoc {
	return []GuardedLoc{{Loc: Loc{Kind: LExt, Site: v}, Cond: a.inf.Conds.True()}}
}

func (a *analyzer) setPTS(v int32, p []GuardedLoc) {
	a.res.locs.Put(int(v), dedupLocs(a.inf.Conds, p))
}

func dedupLocs(cb *cond.Builder, in []GuardedLoc) []GuardedLoc {
	if len(in) < 2 {
		return in
	}
	out := in[:0]
next:
	for _, gl := range in {
		for i := range out {
			if out[i].Loc == gl.Loc {
				out[i].Cond = cb.Or(out[i].Cond, gl.Cond)
				continue next
			}
		}
		out = append(out, gl)
	}
	return out
}

func (a *analyzer) transfer(st *state, in int32) {
	f := a.f
	r, args := f.In(in), f.Args(in)
	tr := a.inf.Conds.True()
	switch r.Op {
	case ir.OpAlloc:
		a.setPTS(r.Dst, []GuardedLoc{{Loc: Loc{Kind: LAlloc, Site: in}, Cond: tr}})
	case ir.OpMalloc:
		a.setPTS(r.Dst, []GuardedLoc{{Loc: Loc{Kind: LMalloc, Site: in}, Cond: tr}})
	case ir.OpGlobalAddr:
		a.setPTS(r.Dst, []GuardedLoc{{Loc: Loc{Kind: LGlobal, Name: f.Sub(in)}, Cond: tr}})
	case ir.OpFieldAddr:
		// Field-sensitive for local objects: the field address denotes a
		// distinct cell of the base object. Opaque (external/global)
		// objects keep a single collapsed cell, matching the
		// field-insensitive connector interface.
		var p []GuardedLoc
		for _, gl := range a.ptsOf(args[0]) {
			switch gl.Loc.Kind {
			case LNull:
				continue
			case LAlloc, LMalloc:
				nl := gl.Loc
				nl.Field = f.Sub(in)
				p = append(p, GuardedLoc{Loc: nl, Cond: gl.Cond})
			default:
				p = append(p, gl)
			}
		}
		if len(p) == 0 {
			p = a.ext(r.Dst)
		}
		a.setPTS(r.Dst, p)
	case ir.OpCopy, ir.OpUn:
		if f.Type(r.Dst).IsPointer() {
			a.setPTS(r.Dst, a.ptsOf(args[0]))
		}
	case ir.OpBin:
		if f.Type(r.Dst).IsPointer() {
			// Pointer arithmetic: the result may point wherever either
			// operand points (array elements collapse).
			var p []GuardedLoc
			for _, arg := range args {
				if f.Type(arg).IsPointer() {
					p = append(p, a.ptsOf(arg)...)
				}
			}
			a.setPTS(r.Dst, p)
		}
	case ir.OpPhi:
		if f.Type(r.Dst).IsPointer() {
			var p []GuardedLoc
			for i, arg := range args {
				g := a.inf.Gate(in, i)
				for _, gl := range a.ptsOf(arg) {
					c, ok := a.feasible(gl.Cond, g)
					if !ok {
						continue
					}
					p = append(p, GuardedLoc{Loc: gl.Loc, Cond: c})
				}
			}
			a.setPTS(r.Dst, p)
		}
	case ir.OpLoad:
		a.transferLoad(st, in, args[0], r.Dst)
	case ir.OpStore:
		a.transferStore(st, in, args[0], args[1])
	case ir.OpCall:
		for _, d := range f.Dsts(in) {
			if d >= 0 && f.Type(d).IsPointer() {
				a.setPTS(d, a.ext(d))
			}
		}
	}
}

func (a *analyzer) transferLoad(st *state, in, addr, dst int32) {
	addrPts := a.ptsOf(addr)
	var sources []GuardedVal
	for _, gl := range addrPts {
		if gl.Loc.Kind == LNull {
			continue
		}
		for _, gv := range st.get(gl.Loc) {
			c, ok := a.feasible(gl.Cond, gv.Cond)
			if !ok {
				continue
			}
			sources = append(sources, GuardedVal{Val: gv.Val, Cond: c})
		}
	}
	sources = dedupGuarded(a.inf.Conds, sources)
	a.res.loadSources.Put(int(in), sources)

	if a.f.Type(dst).IsPointer() {
		var p []GuardedLoc
		for _, gv := range sources {
			for _, gl := range a.ptsOf(gv.Val) {
				c, ok := a.feasible(gl.Cond, gv.Cond)
				if !ok {
					continue
				}
				p = append(p, GuardedLoc{Loc: gl.Loc, Cond: c})
			}
		}
		if len(p) == 0 {
			// Unknown content: opaque pointee.
			p = a.ext(dst)
		}
		a.setPTS(dst, p)
	}
}

func (a *analyzer) transferStore(st *state, in, addr, v int32) {
	addrPts := a.ptsOf(addr)
	a.res.locs.Put(int(a.res.numVals+in), addrPts)
	if len(addrPts) == 1 && addrPts[0].Cond.IsTrue() && addrPts[0].Loc.Kind != LNull {
		// Strong update: in an acyclic CFG every location is a
		// singleton, so a must-aliased store kills prior contents.
		st.set(addrPts[0].Loc, []GuardedVal{{Val: v, Cond: a.inf.Conds.True()}})
		return
	}
	for _, gl := range addrPts {
		if gl.Loc.Kind == LNull {
			continue
		}
		old := st.get(gl.Loc)
		// Copy-on-write: never mutate a slice shared with another
		// block's state.
		nv := make([]GuardedVal, 0, len(old)+1)
		nv = append(nv, old...)
		nv = append(nv, GuardedVal{Val: v, Cond: gl.Cond})
		st.set(gl.Loc, dedupGuarded(a.inf.Conds, nv))
	}
}
