package pta

// Andersen-style global points-to analysis: whole-program, inclusion-based,
// flow- and context-insensitive. This is the substrate of the "layered"
// SVF baseline (paper §5.1): precise enough to build a full sparse
// value-flow graph, imprecise enough to fall into the "pointer trap" — its
// results conflate stores and loads across contexts and branches, blowing
// the value-flow graph up with spurious edges.
//
// The solver is a standard worklist over a constraint graph:
//
//	address-of   p ⊇ {loc}
//	copy         p ⊇ q
//	load         p ⊇ *q   (for each loc in pts(q): edge contents(loc) → p)
//	store        *p ⊇ q   (for each loc in pts(p): edge q → contents(loc))
//
// Call and return bindings are copy edges (direct calls only).
//
// It is whole-program, so it names a value by its function's ID and its
// value ID (a Var), and keys its relations by Var in maps; the solver's
// synthetic content proxies are Vars of no function. It is a baseline for the
// §5 comparisons, not part of the cold pipeline.

import (
	"repro/internal/ir"
)

// Var names a value of a module: the ID of its function and its value ID.
type Var struct{ Fn, Val int32 }

// AndersenResult holds the global points-to relation.
type AndersenResult struct {
	// Pts maps SSA pointer values to abstract locations.
	Pts map[Var]map[Loc]bool
	// Locs lists every location, in the order the program names it first.
	Locs []Loc
	// Iterations counts worklist rounds (a cost indicator).
	Iterations int
	// TimedOut reports that the work budget was exhausted before the
	// fixpoint; the relation is a sound-but-partial under-approximation
	// of the full result's cost (the harness treats it as a timeout).
	TimedOut bool
}

// PointsTo returns the points-to set of v (nil-safe).
func (r *AndersenResult) PointsTo(v Var) map[Loc]bool { return r.Pts[v] }

// Alias reports whether two pointers may alias (overlapping points-to
// sets).
func (r *AndersenResult) Alias(a, b Var) bool {
	pa, pb := r.Pts[a], r.Pts[b]
	if len(pa) > len(pb) {
		pa, pb = pb, pa
	}
	for l := range pa {
		if pb[l] {
			return true
		}
	}
	return false
}

// andersenSolver is the constraint-graph state.
type andersenSolver struct {
	pts      map[Var]map[Loc]bool
	succs    map[Var]map[Var]bool // copy edges
	loadsOf  map[Var][]Var        // q -> loads p = *q
	storesOf map[Var][]Var        // p -> stores *p = q
	contents map[Loc]Var          // contents proxy node per loc
	work     []Var
	inWork   map[Var]bool
	rounds   int
}

// Andersen runs the global analysis over a module (typically one built
// without the connector transformation — the baseline pipeline) with no
// work budget.
func Andersen(m *ir.Module) *AndersenResult {
	return AndersenWithBudget(m, 0)
}

// AndersenWithBudget bounds the solver's propagation work (counted in
// worklist pops plus points-to set insertions); 0 means unlimited. An
// exhausted budget marks the result TimedOut.
func AndersenWithBudget(m *ir.Module, budget int) *AndersenResult {
	s := &andersenSolver{
		pts:      make(map[Var]map[Loc]bool),
		succs:    make(map[Var]map[Var]bool),
		loadsOf:  make(map[Var][]Var),
		storesOf: make(map[Var][]Var),
		contents: make(map[Loc]Var),
		inWork:   make(map[Var]bool),
	}

	proxyID := int32(-1)
	proxy := func(l Loc) Var {
		if v, ok := s.contents[l]; ok {
			return v
		}
		v := Var{Fn: -1, Val: proxyID}
		proxyID--
		s.contents[l] = v
		return v
	}

	var locs []Loc
	named := make(map[Loc]bool)
	addPts := func(v Var, l Loc) {
		if !named[l] {
			named[l] = true
			locs = append(locs, l)
		}
		set := s.pts[v]
		if set == nil {
			set = make(map[Loc]bool)
			s.pts[v] = set
		}
		if !set[l] {
			set[l] = true
			s.push(v)
		}
	}
	addEdge := func(from, to Var) {
		es := s.succs[from]
		if es == nil {
			es = make(map[Var]bool)
			s.succs[from] = es
		}
		if !es[to] {
			es[to] = true
			if len(s.pts[from]) > 0 {
				s.push(from)
			}
		}
	}

	// Collect base constraints.
	for _, f := range m.Funcs {
		fn := int32(f.ID)
		at := func(v int32) Var { return Var{fn, v} }
		for _, p := range f.Params {
			if p.Type.IsPointer() {
				addPts(at(p.ID), Loc{Kind: LExt, Fn: fn, Site: p.ID})
			}
		}
		for _, in := range f.Order() {
			r, args := f.In(in), f.Args(in)
			switch r.Op {
			case ir.OpAlloc:
				addPts(at(r.Dst), Loc{Kind: LAlloc, Fn: fn, Site: in})
			case ir.OpMalloc:
				addPts(at(r.Dst), Loc{Kind: LMalloc, Fn: fn, Site: in})
			case ir.OpGlobalAddr:
				addPts(at(r.Dst), Loc{Kind: LGlobal, Name: f.Sub(in)})
			case ir.OpCopy, ir.OpUn, ir.OpFieldAddr:
				// Field addresses collapse to the base object in the
				// field-insensitive baseline.
				addEdge(at(args[0]), at(r.Dst))
			case ir.OpBin:
				addEdge(at(args[0]), at(r.Dst))
				addEdge(at(args[1]), at(r.Dst))
			case ir.OpPhi:
				for _, a := range args {
					addEdge(at(a), at(r.Dst))
				}
			case ir.OpLoad:
				s.loadsOf[at(args[0])] = append(s.loadsOf[at(args[0])], at(r.Dst))
				s.push(at(args[0]))
			case ir.OpStore:
				s.storesOf[at(args[0])] = append(s.storesOf[at(args[0])], at(args[1]))
				s.push(at(args[0]))
			case ir.OpCall:
				if m.Lookup(f.Callee(in)) != nil {
					CallBinds(m, f, in, func(from, to Var) error { addEdge(from, to); return nil })
					continue
				}
				for _, d := range f.Dsts(in) {
					if d >= 0 && f.Type(d).IsPointer() {
						addPts(at(d), Loc{Kind: LExt, Fn: fn, Site: d})
					}
				}
			}
		}
	}

	// Worklist solving with dynamic load/store edges.
	timedOut := false
	for len(s.work) > 0 {
		if budget > 0 && s.rounds > budget {
			timedOut = true
			break
		}
		v := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		s.inWork[v] = false
		s.rounds++
		// Propagate along copy edges.
		for to := range s.succs[v] {
			if s.union(to, v) {
				s.push(to)
			}
		}
		// Complex constraints keyed by v as a pointer operand.
		for l := range s.pts[v] {
			if l.Kind == LNull {
				continue
			}
			pv := proxy(l)
			for _, dst := range s.loadsOf[v] {
				addEdge(pv, dst)
			}
			for _, src := range s.storesOf[v] {
				addEdge(src, pv)
			}
		}
	}
	return &AndersenResult{Pts: s.pts, Locs: locs, Iterations: s.rounds, TimedOut: timedOut}
}

// CallBinds calls bind for every copy call instruction in of f makes in m:
// each actual to its formal, each return operand to its receiver (the aux
// ones to the aux receivers). A call to an external binds nothing. It
// returns bind's first error.
func CallBinds(m *ir.Module, f *ir.Func, in int32, bind func(from, to Var) error) error {
	callee := m.Lookup(f.Callee(in))
	if callee == nil {
		return nil
	}
	fn, cfn := int32(f.ID), int32(callee.ID)
	for i, a := range f.Args(in) {
		if i < len(callee.Params) {
			if err := bind(Var{fn, a}, Var{cfn, callee.Params[i].ID}); err != nil {
				return err
			}
		}
	}
	rets, dsts := callee.Args(callee.Term(callee.Exit)), f.Dsts(in)
	auxStart := len(rets) - len(callee.AuxOut)
	for ri, rv := range rets {
		d := 0
		if ri >= auxStart {
			d = 1 + ri - auxStart
		}
		if d < len(dsts) && dsts[d] >= 0 {
			if err := bind(Var{cfn, rv}, Var{fn, dsts[d]}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *andersenSolver) push(v Var) {
	if !s.inWork[v] {
		s.inWork[v] = true
		s.work = append(s.work, v)
	}
}

// union adds pts(src) into pts(dst); it reports whether dst grew.
func (s *andersenSolver) union(dst, src Var) bool {
	sp := s.pts[src]
	if len(sp) == 0 {
		return false
	}
	dp := s.pts[dst]
	if dp == nil {
		dp = make(map[Loc]bool, len(sp))
		s.pts[dst] = dp
	}
	grew := false
	for l := range sp {
		if !dp[l] {
			dp[l] = true
			grew = true
			s.rounds++ // insertions dominate cost; they count toward the budget
		}
	}
	return grew
}
