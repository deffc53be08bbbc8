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
// This is the one analysis in the package keyed by value *pointers*: it is
// whole-program, and Value.IDs are dense only within one function, so a
// module-wide relation (plus the solver's synthetic content proxies, which
// carry negative IDs) has no integer key to index a slice with. It is a
// baseline for the §5 comparisons, not part of the cold pipeline.

import (
	"repro/internal/ir"
	"repro/internal/minic"
)

// AndersenResult holds the global points-to relation.
type AndersenResult struct {
	// Pts maps SSA pointer values to abstract locations (a map: values
	// of every function, see the file comment).
	Pts map[*ir.Value]map[Loc]bool
	// Contents maps each location to the values stored in it anywhere in
	// the program.
	Contents map[Loc]map[*ir.Value]bool
	// Iterations counts worklist rounds (a cost indicator).
	Iterations int
	// TimedOut reports that the work budget was exhausted before the
	// fixpoint; the relation is a sound-but-partial under-approximation
	// of the full result's cost (the harness treats it as a timeout).
	TimedOut bool
}

// PointsTo returns the points-to set of v (nil-safe).
func (r *AndersenResult) PointsTo(v *ir.Value) map[Loc]bool { return r.Pts[v] }

// Alias reports whether two pointers may alias (overlapping points-to
// sets).
func (r *AndersenResult) Alias(a, b *ir.Value) bool {
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

// andersenSolver is the constraint-graph state; its relations span all
// functions of the module, hence pointer-keyed maps (see the file comment).
type andersenSolver struct {
	pts      map[*ir.Value]map[Loc]bool
	succs    map[*ir.Value]map[*ir.Value]bool // copy edges
	loadsOf  map[*ir.Value][]*ir.Value        // q -> loads p = *q
	storesOf map[*ir.Value][]*ir.Value        // p -> stores *p = q
	contents map[Loc]*ir.Value                // contents proxy node per loc
	contentV map[*ir.Value]Loc
	work     []*ir.Value
	inWork   map[*ir.Value]bool
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
		pts:      make(map[*ir.Value]map[Loc]bool),
		succs:    make(map[*ir.Value]map[*ir.Value]bool),
		loadsOf:  make(map[*ir.Value][]*ir.Value),
		storesOf: make(map[*ir.Value][]*ir.Value),
		contents: make(map[Loc]*ir.Value),
		contentV: make(map[*ir.Value]Loc),
		inWork:   make(map[*ir.Value]bool),
	}

	proxyID := int32(-1)
	proxy := func(l Loc) *ir.Value {
		if v, ok := s.contents[l]; ok {
			return v
		}
		v := ir.Var(proxyID, "*"+l.String(), minic.Type{})
		proxyID--
		s.contents[l] = v
		s.contentV[v] = l
		return v
	}

	addPts := func(v *ir.Value, l Loc) {
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
	addEdge := func(from, to *ir.Value) {
		es := s.succs[from]
		if es == nil {
			es = make(map[*ir.Value]bool)
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
		for _, p := range f.Params {
			if p.Type.IsPointer() {
				addPts(p, Loc{Kind: LExt, Val: p})
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpAlloc:
					addPts(in.Dst, Loc{Kind: LAlloc, Instr: in})
				case ir.OpMalloc:
					addPts(in.Dst, Loc{Kind: LMalloc, Instr: in})
				case ir.OpGlobalAddr:
					addPts(in.Dst, Loc{Kind: LGlobal, Name: in.Sub})
				case ir.OpCopy, ir.OpUn, ir.OpFieldAddr:
					// Field addresses collapse to the base object in the
					// field-insensitive baseline.
					addEdge(in.Args[0], in.Dst)
				case ir.OpBin:
					addEdge(in.Args[0], in.Dst)
					addEdge(in.Args[1], in.Dst)
				case ir.OpPhi:
					for _, a := range in.Args {
						addEdge(a, in.Dst)
					}
				case ir.OpLoad:
					s.loadsOf[in.Args[0]] = append(s.loadsOf[in.Args[0]], in.Dst)
					s.push(in.Args[0])
				case ir.OpStore:
					s.storesOf[in.Args[0]] = append(s.storesOf[in.Args[0]], in.Args[1])
					s.push(in.Args[0])
				case ir.OpCall:
					if callee := m.Lookup(in.Callee()); callee != nil {
						for i, a := range in.Args {
							if i < len(callee.Params) {
								addEdge(a, callee.Params[i])
							}
						}
						ret := callee.Exit.Term()
						for ri, rv := range ret.Args {
							var dstIdx int
							auxStart := len(ret.Args) - len(callee.AuxOut)
							if ri >= auxStart {
								dstIdx = 1 + (ri - auxStart)
							}
							if dstIdx < len(in.Dsts()) && in.Dsts()[dstIdx] != nil {
								addEdge(rv, in.Dsts()[dstIdx])
							}
						}
					} else {
						for _, d := range in.Dsts() {
							if d != nil && d.Type.IsPointer() {
								addPts(d, Loc{Kind: LExt, Val: d})
							}
						}
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

	res := &AndersenResult{
		Pts:        s.pts,
		Contents:   make(map[Loc]map[*ir.Value]bool),
		Iterations: s.rounds,
		TimedOut:   timedOut,
	}
	// Derive contents sets from the proxy nodes' incoming copy edges.
	for from, tos := range s.succs {
		for to := range tos {
			if l, ok := s.contentV[to]; ok {
				set := res.Contents[l]
				if set == nil {
					set = make(map[*ir.Value]bool)
					res.Contents[l] = set
				}
				set[from] = true
			}
		}
	}
	return res
}

func (s *andersenSolver) push(v *ir.Value) {
	if !s.inWork[v] {
		s.inWork[v] = true
		s.work = append(s.work, v)
	}
}

// union adds pts(src) into pts(dst); it reports whether dst grew.
func (s *andersenSolver) union(dst, src *ir.Value) bool {
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
