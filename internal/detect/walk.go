package detect

import (
	"slices"

	"repro/internal/cond"
	"repro/internal/seg"
)

// The local flows of a vertex — the value-flow paths inside one function that
// the search composes across calls, VF1–VF4 of §3.3.2 among them — are not
// memoized: a walk over the final SEG enumerates them when the search needs
// them, into scratch its engine owns. A flow runs from the walk's start along
// successor edges to a use vertex, its terminal; the walk is depth-first over
// Succs in edge order, and so are the flows it yields. Two caps bound a walk:
// at most maxFlows flows, of at most maxSteps vertices each. A walk that a cap
// made drop a flow is truncated (Results.SummaryCapHits counts those); one
// that drops none yields every flow of the vertex.
const (
	maxFlows = 64
	maxSteps = 120
)

// localFlow is one flow a walk found. Its condition is the conjunction of its
// edge conditions and of the control dependence of every step's statement,
// the PC(π) skeleton of Equation 1 (the DD closure is added by the SMT
// encoder). Its vertices are the chain of hops that ends at last.
type localFlow struct {
	cond *cond.Cond
	term int32 // the terminal vertex
	last int32 // the terminal's hop in walker.hops
	len  int32 // vertices, start and terminal included
}

// hop is a vertex on a walked path and the index of the hop before it (-1 at
// the walk's start).
type hop struct{ node, prev int32 }

// walker is an engine's walk scratch. Flows and the hops they reference sit
// on two stacks: a walk pushes, and its caller pops once it is done with the
// flows — after the walks its own recursion made and popped. Nothing else is
// kept from walk to walk, and once the stacks are grown a walk allocates
// nothing beyond the condition nodes it has to make.
type walker struct {
	flows []localFlow
	hops  []hop
	// conj holds the non-true conjuncts of the path being walked.
	conj []*cond.Cond
	// dead[v] == epoch<<8|r: the walk found no flow from v within r more
	// vertices. live[v] == epoch<<1|b: b tells whether any path from v,
	// however long, ends at a use vertex.
	dead, live []uint64
	epoch      uint64

	// The walk at hand: its graph, where its flows begin on the stack, and
	// whether a cap has made it drop a flow.
	g    *seg.Graph
	base int
	cut  bool

	// walks counts the walks made and truncated those a cap made drop a flow.
	walks, truncated int
}

// walkMark is what pop needs to drop a walk's flows.
type walkMark struct{ flows, hops int }

// walk pushes the local flows from vertex from of g and returns the mark
// to pop them at; they are w.flows[m.flows:] until the next push.
func (w *walker) walk(g *seg.Graph, from int32) walkMark {
	m := walkMark{len(w.flows), len(w.hops)}
	if len(w.dead) < g.NumNodes() {
		w.dead, w.live = make([]uint64, g.NumNodes()), make([]uint64, g.NumNodes())
	}
	w.epoch++
	w.g, w.base, w.cut = g, m.flows, false
	w.conj = w.conj[:0]
	w.step(from, -1, maxSteps)
	w.walks++
	if w.cut {
		w.truncated++
	}
	return m
}

// pop drops everything pushed since m.
func (w *walker) pop(m walkMark) {
	w.flows, w.hops = w.flows[:m.flows], w.hops[:m.hops]
}

// full reports whether the walk at hand has found its maxFlows flows.
func (w *walker) full() bool { return len(w.flows)-w.base >= maxFlows }

// step walks on from vertex n, entered by hop prev, with room for rem more
// vertices on the path; it reports whether it found a flow.
//
// A vertex it found none from is marked dead with its room, and skipped
// with no more room: it would find none again. A cut below it that dropped a
// flow has set w.cut already. So each vertex is walked on from at most
// maxSteps times without finding a flow and maxFlows times finding one.
func (w *walker) step(n, prev int32, rem int) bool {
	if rem == 0 {
		w.cut = w.cut || w.reaches(n)
		return false
	}
	if d := w.dead[n]; d>>8 == w.epoch && rem <= int(d&0xff) {
		return false
	}
	g := w.g
	at := int32(len(w.hops))
	w.hops = append(w.hops, hop{n, prev})
	nc := len(w.conj)
	if in := g.Instr(n); in >= 0 {
		if cd := g.CD(in); !cd.IsTrue() {
			w.conj = append(w.conj, cd)
		}
	}
	if g.Node(n).Kind == seg.NUse {
		// And flattens and sorts its operands, so the one conjunction is the
		// node the nested ones of the flow's steps would give.
		c := g.Conds().True()
		if len(w.conj) == 1 {
			c = w.conj[0]
		} else if len(w.conj) > 1 {
			c = g.Conds().And(w.conj...)
		}
		w.conj = w.conj[:nc]
		w.flows = append(w.flows, localFlow{cond: c, term: n, last: at, len: int32(maxSteps - rem + 1)})
		w.cut = w.cut || w.full()
		return true
	}
	found := false
	for _, e := range g.Succs(n) {
		m := len(w.conj)
		if c := g.Cond(e); !c.IsTrue() {
			w.conj = append(w.conj, c)
		}
		found = w.step(e.To, at, rem-1) || found
		w.conj = w.conj[:m]
		if w.full() {
			break
		}
	}
	w.conj = w.conj[:nc]
	if !found {
		w.hops = w.hops[:at]
		w.dead[n] = w.epoch<<8 | uint64(rem)
	}
	return found
}

// reaches reports whether some path from n, however long, ends at a use
// vertex: whether the step cap, cutting a path at n, dropped a flow. The walk
// asks about each vertex once (the SEG is acyclic).
func (w *walker) reaches(n int32) bool {
	if l := w.live[n]; l>>1 == w.epoch {
		return l&1 == 1
	}
	w.live[n] = w.epoch << 1
	found := w.g.Node(n).Kind == seg.NUse
	for _, e := range w.g.Succs(n) {
		found = found || w.reaches(e.To)
	}
	if found {
		w.live[n] |= 1
	}
	return found
}

// appendSteps appends the vertices of fl to steps, start first, as steps of
// instance inst of g.
func (w *walker) appendSteps(steps []gstep, inst int, g *seg.Graph, fl *localFlow) []gstep {
	n := len(steps)
	steps = slices.Grow(steps, int(fl.len))[:n+int(fl.len)]
	for h, i := fl.last, len(steps)-1; i >= n; h, i = w.hops[h].prev, i-1 {
		steps[i] = gstep{inst: inst, g: g, node: w.hops[h].node}
	}
	return steps
}

// markSet is a set of small integers — vertex indexes, instance numbers —
// that empties in constant time: i is in it iff marks[i] == epoch.
type markSet struct {
	marks []uint64
	epoch uint64
}

// reset empties the set and makes room for the integers below n.
func (s *markSet) reset(n int) {
	if len(s.marks) < n {
		s.marks = make([]uint64, n)
	}
	s.epoch++
}

// add puts i in the set and reports whether it was not there yet.
func (s *markSet) add(i int32) bool {
	if s.marks[i] == s.epoch {
		return false
	}
	s.marks[i] = s.epoch
	return true
}

// reach is the scratch of the reachability walks that note parameter facts.
type reach struct {
	seen  markSet
	stack []int32
}

// params notes where the local flows of g's parameters can end, by
// ParamIdx: a depth-first walk from each parameter's vertex records whether a
// free is reachable, and else which call arguments are. Which flows reach
// them, and under what condition, the may-free fixpoint does not ask, so no
// condition is built and no cap applies.
func (r *reach) params(g *seg.Graph) []paramFacts {
	facts := make([]paramFacts, len(g.Params()))
	for _, p := range g.Params() {
		pf := &facts[g.Value(p).ParamIdx()]
		r.seen.reset(g.NumNodes())
		r.stack = append(r.stack[:0], g.ValueNode(p))
		r.seen.add(r.stack[0])
		for len(r.stack) > 0 && !pf.frees {
			n := r.stack[len(r.stack)-1]
			r.stack = r.stack[:len(r.stack)-1]
			switch g.Node(n).Role {
			case seg.RoleFreeArg:
				pf.frees, pf.passed = true, nil
			case seg.RoleCallArg:
				pf.passed = append(pf.passed, n)
			}
			for _, e := range g.Succs(n) {
				if r.seen.add(e.To) {
					r.stack = append(r.stack, e.To)
				}
			}
		}
	}
	return facts
}
