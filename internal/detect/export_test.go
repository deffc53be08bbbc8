package detect

import (
	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/seg"
)

// MayFree returns the may-free-parameter relation the Program's caches hold,
// by ir.Func.ID (nil before the first CheckAll, and for a function the
// relation leaves out).
func (p *Program) MayFree() [][]bool { return p.c.frees }

// EnumerateFlows calls emit with each local flow from vertex n of g, until
// emit returns false: every path along successor edges to a use vertex, in
// edge order, with nothing shared between paths and no cap. Each flow's
// condition is conjoined as the flow memo that walks replaced did it, from the
// terminal back, one step at a time: the control dependence of the step's
// statement and the condition of its edge, then the rest of the flow's. It is
// the oracle the walk is held against.
func EnumerateFlows(g *seg.Graph, n int32, emit func(path []int32, c *cond.Cond) bool) {
	var edges []seg.Edge
	var enumerate func(path []int32) bool
	enumerate = func(path []int32) bool {
		n := path[len(path)-1]
		if g.Node(n).Kind == seg.NUse {
			cb := g.Conds()
			c := cdOfVertex(g, n)
			for i := len(edges) - 1; i >= 0; i-- {
				head := g.Cond(edges[i])
				if cd := cdOfVertex(g, path[i]); !cd.IsTrue() {
					head = cb.And(cd, head)
				}
				if !head.IsTrue() {
					c = cb.And(head, c)
				}
			}
			return emit(path, c)
		}
		for _, e := range g.Succs(n) {
			edges = append(edges, e)
			more := enumerate(append(path, e.To))
			edges = edges[:len(edges)-1]
			if !more {
				return false
			}
		}
		return true
	}
	enumerate([]int32{n})
}

// cdOfVertex is the control dependence of vertex n's statement: true for a
// vertex without one (a parameter).
func cdOfVertex(g *seg.Graph, n int32) *cond.Cond {
	if in := g.Instr(n); in >= 0 {
		return g.CD(in)
	}
	return g.Conds().True()
}

// MaxSteps caps the vertices of a local flow.
const MaxSteps = maxSteps

// WalkFlows returns the local flows one walk from vertex n of g yields — each
// as its vertices, start first, and its condition — and whether a cap made the
// walk drop a flow.
func WalkFlows(g *seg.Graph, n int32) (paths [][]int32, conds []*cond.Cond, truncated bool) {
	var w walker
	m := w.walk(g, n)
	for i := m.flows; i < len(w.flows); i++ {
		fl := &w.flows[i]
		var path []int32
		for _, s := range w.appendSteps(nil, 0, g, fl) {
			path = append(path, s.node)
		}
		if path[len(path)-1] != fl.term {
			panic("detect: a flow's hops do not end at its terminal")
		}
		paths, conds = append(paths, path), append(conds, fl.cond)
	}
	return paths, conds, w.truncated > 0
}

// RoundRobinMayFree computes the whole program's may-free-parameter relation
// the way computeFreesParam did before it read facts: rounds over every called
// function, each round enumerating the local flows of the parameters still
// false, until a round changes nothing. It is the oracle the worklist is held
// against; it enumerates the flows with EnumerateFlows, not with the walks
// under test.
func RoundRobinMayFree(prog *Program) [][]bool {
	frees := make([][]bool, prog.Module.Layout.NumIDs())
	mayFree := func(callee *ir.Func, argIdx int) bool {
		fr := frees[callee.ID]
		return argIdx < len(fr) && fr[argIdx]
	}
	paramMayFree := func(g *seg.Graph, p int32) (freed bool) {
		EnumerateFlows(g, g.ValueNode(p), func(path []int32, _ *cond.Cond) bool {
			term := path[len(path)-1]
			switch n := g.Node(term); n.Role {
			case seg.RoleFreeArg:
				freed = true
			case seg.RoleCallArg:
				callee := prog.Module.Lookup(g.Callee(g.Instr(term)))
				freed = callee != nil && mayFree(callee, int(n.ArgIdx))
			}
			return !freed
		})
		return freed
	}
	var work []*ir.Func
	for _, f := range prog.Module.Funcs {
		if len(prog.Callers(f)) == 0 {
			continue
		}
		frees[f.ID] = make([]bool, len(f.Params))
		if prog.SEG(f) != nil {
			work = append(work, f)
		}
	}
	for changed := len(work) > 0; changed; {
		changed = false
		for _, f := range work {
			g := prog.SEG(f)
			for _, p := range g.Params() {
				if frees[f.ID][g.Value(p).ParamIdx()] {
					continue
				}
				if paramMayFree(g, p) {
					frees[f.ID][g.Value(p).ParamIdx()] = true
					changed = true
				}
			}
		}
	}
	return frees
}

// WalkEvery returns a function that walks from every vertex of g, on one
// walker kept from call to call, and drops each walk's flows.
func WalkEvery(g *seg.Graph) func() {
	var w walker
	return func() {
		for n := int32(0); int(n) < g.NumNodes(); n++ {
			w.pop(w.walk(g, n))
		}
	}
}
