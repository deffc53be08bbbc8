package detect

import (
	"sync"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/seg"
	"repro/internal/summary"
)

// caches holds the detection-phase artifacts that are expensive to build
// and profitable to share across demand sources: memoized local flow
// summaries, per-function linear solvers, and per-graph reverse adjacency.
//
// The outer maps are fully populated at construction and never written
// again, so workers index them without synchronization; mutation happens
// only inside the per-entry locks (flow tables and linear solvers memoize
// on demand) or under a sync.Once (reverse indexes are built at most once).
// Because every memoized result is a pure function of the frozen program,
// the cache contents — and everything derived from them — are independent
// of worker interleaving.
type caches struct {
	prog  *Program
	flows map[*seg.Graph]*flowTable
	lin   map[*ir.Func]*linearCache
	rev   map[*seg.Graph]*revEntry
}

type flowTable struct {
	mu sync.Mutex
	t  *summary.Table
}

type linearCache struct {
	mu sync.Mutex
	ls *cond.LinearSolver
}

// revEntry is one graph's reverse adjacency in compressed-sparse-row form,
// indexed by seg.Node.Index: the predecessors of vertex i are
// preds[start[i]:start[i+1]]. Built once, then only read.
type revEntry struct {
	once  sync.Once
	start []int32
	preds []*seg.Node
}

// of returns n's predecessors (none for a vertex created after the index
// was built: such vertices have no edges).
func (re *revEntry) of(n *seg.Node) []*seg.Node {
	i := n.Index()
	if i+1 >= len(re.start) {
		return nil
	}
	return re.preds[re.start[i]:re.start[i+1]]
}

func newCaches(prog *Program) *caches {
	c := &caches{
		prog:  prog,
		flows: make(map[*seg.Graph]*flowTable, len(prog.SEGs)),
		lin:   make(map[*ir.Func]*linearCache, len(prog.SEGs)),
		rev:   make(map[*seg.Graph]*revEntry, len(prog.SEGs)),
	}
	for f, g := range prog.SEGs {
		if g == nil {
			continue
		}
		c.flows[g] = &flowTable{t: summary.NewTable()}
		c.lin[f] = &linearCache{ls: cond.NewLinearSolver()}
		c.rev[g] = &revEntry{}
	}
	return c
}

// flowsFrom enumerates (memoized) local flows from a vertex. Local flows
// never leave their graph, so one lock per graph suffices and independent
// functions proceed in parallel.
func (c *caches) flowsFrom(g *seg.Graph, from *seg.Node) []summary.Flow {
	ft := c.flows[g]
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.t.FlowsFrom(g, from)
}

// apparentlyUnsat runs the linear contradiction filter of fn's solver.
func (c *caches) apparentlyUnsat(fn *ir.Func, co *cond.Cond) bool {
	lc := c.lin[fn]
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.ls.ApparentlyUnsat(co)
}

// reverse returns the reverse adjacency of a graph, built on first use.
func (c *caches) reverse(g *seg.Graph) *revEntry {
	re := c.rev[g]
	re.once.Do(func() {
		nodes := g.AllNodes()
		re.start = make([]int32, len(nodes)+1)
		for _, n := range nodes {
			for _, edge := range g.Succs(n) {
				re.start[edge.To.Index()+1]++
			}
		}
		for i := range nodes {
			re.start[i+1] += re.start[i]
		}
		re.preds = make([]*seg.Node, re.start[len(nodes)])
		fill := append([]int32(nil), re.start[:len(nodes)]...)
		// Sources in vertex order, so each predecessor list is too.
		for _, n := range nodes {
			for _, edge := range g.Succs(n) {
				to := edge.To.Index()
				re.preds[fill[to]] = n
				fill[to]++
			}
		}
	})
	return re
}

// capHits sums the summary-table truncation counters across all graphs.
// Truncation is decided by the (deterministic) enumeration of each vertex,
// so the total does not depend on scheduling.
func (c *caches) capHits() int {
	total := 0
	for _, ft := range c.flows {
		ft.mu.Lock()
		total += ft.t.CapHits
		ft.mu.Unlock()
	}
	return total
}

// summaryStats sums the flow-cache lookup counters across all graphs.
// Every vertex is enumerated exactly once (the per-graph lock serializes
// the memo), so misses equal the number of distinct vertices touched and
// the totals are as deterministic as the rest of the run.
func (c *caches) summaryStats() (hits, misses int) {
	for _, ft := range c.flows {
		ft.mu.Lock()
		hits += ft.t.Hits
		misses += ft.t.Misses
		ft.mu.Unlock()
	}
	return hits, misses
}
