package detect

import (
	"sync"

	"repro/internal/checkers"
	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/seg"
	"repro/internal/summary"
)

// caches holds the detection-phase artifacts that are expensive to build
// and profitable to share across demand sources, one fnCache per function.
//
// The fn map is fully populated at construction and never written again, so
// workers index it without synchronization; mutation happens only inside the
// per-entry locks (flow tables and linear solvers memoize on demand), under a
// sync.Once (reverse indexes are built at most once), or from the one
// goroutine that owns the function (prepare) or the task (its replay entry).
// Every memoized result is a pure function of the frozen objects it names, so
// the cache contents — and everything derived from them — are independent of
// worker interleaving, and an fnCache stays correct for every Program that
// holds the same function.
type caches struct {
	fn map[*ir.Func]*fnCache
	// frees[f][i] reports that f (transitively) may free its i-th parameter
	// (indexed by ParamIdx): the unreleased-resource checkers' whole-program
	// relation. stale lists the functions without a valid entry — never
	// computed, or dropped by the carry-over because they reach a rebuilt
	// function; the next leak checker computes exactly those.
	frees map[*ir.Func][]bool
	stale []*ir.Func
	// names identifies the program's set of defined function names (which
	// callee names resolve, and which are externals); the carry-over keeps
	// the token exactly when the set did not change.
	names *nameSet
	// plan is the canonical task order prepare last assembled for this
	// program, and planFor the spec identities it was assembled for.
	plan    []scheduled
	planFor []string
}

type nameSet struct{ _ byte }

// fnCache is everything detection memoizes about one function.
type fnCache struct {
	flows flowTable
	lin   linearCache
	rev   revEntry

	// The one-time passes prepare has run on the function.
	frozen, reach, warm bool
	// specs holds the function's task list — and with it the recorded
	// outcome of each task — per checker, by spec identity. A handful at
	// most, so a slice searched linearly.
	specs []specTasks
}

// specTasks is one function's tasks for one checker, in extraction order.
type specTasks struct {
	id    string // checkers.Spec.Identity
	tasks []task
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

func newFnCache() *fnCache {
	return &fnCache{
		flows: flowTable{t: summary.NewTable()},
		lin:   linearCache{ls: cond.NewLinearSolver()},
	}
}

func newCaches(prog *Program) *caches {
	c := &caches{
		fn:    make(map[*ir.Func]*fnCache, len(prog.SEGs)),
		frees: make(map[*ir.Func][]bool, len(prog.Module.Funcs)),
		stale: prog.Module.Funcs,
		names: new(nameSet),
	}
	for f, g := range prog.SEGs {
		if g != nil {
			c.fn[f] = newFnCache()
		}
	}
	return c
}

// tasksFor returns the function's task list for a checker, extracting it on
// first request. The list is never resized, so pointers into it stay valid.
func (fc *fnCache) tasksFor(id string, sp *checkers.Spec, f *ir.Func, g *seg.Graph) []task {
	for _, st := range fc.specs {
		if st.id == id {
			return st.tasks
		}
	}
	ts := localTasks(sp, f, g)
	fc.specs = append(fc.specs, specTasks{id: id, tasks: ts})
	return ts
}

// flowCounts tallies one caller's lookups in the shared flow cache. Every
// vertex is enumerated exactly once (the per-graph lock serializes the memo)
// and truncation is a property of the vertex, so the sums over all callers
// of a run are as deterministic as the rest of it, although which caller
// takes a given miss is not.
type flowCounts struct {
	hits, misses, capHits int
}

func (n *flowCounts) add(m flowCounts) {
	n.hits += m.hits
	n.misses += m.misses
	n.capHits += m.capHits
}

// flowsFrom enumerates (memoized) local flows from a vertex, counting the
// lookups it causes into n. Local flows never leave their graph, so one lock
// per graph suffices and independent functions proceed in parallel.
func (c *caches) flowsFrom(g *seg.Graph, from *seg.Node, n *flowCounts) []summary.Flow {
	ft := &c.fn[g.Fn].flows
	ft.mu.Lock()
	defer ft.mu.Unlock()
	hits, misses, capHits := ft.t.Hits, ft.t.Misses, ft.t.CapHits
	flows := ft.t.FlowsFrom(g, from)
	n.hits += ft.t.Hits - hits
	n.misses += ft.t.Misses - misses
	n.capHits += ft.t.CapHits - capHits
	return flows
}

// apparentlyUnsat runs the linear contradiction filter of fn's solver.
func (c *caches) apparentlyUnsat(fn *ir.Func, co *cond.Cond) bool {
	lc := &c.fn[fn].lin
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.ls.ApparentlyUnsat(co)
}

// reverse returns the reverse adjacency of a graph, built on first use.
func (c *caches) reverse(g *seg.Graph) *revEntry {
	re := &c.fn[g.Fn].rev
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
