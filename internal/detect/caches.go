package detect

import (
	"slices"
	"sync"

	"repro/internal/checkers"
	"repro/internal/cond"
	"repro/internal/dense"
	"repro/internal/ir"
	"repro/internal/seg"
)

// caches holds the detection-phase artifacts that are expensive to build
// and profitable to share across demand sources, one fnCache per function,
// indexed by ir.Func.ID like the frees table below.
//
// The fn table is fully populated at construction and never written again, so
// workers index it without synchronization; mutation happens only inside the
// per-entry lock (linear solvers memoize on demand), under a sync.Once
// (reverse indexes are built at most once), or from the one goroutine that
// owns the function (prepare) or the task (its replay entry). Local flows are
// not cached: each engine walks the graph for them (walk.go).
// Every memoized result is a pure function of the frozen objects it names, so
// the cache contents — and everything derived from them — are independent of
// worker interleaving, and an fnCache stays correct for every Program that
// holds the same function.
type caches struct {
	fn dense.Table[*fnCache]
	// frees.At(f.ID)[i] reports that f (transitively) may free its i-th
	// parameter (indexed by ParamIdx): the unreleased-resource checkers'
	// whole-program relation. stale lists the functions without a valid
	// entry, whose entry is nil — never computed, or dropped by the
	// carry-over because they reach a rebuilt function; the next leak
	// checker computes exactly those.
	frees dense.Table[[]bool]
	stale []int32 // by ID
	// names identifies the program's set of defined function names (which
	// callee names resolve, and which are externals); the carry-over keeps
	// the token exactly when the module's Layout did not change.
	names *nameSet
	// walks numbers the walks task lists are kept for (a walk's number is its
	// index in every fnCache.tasks) and specs the checkers whose results the
	// tasks record. Entries of fn are shared with the caches of the Programs
	// before and after this one in a session, and so are the numberings.
	walks, specs *specNumbers
	// ran is the last run on this Program or the one it was carried from,
	// fresh the functions that replaced others since (that run's edits, whose
	// tasks prepare has yet to extract), changed the functions whose graph,
	// caller list or may-free vector changed since, readers the read index
	// of the Layout and runs the session's run log (see replay.go).
	ran     *lastRun
	fresh   []*ir.Func
	changed []fnChange
	readers readIndex
	runs    *runLog
}

type nameSet struct{ _ byte }

// fnCache is everything detection memoizes about one function.
type fnCache struct {
	lin linearCache
	rev revEntry

	// params holds what the may-free fixpoint reads of the local flows of each
	// parameter (by ParamIdx); nil until paramFacts walked them.
	params []paramFacts
	// tasks holds the function's task list — and with it the recorded
	// outcome of each task — per walk, indexed by caches.walks number (nil
	// where the walk's sources have not been extracted yet).
	tasks [][]task
}

// paramFacts is where one parameter's local flows can end, as far as freeing
// it goes: at a free, or else at these call arguments.
type paramFacts struct {
	frees  bool
	passed []int32
}

type linearCache struct {
	mu sync.Mutex
	ls cond.LinearSolver
}

// revEntry is one graph's reverse adjacency in compressed-sparse-row form,
// by vertex ID: the predecessors of vertex i are preds[start[i]:start[i+1]].
// Built once, then only read.
type revEntry struct {
	once  sync.Once
	start []int32
	preds []int32
}

// of returns n's predecessors.
func (re *revEntry) of(n int32) []int32 { return re.preds[re.start[n]:re.start[n+1]] }

// newCaches returns empty caches for prog, with an entry for every function
// that has a SEG.
func newCaches(prog *Program) caches { return newCachesFrom(prog, nil) }

// newCachesFrom is newCaches, except that a function prev holds too keeps
// its entry in prev's caches (and with it prev's checker numbering and run
// log); nothing that depends on other functions is kept.
func newCachesFrom(prog, prev *Program) caches {
	m := prog.Module
	n := m.Layout.NumIDs()
	c := caches{
		fn:      dense.NewTable[*fnCache](n),
		frees:   dense.NewTable[[]bool](n),
		stale:   make([]int32, m.NumFuncs()),
		names:   new(nameSet),
		readers: make(readIndex, n),
	}
	if prev != nil {
		c.walks, c.specs, c.runs = prev.c.walks, prev.c.specs, prev.c.runs
	} else {
		c.walks, c.specs, c.runs = &specNumbers{make([]string, 0, 8)}, &specNumbers{make([]string, 0, 8)}, new(runLog)
	}
	for pos := range c.stale {
		f := m.Func(pos)
		c.stale[pos] = int32(f.ID)
		switch {
		case prog.SEG(f) == nil:
		case prev != nil && prev.Module.Holds(f):
			c.fn.Set(f.ID, prev.c.fn.At(f.ID))
		default:
			c.fn.Set(f.ID, new(fnCache))
		}
	}
	return c
}

// specNumbers numbers checkers by what they do (checkers.Spec.Identity, or
// WalkIdentity for the walks): specs are built fresh per request, so results
// kept across requests cannot be keyed by the *Spec. A handful at most,
// searched linearly.
type specNumbers struct{ ids []string }

func (sn *specNumbers) of(id string) int {
	k := slices.Index(sn.ids, id)
	if k < 0 {
		k = len(sn.ids)
		sn.ids = append(sn.ids, id)
	}
	return k
}

// tasksFor returns the function's task list for walk number k of n — sp's —
// extracting it on first request. A list is never resized, so pointers into
// it stay valid.
func (fc *fnCache) tasksFor(k, n int, sp *checkers.Spec, f *ir.Func, g *seg.Graph) []task {
	if len(fc.tasks) < n {
		fc.tasks = append(fc.tasks, make([][]task, n-len(fc.tasks))...)
	}
	if fc.tasks[k] == nil {
		fc.tasks[k] = localTasks(sp, f, g) // never nil
	}
	return fc.tasks[k]
}

// paramFacts returns (noting them once per function object, with r's
// scratch) where the local flows of f's parameters can end.
func (c *caches) paramFacts(f *ir.Func, g *seg.Graph, r *reach) []paramFacts {
	fc := c.fn.At(f.ID)
	if fc.params == nil {
		fc.params = r.params(g)
	}
	return fc.params
}

// apparentlyUnsat runs the linear contradiction filter of fn's solver.
func (c *caches) apparentlyUnsat(fn *ir.Func, co *cond.Cond) bool {
	lc := &c.fn.At(fn.ID).lin
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.ls.ApparentlyUnsat(co)
}

// reverse returns the reverse adjacency of a graph, built on first use.
func (c *caches) reverse(f *ir.Func, g *seg.Graph) *revEntry {
	re := &c.fn.At(f.ID).rev
	re.once.Do(func() {
		n := int32(g.NumNodes())
		re.start = make([]int32, n+1)
		for i := int32(0); i < n; i++ {
			for _, edge := range g.Succs(i) {
				re.start[edge.To+1]++
			}
		}
		for i := int32(0); i < n; i++ {
			re.start[i+1] += re.start[i]
		}
		re.preds = make([]int32, re.start[n])
		fill := append([]int32(nil), re.start[:n]...)
		// Sources in vertex order, so each predecessor list is too.
		for from := int32(0); from < n; from++ {
			for _, edge := range g.Succs(from) {
				re.preds[fill[edge.To]] = from
				fill[edge.To]++
			}
		}
	})
	return re
}
