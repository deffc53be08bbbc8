package detect

import (
	"slices"

	"repro/internal/ir"
	"repro/internal/seg"
)

// Incremental detection. A task's outcome — one result per checker of the
// group that walked its source — is a function of those checkers, the
// result-affecting options, and the few pieces of the program its search
// actually read. On a Program with sticky caches every executed task records
// those pieces — its footprint — next to its result, in the task's slot of
// its function's fnCache; the slot rides the per-function carry-over of
// NewProgramFrom, and a later CheckAll replays the result instead of running
// the task whenever the footprint still holds in the program at hand.
// Holding is checked against that program (replayEntry.holds), not assumed
// from lineage, so an entry is a pure memo like everything else in caches:
// right for every Program that satisfies it, whichever Program recorded it.

// footprint is what one task's outcome depended on besides its checker and
// options.
type footprint struct {
	// entered lists the graphs of the functions the search entered besides
	// the source's own (an entry is only ever reached through the fnCache
	// of that one): every callee it descended into, every caller it
	// ascended into, by function ID. The graph is all the search reads of a
	// function, so the graph pointer stands for it.
	entered []graphRead
	// callers lists the Program.Callers entries the search enumerated to
	// ascend.
	callers []callersRead
	// mayFree lists the may-free-parameter vectors an unreleased-resource
	// task consulted, by callee name: the task does not enter the callee,
	// so a rebuilt callee with an unchanged vector leaves it valid.
	mayFree []mayFreeRead
}

type graphRead struct {
	id int
	g  *seg.Graph
}

type callersRead struct {
	fn    *ir.Func
	sites []CallSite
}

type mayFreeRead struct {
	callee string
	bits   []bool
}

// enter notes that the search entered a function other than the source's
// own. Footprints are short (a task enters 1.4 functions on average), so a
// linear scan deduplicates.
func (fp *footprint) enter(f *ir.Func, g *seg.Graph) {
	if fp == nil {
		return
	}
	for _, have := range fp.entered {
		if have.g == g {
			return
		}
	}
	fp.entered = append(fp.entered, graphRead{f.ID, g})
}

func (fp *footprint) readCallers(fn *ir.Func, sites []CallSite) {
	if fp == nil {
		return
	}
	for _, have := range fp.callers {
		if have.fn == fn {
			return
		}
	}
	fp.callers = append(fp.callers, callersRead{fn, sites})
}

func (fp *footprint) readMayFree(callee string, bits []bool) {
	if fp == nil {
		return
	}
	for _, have := range fp.mayFree {
		if have.callee == callee {
			return
		}
	}
	fp.mayFree = append(fp.mayFree, mayFreeRead{callee, bits})
}

// replayEntry is one task's recorded outcome.
type replayEntry struct {
	// opts is Options.resultKey of the run that produced the result (one
	// value shared by all entries of that run).
	opts *Options
	// names is the defined-name set the task resolved callees against: a
	// call that found an external would descend if the name became
	// defined, and the other way around, without any footprint function
	// changing.
	names *nameSet
	fp    footprint
	// result carries no SMTTime: a replay solves nothing.
	result taskResult
}

// holds reports whether replaying the entry in prog under the options key
// yields what running the task for the group would: it recorded a result for
// every member (the walk of a larger group reads no less than that of a
// smaller one), every function it entered is still the same object, every
// caller list it enumerated still names the same call sites in the same
// order, the may-free vectors it consulted are unchanged, and callee names
// resolve as they did.
// The may-free relation must be current when the entry consulted it.
func (e *replayEntry) holds(prog *Program, c *caches, key *Options, members *group, ids []int) bool {
	if (e.opts != key && *e.opts != *key) || e.names != c.names {
		return false
	}
	for _, si := range members.at {
		if e.result.member(ids[si]) == nil {
			return false
		}
	}
	// The names token vouches for the Layout, so every ID below is in range.
	for _, gr := range e.fp.entered {
		if prog.segs[gr.id] != gr.g {
			return false
		}
	}
	for _, cr := range e.fp.callers {
		if !slices.Equal(prog.callers[cr.fn.ID], cr.sites) {
			return false
		}
	}
	for _, mf := range e.fp.mayFree {
		if !slices.Equal(c.frees[prog.Module.Layout.ID(mf.callee)], mf.bits) {
			return false
		}
	}
	return true
}
