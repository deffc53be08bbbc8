package detect

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/dense"
	"repro/internal/ir"
	"repro/internal/seg"
)

// Incremental detection. A task's outcome — one result per checker of the
// group that walked its source — is a function of those checkers, the
// result-affecting options, and the few pieces of the program its search
// actually read. Every executed task records those pieces — its footprint —
// next to its result, in the task's slot of its function's fnCache; the slot
// rides the per-function carry-over of NewProgramFrom, and a later CheckAll
// replays the result instead of running the task whenever the footprint still
// holds in the program at hand.
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
	for _, have := range fp.entered {
		if have.g == g {
			return
		}
	}
	fp.entered = append(fp.entered, graphRead{f.ID, g})
}

func (fp *footprint) readCallers(fn *ir.Func, sites []CallSite) {
	for _, have := range fp.callers {
		if have.fn == fn {
			return
		}
	}
	fp.callers = append(fp.callers, callersRead{fn, sites})
}

func (fp *footprint) readMayFree(callee string, bits []bool) {
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
	// result carries the SMTTime of the run that recorded it, which no
	// replay counts: a replay solves nothing.
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
		if prog.segs.At(int(gr.id)) != gr.g {
			return false
		}
	}
	for _, cr := range e.fp.callers {
		if !slices.Equal(prog.Callers(cr.fn), cr.sites) {
			return false
		}
	}
	for _, mf := range e.fp.mayFree {
		if !slices.Equal(c.frees.At(prog.Module.Layout.ID(mf.callee)), mf.bits) {
			return false
		}
	}
	return true
}

// Patched runs. Every CheckAll leaves each task of its plan with a memo that
// holds in that Program: the task ran, or holds said so. A later run under
// the same result key and checker numbering, on a Program of the same Layout,
// can therefore trust every memo that read nothing changed since — the
// changed-function list (caches.changed) and the read index (readIndex) pick
// out the rest — and patch that run's merge (lastRun) with the few tasks that
// run again, instead of checking and merging every task. Any other run
// patches the empty run, with every task of the plan an edit.

// Kinds of read a footprint makes of a function, and of change a function
// undergoes since a run: its graph replaced, its caller list rebuilt to other
// sites, its may-free vector recomputed to other bits.
const (
	readsGraph uint8 = 1 << iota
	readsCallers
	readsMayFree
)

// fnChange names a function whose reads of the given kinds changed.
type fnChange struct {
	id   int
	kind uint8
}

// taskRef names a task slot without pointing into it: the k-th task of the
// list for walk number list of function fn. The slot may since hold another
// version's task, or none; a ref is a hint, and holds decides.
type taskRef struct {
	fn, list, k int32
	kind        uint8
}

// readIndex lists, by function ID, the task slots whose recorded footprint
// read that function. Every Program of a session that shares a Layout — and
// with it the defined-name token, without which no memo holds — shares it,
// and only a CheckAll writes it, as it records memos (calls on one session's
// Programs are serialized), so no memo that can hold lacks its refs; refs a
// memo overwrote stay, as duplicates that compaction drops.
type readIndex [][]taskRef

// runLog is shared by every Program of a session, whatever its Layout: last
// is the most recent run on any of them. Only a Program whose own last run
// that is may trust its memos unchecked, since any other run may have
// overwritten them.
type runLog struct{ last *lastRun }

// add indexes the reads of the memo just recorded in t, the task of the list
// for walk number list.
func (ri readIndex) add(m *ir.Module, t *task, list int) {
	ref := taskRef{fn: int32(t.fn.ID), list: int32(list), k: t.k}
	fp := &t.memo.fp
	for _, gr := range fp.entered {
		ri.put(gr.id, ref, readsGraph)
	}
	for _, cr := range fp.callers {
		ri.put(cr.fn.ID, ref, readsCallers)
	}
	for _, mf := range fp.mayFree {
		ri.put(m.Layout.ID(mf.callee), ref, readsMayFree)
	}
}

// put appends one ref; a list about to grow first drops its duplicates, so a
// list stays within twice the slots that ever read its function.
func (ri readIndex) put(id int, ref taskRef, kind uint8) {
	ref.kind = kind
	refs := ri[id]
	if len(refs) == cap(refs) && len(refs) > 0 {
		slices.SortFunc(refs, func(a, b taskRef) int {
			return cmp.Or(cmp.Compare(a.fn, b.fn), cmp.Compare(a.list, b.list), cmp.Compare(a.k, b.k), cmp.Compare(a.kind, b.kind))
		})
		refs = slices.Compact(refs)
	}
	ri[id] = append(refs, ref)
}

// lastRun is what a CheckAll left for the next to patch: what it ran under,
// and its merge without SMTTime — each checker's Stats, the work counted once,
// and the sorted reports with the place each was found at.
type lastRun struct {
	key   Options
	ids   []int
	frees dense.Table[[]bool]

	stats          []Stats
	walked, issued int
	reports        []Report
	found          []foundAt
}

// foundAt places a report in the merge's discovery order: the position of
// its checker among the specs, of its task's function in the module, of the
// task in that function's list, and of the report in the task's. Reports that
// compare equal keep this order.
type foundAt struct{ spec, pos, k, r int32 }

func compareFound(a, b foundAt) int {
	return cmp.Or(cmp.Compare(a.spec, b.spec), cmp.Compare(a.pos, b.pos), cmp.Compare(a.k, b.k), cmp.Compare(a.r, b.r))
}

// patchable returns the run a CheckAll under key for the checkers numbered
// ids patches: the Program's last run, when it is the session's last, ran
// under the same key for the same checkers, and no spec given twice asks for a
// private copy of a task list. Otherwise it drops the plan, which prepare then
// builds anew with every task an edit, and returns the empty run.
func (c *caches) patchable(key *Options, ids []int, groups []group) *lastRun {
	run := c.ran
	if run != nil && run == c.runs.last && run.key == *key && slices.Equal(run.ids, ids) &&
		!slices.ContainsFunc(groups, func(g group) bool { return g.shared }) {
		return run
	}
	c.plan = nil
	return &lastRun{key: *key, ids: ids}
}

// noteFrees adds to the changed list the functions among was-stale whose
// may-free vector now differs from the one run saw.
func (c *caches) noteFrees(stale []int32, run dense.Table[[]bool]) {
	for _, id := range stale {
		if !slices.Equal(run.At(int(id)), c.frees.At(int(id))) {
			c.changed = append(c.changed, fnChange{int(id), readsMayFree})
		}
	}
}

// checkList returns, in plan order, the tasks a patching run must hold
// against the Program: those of the functions the plan just took in, and
// those the index lists under a change of a kind they read.
func (c *caches) checkList(prog *Program, plan []scheduled, groups []group, edits []planEdit) []int32 {
	n := 0
	for _, ed := range edits {
		n += ed.n
	}
	todo := make([]int32, 0, n)
	for _, ed := range edits {
		for i := ed.at; i < ed.at+ed.n; i++ {
			todo = append(todo, int32(i))
		}
	}
	if len(c.changed) == 0 {
		return todo // the edits come in plan order
	}
	for _, ch := range c.changed {
		for _, ref := range c.readers[ch.id] {
			if ref.kind&ch.kind == 0 {
				continue
			}
			if i := planIndex(prog, c, plan, groups, ref); i >= 0 {
				todo = append(todo, int32(i))
			}
		}
	}
	slices.Sort(todo)
	return slices.Compact(todo)
}

// planIndex returns the plan position of the slot ref names, or -1 when the
// run schedules no such slot.
func planIndex(prog *Program, c *caches, plan []scheduled, groups []group, ref taskRef) int {
	gi := slices.IndexFunc(groups, func(g group) bool { return g.lists == int(ref.list) })
	fc := c.fn.At(int(ref.fn))
	if gi < 0 || fc == nil || int(ref.list) >= len(fc.tasks) || int(ref.k) >= len(fc.tasks[ref.list]) {
		return -1
	}
	i := planStart(prog.Module, plan, gi, prog.Module.Layout.Pos(int(ref.fn))) + int(ref.k)
	if i >= len(plan) || plan[i].task != &fc.tasks[ref.list][ref.k] {
		return -1
	}
	return i
}

// planStart returns the position of the first task of the plan at or after
// the function at module position pos in group gi.
func planStart(m *ir.Module, plan []scheduled, gi, pos int) int {
	i, _ := slices.BinarySearchFunc(plan, [2]int{gi, pos}, func(t scheduled, at [2]int) int {
		return cmp.Or(cmp.Compare(t.group, at[0]), cmp.Compare(m.Layout.Pos(t.fn.ID), at[1]))
	})
	return i
}

// patch derives this run's merge from run's: the tasks of the plan's edits,
// and the tasks of todo that ran (results[j] is todo[j]'s, olds[j] its memo
// before), give back their old contribution and add their new one. Their
// functions' reports are found again and merged into run's sorted list; every
// other report stays where it was. It indexes the reads of the memos the run
// recorded, and returns the new run and each checker's solving time in this
// call.
func (c *caches) patch(prog *Program, run *lastRun, groups []group, of, ids []int, plan []scheduled, edits []planEdit, todo []int32, olds []*replayEntry, results []*taskResult) (*lastRun, []time.Duration) {
	m := prog.Module
	next := &lastRun{key: run.key, ids: run.ids, frees: c.frees, stats: make([]Stats, len(of)), walked: run.walked, issued: run.issued}
	copy(next.stats, run.stats) // none in the empty run
	add := func(gi int, tr *taskResult, sign int) {
		for _, si := range groups[gi].at {
			s := tr.member(ids[si]).stats
			s.SMTTime = 0 // see replayEntry.result
			if sign < 0 {
				s = negStats(s)
			}
			addStats(&next.stats[si], s)
		}
		next.walked += sign * tr.walked
		next.issued += sign * tr.issued
	}
	// dirty lists the functions whose reports are found again: a group's
	// functions at module positions [lo, hi), which have the plan's tasks
	// [from, to).
	type span struct{ group, lo, hi, from, to int }
	dirty := make([]span, 0, len(edits))
	for _, ed := range edits {
		for _, t := range ed.old {
			add(ed.group, &t.memo.result, -1)
		}
		for _, t := range plan[ed.at : ed.at+ed.n] {
			add(ed.group, &t.memo.result, +1)
		}
		dirty = append(dirty, span{ed.group, ed.lo, ed.hi, ed.at, ed.at + ed.n})
	}
	smtTime := make([]time.Duration, len(of))
	e := 0
	for j, i := range todo {
		t := plan[i]
		old := olds[j]
		ran := old == nil || results[j] != &old.result
		if ran {
			c.readers.add(m, t.task, groups[t.group].lists)
			for _, si := range groups[t.group].at {
				smtTime[si] += results[j].member(ids[si]).stats.SMTTime
			}
		}
		for e < len(edits) && edits[e].at+edits[e].n <= int(i) {
			e++
		}
		if !ran || (e < len(edits) && edits[e].at <= int(i)) {
			continue // unchanged, or counted with its function's edit
		}
		add(t.group, &old.result, -1)
		add(t.group, &t.memo.result, +1)
		pos := m.Layout.Pos(t.fn.ID)
		dirty = append(dirty, span{t.group, pos, pos + 1, planStart(m, plan, t.group, pos), planStart(m, plan, t.group, pos+1)})
	}
	if len(dirty) == 0 {
		next.reports, next.found = run.reports, run.found
		return next, smtTime
	}

	// The dirty functions' reports, per checker in discovery order, deduped
	// per function: a report's source is in its task's function.
	byStart := func(a, b span) int { return cmp.Or(cmp.Compare(a.group, b.group), cmp.Compare(a.lo, b.lo)) }
	slices.SortFunc(dirty, byStart)
	dirty = slices.Compact(dirty)
	var found []foundReport
	seen := make(map[[2]Site]bool)
	for si, gi := range of {
		for _, d := range dirty {
			if d.group != gi {
				continue
			}
			var fn *ir.Func
			for _, t := range plan[d.from:d.to] {
				if t.fn != fn {
					fn = t.fn
					clear(seen)
				}
				mr := t.memo.result.member(ids[si])
				for r := range mr.reports {
					f := foundReport{&mr.reports[r], foundAt{int32(si), int32(m.Layout.Pos(fn.ID)), t.k, int32(r)}}
					if key := [2]Site{f.rep.Source, f.rep.Sink}; f.rep.Sink.Fn != nil {
						if seen[key] {
							continue
						}
						seen[key] = true
					}
					found = append(found, f)
				}
			}
		}
	}
	slices.SortStableFunc(found, func(a, b foundReport) int { return compareReports(a.rep, b.rep) })
	isDirty := func(f foundAt) bool { // the spans do not overlap
		gi, pos := of[f.spec], int(f.pos)
		i, ok := slices.BinarySearchFunc(dirty, span{group: gi, lo: pos}, byStart)
		return ok || (i > 0 && dirty[i-1].group == gi && pos < dirty[i-1].hi)
	}
	// Merge the kept reports of run with the found ones, both sorted.
	n := len(run.reports) + len(found)
	if n == 0 {
		return next, smtTime
	}
	next.reports, next.found = make([]Report, 0, n), make([]foundAt, 0, n)
	j := 0
	for i := range run.reports {
		if isDirty(run.found[i]) {
			continue
		}
		for ; j < len(found) && cmp.Or(compareReports(found[j].rep, &run.reports[i]), compareFound(found[j].at, run.found[i])) < 0; j++ {
			next.reports, next.found = append(next.reports, *found[j].rep), append(next.found, found[j].at)
		}
		next.reports, next.found = append(next.reports, run.reports[i]), append(next.found, run.found[i])
	}
	for ; j < len(found); j++ {
		next.reports, next.found = append(next.reports, *found[j].rep), append(next.found, found[j].at)
	}
	return next, smtTime
}

// crossCheck, when set, makes every patching run also hold each task it
// replayed unchecked against the Program, and report any whose memo does not
// hold.
var crossCheck atomic.Pointer[func(task string)]

// CrossCheckReplays makes every CheckAll that replays tasks without holding
// them against the Program — because nothing they read changed — hold them
// anyway, and call fail for each that does not hold. A test hook: it costs
// every check the read index saves. It returns a function that restores the
// previous setting.
func CrossCheckReplays(fail func(task string)) (restore func()) {
	prev := crossCheck.Swap(&fail)
	return func() { crossCheck.Store(prev) }
}

// crossCheckSkipped holds every plan task not in todo against the Program.
func crossCheckSkipped(fail func(string), prog *Program, c *caches, key *Options, plan []scheduled, groups []group, ids []int, todo []int32) {
	j := 0
	for i, t := range plan {
		if j < len(todo) && int(todo[j]) == i {
			j++
			continue
		}
		if !t.memo.holds(prog, c, key, &groups[t.group], ids) {
			fail(fmt.Sprintf("task %d (%s at %s, %s) replayed unchecked, but its memo does not hold", i, t.fn.Name, t.pos(), groups[t.group].name()))
		}
	}
}
