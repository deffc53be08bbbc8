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

// Patched runs. Every CheckAll leaves each task of its groups' lists, over
// the functions of its Program, with a memo that holds in that Program: the
// task ran, or holds said so. A later run under the same result key and
// checker numbering, on a Program of the same Layout, can therefore trust
// every memo that read nothing changed since — the functions that replaced
// others (caches.fresh, the run's edits), the changed-function list
// (caches.changed) and the read index (readIndex) pick out the rest — and
// patch that run's merge (lastRun) with the few tasks that run again, instead
// of checking and merging every task. Any other run patches the empty run, in
// which every function is an edit.

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

// lastRun is what a CheckAll left for the next to patch: what it ran under —
// the task table and may-free vectors as it saw them, snapshots that share
// the Program's chunks (dense.Table) — and its merge without SMTTime: the
// number of its tasks, each checker's Stats, the work counted once, and the
// sorted reports with the place each was found at and their encoding. A run
// whose merge gives back its parent's reports shares their list and encoding.
type lastRun struct {
	key   Options
	ids   []int
	fn    dense.Table[*fnCache]
	frees dense.Table[[]bool]

	tasks          int
	stats          []Stats
	walked, issued int
	reports        []Report
	found          []foundAt
	json           *reportsJSON
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
// ids patches: the Program's last run, when it is the session's last and ran
// under the same key for the same checkers. Otherwise it returns the empty
// run.
func (c *caches) patchable(key *Options, ids []int) *lastRun {
	run := c.ran
	if run != nil && run == c.runs.last && run.key == *key && slices.Equal(run.ids, ids) {
		return run
	}
	return &lastRun{key: *key, ids: ids, json: new(reportsJSON)}
}

// checkList returns the tasks a run holds against the Program, in canonical
// order — groups in order of first appearance, functions in module order,
// tasks in list order: those of its edits, and, when it patches, those the
// index lists under a change of a kind they read.
func (c *caches) checkList(prog *Program, groups []group, edits []span, patching bool) []pending {
	m := prog.Module
	n := 0
	for _, ed := range edits {
		for pos := ed.lo; pos < ed.hi; pos++ {
			n += len(tasksOf(&c.fn, m.Func(pos).ID, groups[ed.group].lists))
		}
	}
	todo := make([]pending, 0, n)
	for _, ed := range edits {
		for pos := ed.lo; pos < ed.hi; pos++ {
			ts := tasksOf(&c.fn, m.Func(pos).ID, groups[ed.group].lists)
			for k := range ts {
				todo = append(todo, pending{ed.group, &ts[k]})
			}
		}
	}
	if !patching || len(c.changed) == 0 {
		return todo
	}
	for _, ch := range c.changed {
		for _, ref := range c.readers[ch.id] {
			if ref.kind&ch.kind == 0 {
				continue
			}
			gi := slices.IndexFunc(groups, func(g group) bool { return g.lists == int(ref.list) })
			if ts := tasksOf(&c.fn, int(ref.fn), int(ref.list)); gi >= 0 && int(ref.k) < len(ts) {
				todo = append(todo, pending{gi, &ts[ref.k]})
			}
		}
	}
	slices.SortFunc(todo, func(a, b pending) int {
		return cmp.Or(cmp.Compare(a.group, b.group), cmp.Compare(m.Layout.Pos(a.fn.ID), m.Layout.Pos(b.fn.ID)), cmp.Compare(a.k, b.k))
	})
	return slices.Compact(todo)
}

// patch derives this run's merge from run's: the functions of the edits give
// back the tasks run saw and add their own (all in todo), and every other
// task of todo that ran (results[j] is todo[j]'s, olds[j] its memo before)
// gives back its old contribution and adds its new one. Their functions'
// reports are found again, from their own task lists, and merged into run's
// sorted list; every other report stays where it was. It indexes the reads of
// the memos the run recorded, and returns the new run and each checker's
// solving time in this call.
func (c *caches) patch(prog *Program, run *lastRun, groups []group, of, ids []int, edits []span, todo []pending, olds []*replayEntry, results []*taskResult) (*lastRun, []time.Duration) {
	m := prog.Module
	next := &lastRun{key: run.key, ids: run.ids, fn: c.fn.Fork(), frees: c.frees.Fork(), tasks: run.tasks,
		stats: make([]Stats, len(of)), walked: run.walked, issued: run.issued}
	copy(next.stats, run.stats) // none in the empty run
	add := func(gi int, tr *taskResult, sign int) {
		for si := range of {
			if of[si] != gi {
				continue
			}
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
	for _, ed := range edits {
		for pos := ed.lo; pos < ed.hi; pos++ {
			old := tasksOf(&run.fn, m.Func(pos).ID, groups[ed.group].lists)
			for k := range old {
				add(ed.group, &old[k].memo.result, -1)
			}
			next.tasks -= len(old)
		}
	}
	// dirty lists the functions whose reports are found again: the edits',
	// and those of the other tasks that ran.
	dirty := slices.Clip(edits)
	smtTime := make([]time.Duration, len(of))
	for j, t := range todo {
		old := olds[j]
		ran := old == nil || results[j] != &old.result
		if ran {
			c.readers.add(m, t.task, groups[t.group].lists)
			for si, gi := range of {
				if gi == t.group {
					smtTime[si] += results[j].member(ids[si]).stats.SMTTime
				}
			}
		}
		switch pos := m.Layout.Pos(t.fn.ID); {
		case covers(edits, t.group, pos): // a task of an edit: new
			add(t.group, &t.memo.result, +1)
			next.tasks++
		case ran:
			add(t.group, &old.result, -1)
			add(t.group, &t.memo.result, +1)
			dirty = append(dirty, span{t.group, pos, pos + 1})
		}
	}
	if len(dirty) == 0 {
		next.reports, next.found, next.json = run.reports, run.found, run.json
		return next, smtTime
	}

	// The dirty functions' reports, per checker in discovery order, deduped
	// per function: a report's source is in its task's function.
	slices.SortFunc(dirty, compareSpans)
	dirty = slices.Compact(dirty)
	var found []foundReport
	seen := make(map[[2]Site]bool)
	for si, gi := range of {
		for _, d := range dirty {
			if d.group != gi {
				continue
			}
			for pos := d.lo; pos < d.hi; pos++ {
				ts := tasksOf(&c.fn, m.Func(pos).ID, groups[gi].lists)
				if len(seen) > 0 {
					clear(seen)
				}
				for k := range ts {
					mr := ts[k].memo.result.member(ids[si])
					for r := range mr.reports {
						f := foundReport{&mr.reports[r], foundAt{int32(si), int32(pos), int32(k), int32(r)}}
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
	}
	slices.SortStableFunc(found, func(a, b foundReport) int { return compareReports(a.rep, b.rep) })
	// Merge the kept reports of run with the found ones, both sorted. While
	// each pair it emits is the one run has at that index, the merge writes
	// nothing: a list that comes out whole is run's.
	base := run.json.done.Load()
	var from []int32 // per report, its index in run's list or -1 (see reportsJSON)
	out := 0
	diverge := func() {
		n := len(run.reports) + len(found)
		next.reports = append(make([]Report, 0, n), run.reports[:out]...)
		next.found = append(make([]foundAt, 0, n), run.found[:out]...)
		if base != nil {
			from = make([]int32, out, n)
			for k := range from {
				from[k] = int32(k)
			}
		}
	}
	emit := func(r *Report, at foundAt, i int32) {
		if next.reports == nil {
			if out < len(run.reports) && run.found[out] == at && sameReport(&run.reports[out], r) {
				out++
				return
			}
			diverge()
		}
		next.reports, next.found = append(next.reports, *r), append(next.found, at)
		if base != nil {
			from = append(from, i)
		}
	}
	j := 0
	for i := range run.reports {
		if f := run.found[i]; covers(dirty, of[f.spec], int(f.pos)) {
			continue
		}
		for ; j < len(found) && cmp.Or(compareReports(found[j].rep, &run.reports[i]), compareFound(found[j].at, run.found[i])) < 0; j++ {
			emit(found[j].rep, found[j].at, -1)
		}
		emit(&run.reports[i], run.found[i], int32(i))
	}
	for ; j < len(found); j++ {
		emit(found[j].rep, found[j].at, -1)
	}
	if next.reports == nil && out == len(run.reports) {
		next.reports, next.found, next.json = run.reports, run.found, run.json
		return next, smtTime
	}
	if next.reports == nil { // run's list cut short
		diverge()
	}
	next.json = &reportsJSON{base: base, from: from}
	return next, smtTime
}

// sameReport reports whether a and b are alike in every field, their witness
// and provenance by value.
func sameReport(a, b *Report) bool {
	if a == b {
		return true
	}
	if a.Checker != b.Checker || a.Kind != b.Kind || a.SourceFn != b.SourceFn || a.SinkFn != b.SinkFn ||
		a.SourcePos != b.SourcePos || a.SinkPos != b.SinkPos || a.Source != b.Source || a.Sink != b.Sink ||
		a.PathLen != b.PathLen || a.Contexts != b.Contexts || a.Verdict != b.Verdict || !slices.Equal(a.Witness, b.Witness) {
		return false
	}
	pa, pb := a.Provenance, b.Provenance
	return pa == pb || (pa != nil && pb != nil && pa.CondTerms == pb.CondTerms &&
		pa.VerdictSource == pb.VerdictSource && slices.Equal(pa.Hops, pb.Hops))
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

// crossCheckSkipped holds every task of the groups' lists that is not in
// todo against the Program.
func crossCheckSkipped(fail func(string), prog *Program, c *caches, key *Options, groups []group, ids []int, todo []pending) {
	held := make(map[*task]bool, len(todo))
	for _, t := range todo {
		held[t.task] = true
	}
	m := prog.Module
	for gi := range groups {
		for pos := range m.NumFuncs() {
			ts := tasksOf(&c.fn, m.Func(pos).ID, groups[gi].lists)
			for k := range ts {
				if t := &ts[k]; !held[t] && !t.memo.holds(prog, c, key, &groups[gi], ids) {
					fail(fmt.Sprintf("task %d of %s (at %s, %s) replayed unchecked, but its memo does not hold", k, t.fn.Name, t.pos(), groups[gi].name()))
				}
			}
		}
	}
}
