// Package summary implements the memoized local value-flow summaries of
// Pinpoint §3.3.2. A flow records one local value-flow path from a starting
// vertex to a "terminal" use vertex (a return operand, a call argument, a
// dereference, a free, ...). The global detector composes flows across
// functions:
//
//   - VF1 (parameter → return value) corresponds to flows from a parameter
//     vertex terminating at a RoleRetArg vertex;
//   - VF2 (source → return value), VF3 (parameter → source) and VF4
//     (parameter → sink) correspond to flows whose terminal is the relevant
//     checker vertex.
//
// The RV summaries of the paper — constraints describing a return value's
// range — are not materialized here: the SMT encoder reconstructs them
// lazily and memoized per (context, value) from the SEG's data dependence,
// which is equivalent and avoids cloning constraints for call sites that
// are never reached by a query.
//
// Flows are memoized per (graph, start vertex) and capped: at most MaxFlows
// flows per vertex and MaxSteps vertices per flow. Caps trade recall inside
// pathological functions for bounded memory, mirroring the paper's budget
// knobs; the harness counts cap hits.
package summary

import (
	"repro/internal/cond"
	"repro/internal/seg"
)

// Flow is a local value-flow path ending at a use vertex, held as its first
// step: the vertex, and the flow of a successor it continues with. That flow
// is one the memo holds already, so the flows of a function share their
// suffixes and one costs a record however long it is. A flow carries its
// condition — the conjunction of its edge conditions and of the control
// dependence of every step's statement, the PC(π) skeleton of Equation 1 (the
// DD closure is added by the SMT encoder) — conjoined once, when the memo
// makes it, from its first step's and its rest's.
type Flow struct {
	// Node is the flow's first vertex and Len the number of its steps.
	Node int32
	Len  int32
	term int32
	rest *Flow
	cond *cond.Cond
}

// Terminal returns the flow's final vertex.
func (f Flow) Terminal() int32 { return f.term }

// Cond returns the flow's path condition.
func (f Flow) Cond() *cond.Cond { return f.cond }

// Rest returns the flow after its first step: nil when that step is the
// terminal.
func (f Flow) Rest() *Flow { return f.rest }

// Table memoizes flow enumeration per SEG vertex.
type Table struct {
	// MaxFlows caps the flows returned per start vertex.
	MaxFlows int
	// MaxSteps caps the length of one flow.
	MaxSteps int

	// memo holds the flows of each start vertex enumerated so far (or in
	// progress), by vertex ID: nil for a vertex not looked up yet, never nil
	// after. One Table serves one graph and is sized at its first lookup.
	memo [][]Flow
	// CapHits counts vertices whose enumeration was truncated.
	CapHits int
	// Hits and Misses count FlowsFrom lookups served from / populating the
	// memo (including recursive enumeration steps). Like the memo itself
	// they are guarded by the caller's per-table lock; the detection layer
	// aggregates them into cache hit rates.
	Hits   int
	Misses int
}

// NewTable returns a Table with default caps.
func NewTable() *Table {
	return &Table{MaxFlows: 64, MaxSteps: 120}
}

// FlowsFrom enumerates local flows starting at from. The result is memoized
// and shared; callers must not mutate it.
func (t *Table) FlowsFrom(g *seg.Graph, from int32) []Flow {
	if t.memo == nil {
		t.memo = make([][]Flow, g.NumNodes())
	}
	if t.memo[from] != nil {
		t.Hits++
		return t.memo[from]
	}
	t.Misses++
	// Mark in-progress to cut (impossible in a DAG, defensive) cycles.
	t.memo[from] = noFlows
	cb := g.Conds()
	cd := cb.True() // of from's statement
	if in := g.Instr(from); in >= 0 {
		cd = g.CD(in)
	}
	if g.Node(from).Kind == seg.NUse {
		out := []Flow{{Node: from, Len: 1, term: from, cond: cd}}
		t.memo[from] = out
		return out
	}
	// First pass: enumerate the successors' flows (stopping where the flow
	// cap stops the enumeration) and count the result, so that the flows of
	// this vertex are one array.
	succs := g.Succs(from)
	var few [8][]Flow
	subs := few[:0]
	flows := 0
	for _, e := range succs {
		sub := t.FlowsFrom(g, e.To)
		subs = append(subs, sub)
		for _, sf := range sub {
			if flows >= t.MaxFlows {
				break
			}
			if int(sf.Len) < t.MaxSteps {
				flows++
			}
		}
		if flows >= t.MaxFlows {
			break
		}
	}
	out := make([]Flow, 0, flows) // not nil, however many
	truncated := false
	for i, sub := range subs {
		// What the step onto the successor adds to the successor's flows:
		// from's control dependence and the edge's condition.
		head := g.Cond(succs[i])
		if !cd.IsTrue() {
			head = cb.And(cd, head)
		}
		for j := range sub {
			if len(out) >= t.MaxFlows {
				truncated = true
				break
			}
			sf := &sub[j]
			if int(sf.Len) >= t.MaxSteps {
				truncated = true
				continue
			}
			c := sf.cond
			if !head.IsTrue() {
				c = cb.And(head, c)
			}
			out = append(out, Flow{Node: from, Len: sf.Len + 1, term: sf.term, rest: sf, cond: c})
		}
		if len(out) >= t.MaxFlows {
			truncated = true
			break
		}
	}
	if truncated {
		t.CapHits++
	}
	t.memo[from] = out
	return out
}

// noFlows is the memo entry of a vertex whose flows are being enumerated:
// empty, and not nil.
var noFlows = []Flow{}

// FlowsBetween filters FlowsFrom down to flows ending at a particular
// terminal role.
func (t *Table) FlowsBetween(g *seg.Graph, from int32, role seg.UseRole) []Flow {
	var out []Flow
	for _, f := range t.FlowsFrom(g, from) {
		if g.Node(f.Terminal()).Role == role {
			out = append(out, f)
		}
	}
	return out
}

// ParamToRet reports the VF1 relation for a function graph: flows from each
// parameter to return operands, keyed by parameter index.
func ParamToRet(t *Table, g *seg.Graph) map[int][]Flow {
	out := make(map[int][]Flow)
	for _, p := range g.Params() {
		flows := t.FlowsBetween(g, g.ValueNode(p), seg.RoleRetArg)
		if len(flows) > 0 {
			out[g.Value(p).ParamIdx()] = flows
		}
	}
	return out
}
