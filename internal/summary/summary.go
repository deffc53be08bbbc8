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
	"repro/internal/dense"
	"repro/internal/seg"
)

// Step is one vertex on a flow with the condition labeling the edge that
// entered it (true for the first step).
type Step struct {
	Node     int32
	EdgeCond *cond.Cond
}

// Flow is a local value-flow path ending at a use vertex.
type Flow struct {
	Steps []Step
}

// Terminal returns the flow's final vertex.
func (f Flow) Terminal() int32 { return f.Steps[len(f.Steps)-1].Node }

// Cond conjoins the flow's edge conditions and the control dependence of
// every step's statement in the given graph — the PC(π) skeleton of
// Equation 1 (the DD closure is added by the SMT encoder).
func (f Flow) Cond(g *seg.Graph) *cond.Cond {
	cb := g.Info.Conds
	parts := make([]*cond.Cond, 0, len(f.Steps)*2)
	for _, s := range f.Steps {
		parts = append(parts, s.EdgeCond)
		if in := g.Instr(s.Node); in != nil {
			parts = append(parts, g.CD(in))
		}
	}
	return cb.And(parts...)
}

// Table memoizes flow enumeration per SEG vertex.
type Table struct {
	// MaxFlows caps the flows returned per start vertex.
	MaxFlows int
	// MaxSteps caps the length of one flow.
	MaxSteps int

	// memo holds the flows of each start vertex enumerated so far (or in
	// progress), by vertex ID. One Table serves one graph; the memo grows
	// when the graph gained vertices since the last lookup.
	memo dense.Lists[Flow]
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
	at := int(from)
	if fs, ok := t.memo.Get(at); ok {
		t.Hits++
		return fs
	}
	t.Misses++
	// Mark in-progress to cut (impossible in a DAG, defensive) cycles.
	t.memo.Grow(g.NumNodes())
	t.memo.Put(at, nil)
	tr := g.Info.Conds.True()
	if g.Node(from).Kind == seg.NUse {
		out := []Flow{{Steps: []Step{{Node: from, EdgeCond: tr}}}}
		t.memo.Put(at, out)
		return out
	}
	// First pass: enumerate the successors' flows (stopping where the flow
	// cap stops the enumeration) and size the result, so that all steps of
	// all flows of this vertex share one backing array.
	succs := g.Succs(from)
	var few [8][]Flow
	subs := few[:0]
	flows, steps := 0, 0
	for _, e := range succs {
		sub := t.FlowsFrom(g, e.To)
		subs = append(subs, sub)
		for _, sf := range sub {
			if flows >= t.MaxFlows {
				break
			}
			if len(sf.Steps)+1 <= t.MaxSteps {
				flows++
				steps += len(sf.Steps) + 1
			}
		}
		if flows >= t.MaxFlows {
			break
		}
	}
	var out []Flow
	if flows > 0 {
		out = make([]Flow, 0, flows)
	}
	buf := make([]Step, 0, steps)
	truncated := false
	for i, sub := range subs {
		edgeCond := g.Cond(succs[i])
		for _, sf := range sub {
			if len(out) >= t.MaxFlows {
				truncated = true
				break
			}
			if len(sf.Steps)+1 > t.MaxSteps {
				truncated = true
				continue
			}
			start := len(buf)
			buf = append(buf, Step{Node: from, EdgeCond: tr})
			// The first step of the sub-flow carries the edge's condition
			// into it.
			buf = append(buf, Step{Node: sf.Steps[0].Node, EdgeCond: edgeCond})
			buf = append(buf, sf.Steps[1:]...)
			out = append(out, Flow{Steps: buf[start:len(buf):len(buf)]})
		}
		if len(out) >= t.MaxFlows {
			truncated = true
			break
		}
	}
	if truncated {
		t.CapHits++
	}
	t.memo.Put(at, out)
	return out
}

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
	for _, p := range g.Fn.Params {
		flows := t.FlowsBetween(g, g.ValueNode(p), seg.RoleRetArg)
		if len(flows) > 0 {
			out[p.ParamIdx()] = flows
		}
	}
	return out
}
