// Package vfg builds the full sparse value-flow graph (FSVFG) of the
// "layered" baseline (SVF, paper §5.1): a whole-program value-flow graph
// whose memory edges come from a global flow- and context-insensitive
// Andersen points-to analysis.
//
// Every store to a location is connected to every load from an aliased
// location, program-wide and unconditionally — the construction that blows
// up on imprecise points-to results. The node and edge counts are the
// "memory cost" the baseline pays in Figures 7–9; Build enforces an edge
// budget so the harness can report timeouts the way the paper does.
package vfg

import (
	"errors"

	"repro/internal/ir"
	"repro/internal/pta"
)

// ErrBudget is returned when the graph exceeds the construction budget —
// the analogue of the paper's 12-hour timeout.
var ErrBudget = errors.New("vfg: edge budget exhausted")

// Site names an instruction of a module: the ID of its function and its
// instruction ID.
type Site struct{ Fn, In int32 }

// Graph is the whole-program FSVFG. Nodes are SSA values; edges are value
// flows (direct def-use and store→load through may-aliased memory).
type Graph struct {
	Module *ir.Module
	PTS    *pta.AndersenResult

	succ map[pta.Var][]pta.Var
	// Derefs maps each value to the load/store instructions that
	// dereference it (the UAF sinks of the baseline checker).
	Derefs map[pta.Var][]Site
	// Frees lists all free instructions.
	Frees []Site

	nodes map[pta.Var]bool
	edges int
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Succs returns the successors of a value node.
func (g *Graph) Succs(v pta.Var) []pta.Var { return g.succ[v] }

// Operand returns operand i of the instruction at s.
func (g *Graph) Operand(s Site, i int) pta.Var {
	f := g.Module.Funcs[g.Module.Layout.Pos(int(s.Fn))]
	return pta.Var{Fn: s.Fn, Val: f.Args(s.In)[i]}
}

// Options bounds construction cost.
type Options struct {
	// MaxEdges aborts construction when exceeded (0 = unlimited).
	MaxEdges int
}

// Build constructs the FSVFG from a module and its Andersen result.
func Build(m *ir.Module, pts *pta.AndersenResult, opts Options) (*Graph, error) {
	g := &Graph{
		Module: m,
		PTS:    pts,
		succ:   make(map[pta.Var][]pta.Var),
		Derefs: make(map[pta.Var][]Site),
		nodes:  make(map[pta.Var]bool),
	}
	addEdge := func(from, to pta.Var) error {
		g.nodes[from] = true
		g.nodes[to] = true
		g.succ[from] = append(g.succ[from], to)
		g.edges++
		if opts.MaxEdges > 0 && g.edges > opts.MaxEdges {
			return ErrBudget
		}
		return nil
	}

	// Index stores and loads by location.
	storesByLoc := make(map[pta.Loc][]pta.Var) // stored values
	loadsByLoc := make(map[pta.Loc][]pta.Var)  // load destinations

	for _, f := range m.Funcs {
		fn := int32(f.ID)
		at := func(v int32) pta.Var { return pta.Var{Fn: fn, Val: v} }
		for _, in := range f.Order() {
			r, args := f.In(in), f.Args(in)
			switch r.Op {
			case ir.OpCopy, ir.OpUn, ir.OpBin, ir.OpPhi:
				for _, a := range args {
					if err := addEdge(at(a), at(r.Dst)); err != nil {
						return g, err
					}
				}
			case ir.OpLoad:
				g.Derefs[at(args[0])] = append(g.Derefs[at(args[0])], Site{fn, in})
				for l := range pts.PointsTo(at(args[0])) {
					loadsByLoc[l] = append(loadsByLoc[l], at(r.Dst))
				}
			case ir.OpStore:
				g.Derefs[at(args[0])] = append(g.Derefs[at(args[0])], Site{fn, in})
				for l := range pts.PointsTo(at(args[0])) {
					storesByLoc[l] = append(storesByLoc[l], at(args[1]))
				}
			case ir.OpFree:
				g.Frees = append(g.Frees, Site{fn, in})
			case ir.OpCall:
				if err := pta.CallBinds(m, f, in, addEdge); err != nil {
					return g, err
				}
			}
		}
	}

	// Memory edges: every store to L feeds every load from any location
	// aliased with L. With flow-insensitive points-to this is simply the
	// per-location cross product, location by location in program order,
	// so that a budget cuts it at the same place every time.
	for _, l := range pts.Locs {
		loads := loadsByLoc[l]
		for _, sv := range storesByLoc[l] {
			for _, ld := range loads {
				if err := addEdge(sv, ld); err != nil {
					return g, err
				}
			}
		}
	}
	return g, nil
}

// ReachableDerefs runs the baseline bug query: all dereference and free
// instructions whose operand is graph-reachable from the freed value. No
// ordering, no conditions, no contexts — exactly the precision the layered
// design affords without re-running an expensive analysis.
//
// The traversal decrements *budget per visited node (pass nil for
// unlimited); when it hits zero, the walk stops and the results so far are
// returned — the caller treats that as the checking-phase timeout the paper
// reports for SVF on half its subjects.
func (g *Graph) ReachableDerefs(freed pta.Var, from Site, budget *int64) []Site {
	var out []Site
	seen := map[pta.Var]bool{}
	var walk func(v pta.Var)
	walk = func(v pta.Var) {
		if seen[v] {
			return
		}
		if budget != nil {
			if *budget <= 0 {
				return
			}
			*budget--
		}
		seen[v] = true
		for _, in := range g.Derefs[v] {
			if in != from {
				out = append(out, in)
			}
		}
		for _, to := range g.succ[v] {
			walk(to)
		}
	}
	walk(freed)
	return out
}
