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

// Graph is the whole-program FSVFG. Nodes are SSA values; edges are value
// flows (direct def-use and store→load through may-aliased memory).
type Graph struct {
	Module *ir.Module
	PTS    *pta.AndersenResult

	succ map[*ir.Value][]*ir.Value
	// Derefs maps each value to the load/store instructions that
	// dereference it (the UAF sinks of the baseline checker).
	Derefs map[*ir.Value][]*ir.Instr
	// Frees lists all free instructions.
	Frees []*ir.Instr

	nodes map[*ir.Value]bool
	edges int
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Succs returns the successors of a value node.
func (g *Graph) Succs(v *ir.Value) []*ir.Value { return g.succ[v] }

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
		succ:   make(map[*ir.Value][]*ir.Value),
		Derefs: make(map[*ir.Value][]*ir.Instr),
		nodes:  make(map[*ir.Value]bool),
	}
	addEdge := func(from, to *ir.Value) error {
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
	storesByLoc := make(map[pta.Loc][]*ir.Value) // stored values
	loadsByLoc := make(map[pta.Loc][]*ir.Value)  // load destinations

	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpCopy, ir.OpUn:
					if err := addEdge(in.Args[0], in.Dst); err != nil {
						return g, err
					}
				case ir.OpBin:
					for _, a := range in.Args {
						if err := addEdge(a, in.Dst); err != nil {
							return g, err
						}
					}
				case ir.OpPhi:
					for _, a := range in.Args {
						if err := addEdge(a, in.Dst); err != nil {
							return g, err
						}
					}
				case ir.OpLoad:
					g.Derefs[in.Args[0]] = append(g.Derefs[in.Args[0]], in)
					for l := range pts.PointsTo(in.Args[0]) {
						loadsByLoc[l] = append(loadsByLoc[l], in.Dst)
					}
				case ir.OpStore:
					g.Derefs[in.Args[0]] = append(g.Derefs[in.Args[0]], in)
					for l := range pts.PointsTo(in.Args[0]) {
						storesByLoc[l] = append(storesByLoc[l], in.Args[1])
					}
				case ir.OpFree:
					g.Frees = append(g.Frees, in)
				case ir.OpCall:
					callee := m.Lookup(in.Callee())
					if callee == nil {
						continue
					}
					for i, a := range in.Args {
						if i < len(callee.Params) {
							if err := addEdge(a, callee.Params[i]); err != nil {
								return g, err
							}
						}
					}
					ret := callee.Exit.Term()
					auxStart := len(ret.Args) - len(callee.AuxOut)
					for ri, rv := range ret.Args {
						dstIdx := 0
						if ri >= auxStart {
							dstIdx = 1 + (ri - auxStart)
						}
						if dstIdx < len(in.Dsts()) && in.Dsts()[dstIdx] != nil {
							if err := addEdge(rv, in.Dsts()[dstIdx]); err != nil {
								return g, err
							}
						}
					}
				}
			}
		}
	}

	// Memory edges: every store to L feeds every load from any location
	// aliased with L. With flow-insensitive points-to this is simply the
	// per-location cross product.
	for l, stores := range storesByLoc {
		loads := loadsByLoc[l]
		for _, sv := range stores {
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
func (g *Graph) ReachableDerefs(freed *ir.Value, from *ir.Instr, budget *int64) []*ir.Instr {
	var out []*ir.Instr
	seen := map[*ir.Value]bool{}
	var walk func(v *ir.Value)
	walk = func(v *ir.Value) {
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
