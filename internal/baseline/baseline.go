// Package baseline implements the three comparison tools of the paper's
// evaluation:
//
//   - SVF (§5.1): the "layered" design — a global flow- and
//     context-insensitive Andersen points-to analysis feeding a full sparse
//     value-flow graph (package vfg), checked by plain graph reachability
//     with no conditions, contexts, or ordering. Fast to describe, slow to
//     build at scale, and floods the user with warnings.
//   - Infer-like (§5.4): compositional, confined to one compilation unit,
//     no path conditions and no ordering discipline — fast, cross-unit
//     bugs invisible, and false positives from infeasible or reordered
//     paths.
//   - CSA-like (§5.4): per-unit symbolic exploration with ordering but
//     without full path correlation (the linear filter runs, the SMT
//     solver does not).
//
// The Infer- and CSA-like baselines reuse Pinpoint's engine with the
// corresponding features disabled, which isolates exactly the design
// dimensions the paper credits for the precision gap.
package baseline

import (
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/pta"
	"repro/internal/ssa"
	"repro/internal/vfg"
)

// SVFResult is the outcome of the layered baseline on one program.
type SVFResult struct {
	// Graph is the FSVFG (nil if construction aborted).
	Graph *vfg.Graph
	// Reports are the raw warnings (source free, sink deref).
	Reports []SVFReport
	// TimedOut is set when the points-to or edge budget aborted
	// construction — the analogue of the paper's 12-hour timeouts on
	// subjects > 135 KLoC.
	TimedOut bool
	// CheckTimedOut is set when the reachability phase exhausted its
	// work budget (the paper: SVF's checking exceeded 12 hours on 15 of
	// 30 subjects).
	CheckTimedOut bool
	// PTATime / BuildTime / CheckTime split the cost.
	PTATime   time.Duration
	BuildTime time.Duration
	CheckTime time.Duration
	// Nodes and Edges are the graph's structural size (the memory proxy
	// in Figures 8 and 9).
	Nodes, Edges       int
	AndersenIterations int
}

// SVFReport is one baseline warning.
type SVFReport struct {
	Source vfg.Site // the free
	Sink   vfg.Site // the deref or second free
}

// BuildBaselineModule lowers a program for the layered pipeline: SSA but no
// connector transformation (the baseline has no such concept).
func BuildBaselineModule(units []minic.NamedSource) (*ir.Module, error) {
	prog, err := minic.ParseProgram(units)
	if err != nil {
		return nil, err
	}
	m, err := lower.Program(prog)
	if err != nil {
		return nil, err
	}
	for _, f := range m.Funcs {
		if _, err := ssa.Transform(f); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// SVFOptions bounds the baseline's cost.
type SVFOptions struct {
	// MaxEdges is the FSVFG edge budget (0 = unlimited).
	MaxEdges int
	// MaxPTAWork bounds Andersen propagation work (0 = unlimited).
	MaxPTAWork int
	// MaxCheckWork bounds reachability node visits (0 = unlimited).
	MaxCheckWork int64
	// MaxReports caps emitted warnings (the harness reads the count; the
	// paper likewise samples 100 of thousands).
	MaxReports int
}

// RunSVF executes the layered baseline end to end.
func RunSVF(m *ir.Module, opts SVFOptions) *SVFResult {
	res := &SVFResult{}

	t0 := time.Now()
	ap := pta.AndersenWithBudget(m, opts.MaxPTAWork)
	res.PTATime = time.Since(t0)
	res.AndersenIterations = ap.Iterations
	if ap.TimedOut {
		res.TimedOut = true
		return res
	}

	t0 = time.Now()
	g, err := vfg.Build(m, ap, vfg.Options{MaxEdges: opts.MaxEdges})
	res.BuildTime = time.Since(t0)
	res.Graph = g
	res.Nodes = g.NumNodes()
	res.Edges = g.NumEdges()
	if err != nil {
		res.TimedOut = true
		return res
	}

	t0 = time.Now()
	max := opts.MaxReports
	var budget *int64
	if opts.MaxCheckWork > 0 {
		b := opts.MaxCheckWork
		budget = &b
	}
	for _, free := range g.Frees {
		for _, sink := range g.ReachableDerefs(g.Operand(free, 0), free, budget) {
			res.Reports = append(res.Reports, SVFReport{Source: free, Sink: sink})
			if max > 0 && len(res.Reports) >= max {
				res.CheckTime = time.Since(t0)
				return res
			}
		}
		if budget != nil && *budget <= 0 {
			res.CheckTimedOut = true
			break
		}
	}
	res.CheckTime = time.Since(t0)
	return res
}

// RunInferLike checks use-after-free the way the paper characterizes
// Infer: within one compilation unit, compositional, without path
// conditions or ordering discipline.
func RunInferLike(a *core.Analysis, spec *checkers.Spec) ([]detect.Report, detect.Stats) {
	return a.Check(spec, detect.Options{
		SameUnitOnly:           true,
		DisablePathSensitivity: true,
		IgnoreOrdering:         true,
		MaxCallDepth:           6,
	})
}

// RunCSALike checks use-after-free the way the paper characterizes the
// Clang Static Analyzer: per-unit symbolic exploration with ordering but
// without full path correlation (no SMT; shallow inlining).
func RunCSALike(a *core.Analysis, spec *checkers.Spec) ([]detect.Report, detect.Stats) {
	return a.Check(spec, detect.Options{
		SameUnitOnly:           true,
		DisablePathSensitivity: true,
		MaxCallDepth:           3,
	})
}
