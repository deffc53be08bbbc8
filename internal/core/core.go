// Package core wires the full Pinpoint pipeline (the architecture of
// Figure 6 in the paper):
//
//	MiniC source
//	  → parse (minic)
//	  → lower straight into SSA-form CFG IR: unroll loops, normalize
//	    returns, place φs at joins (lower)
//	  → reach conditions, φ gates, control dependence (ssa)
//	  → Mod/Ref side-effect analysis (modref)
//	  → connector transformation: Aux params / Aux returns (transform)
//	  → local quasi path-sensitive points-to analysis (pta)
//	  → symbolic expression graphs (seg)
//	  → demand-driven global value-flow detection (detect + checkers)
//
// It also records per-stage wall-clock timings and structural size
// statistics, which the experiment harness uses to regenerate the paper's
// figures.
package core

import (
	"time"

	"repro/internal/checkers"
	"repro/internal/dense"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/obs"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/store"
)

// BuildOptions configures the front half of the pipeline.
type BuildOptions struct {
	// PTA tunes the local points-to analysis (ablations).
	PTA pta.Options
	// DisableConnectors skips the connector transformation — the
	// ablation approximating a design without §3.1.2's model (side
	// effects stay invisible across calls).
	DisableConnectors bool
	// Workers runs the build concurrently on that many goroutines. 0 or 1
	// means sequential; negative means GOMAXPROCS. Per-function stages
	// (parse per unit, lowering, SSA conversion, points-to analysis, SEG
	// construction) parallelize trivially; the cross-function stages —
	// Mod/Ref and the connector transform — run as a dependency-counting
	// wavefront over the condensed call graph (see DESIGN.md "Parallel
	// build pipeline"). Output is byte-identical at every worker count.
	// Detection parallelizes per demand source via detect.Options.Workers
	// (see Analysis.CheckAll).
	Workers int
	// Obs, when non-nil, receives hierarchical phase spans for every build
	// stage, per-function spans (and latency histograms) for the hot
	// per-function stages, and structural gauges. nil disables all
	// recording; the build result is identical either way.
	Obs *obs.Recorder
	// Store, when non-nil, backs the session's per-function artifacts and
	// its units' facts: they are warm-loaded on the first Update after a
	// restart — which then parses only the units it does not find — and
	// every commit writes back what changed. nil is memory-only — the
	// session's own tables are already the cache, so nothing is encoded or
	// digested.
	Store store.Store
	// KeepBody names a function whose body the build keeps beside its SEG,
	// blocks and all, in its ir.Func (every other function's is released; a
	// SEG holds no blocks): what `pinpoint -dump cfg:` renders. A function
	// loaded from the store has no body to keep.
	KeepBody string
}

// Timings partitions one Update's wall clock over the build's stages (see
// DESIGN.md "Parallel build pipeline"). The wavefront's share is split over
// Parse (units parsed on demand) and Lower through SEG by the CPU time each
// took. StoreLoad and StoreSave are the persistent store's I/O.
type Timings struct {
	Parse     time.Duration
	Plan      time.Duration
	Lower     time.Duration
	SSA       time.Duration
	ModRef    time.Duration
	Transform time.Duration
	PTA       time.Duration
	SEG       time.Duration
	Commit    time.Duration
	StoreLoad time.Duration
	StoreSave time.Duration
}

// Total sums the analysis stages: every field but store I/O.
func (t Timings) Total() time.Duration {
	return t.Parse + t.Plan + t.SEGBuild() + t.Commit
}

// SEGBuild sums the stages that constitute "building the SEG" in the
// paper's Figure 7 comparison: lowering through SEG construction.
func (t Timings) SEGBuild() time.Duration {
	return t.Lower + t.SSA + t.ModRef + t.Transform + t.PTA + t.SEG
}

// Sizes records structural size statistics, the deterministic memory proxy
// reported next to measured heap numbers.
type Sizes struct {
	Lines     int // IR instructions
	Functions int
	SEGNodes  int
	// SEGValueNodes is the value-definition share of SEGNodes; the rest
	// are use vertices.
	SEGValueNodes int
	SEGEdges      int
	CondNodes     int
}

// Analysis is a fully built program analysis ready for checking. SEGs and
// Summaries hold each function's symbolic expression graph and Mod/Ref
// summary, indexed by ir.Func.ID. They, and the module's function table, are
// shared chunk by chunk with the Analyses a session hands out before and
// after this one, and none of them writes a shared chunk.
type Analysis struct {
	Module    *ir.Module
	SEGs      dense.Table[*seg.Graph]
	Summaries dense.Table[*modref.Summary]
	Prog      *detect.Program
	Timings   Timings
	Sizes     Sizes
	// PTAStats aggregates the local points-to counters across functions.
	PTAStats pta.Stats
	// Artifacts reports the incremental artifact-store outcome of the
	// build: all misses for a one-shot build, mostly hits for a warm
	// Session.Update.
	Artifacts ArtifactStats
}

// BuildFromSource parses and analyzes a set of translation units: a
// one-shot build expressed as the first Update of a throwaway incremental
// session (every artifact is a miss). Callers that analyze a program series
// should hold a Session of their own and call Update instead.
func BuildFromSource(units []minic.NamedSource, opts BuildOptions) (*Analysis, error) {
	s := NewSession(opts)
	s.oneShot = opts.Store == nil
	return s.Update(units)
}

// emitBuildMetrics publishes the structural gauges of a finished build — sums
// of the per-function counters snapshotted when each function was built, so
// they cost the same however large the program and agree with Analysis.Sizes
// whatever detection has grown in place since — and adds to the PTA counters
// those of the functions the build made, built.
func emitBuildMetrics(rec *obs.Recorder, a *Analysis, built pta.Stats) {
	rec.Gauge("build.functions").Set(int64(a.Sizes.Functions))
	rec.Gauge("build.ir_instrs").Set(int64(a.Sizes.Lines))
	rec.Gauge("build.cond_nodes").Set(int64(a.Sizes.CondNodes))
	rec.Gauge("seg.nodes").Set(int64(a.Sizes.SEGNodes))
	rec.Gauge("seg.edges").Set(int64(a.Sizes.SEGEdges))
	rec.Gauge("seg.value_nodes").Set(int64(a.Sizes.SEGValueNodes))
	rec.Gauge("seg.use_nodes").Set(int64(a.Sizes.SEGNodes - a.Sizes.SEGValueNodes))
	rec.Counter("pta.guards_kept").Add(int64(built.GuardsKept))
	rec.Counter("pta.guards_pruned").Add(int64(built.GuardsPruned))
	rec.Counter("pta.cap_widened").Add(int64(built.CapWidened))
	rec.Counter("pta.linear_queries").Add(int64(built.LinearQueries))
	rec.Counter("pta.linear_unsat").Add(int64(built.LinearUnsat))
}

// Check runs one checker over the analysis: CheckAll with that one spec on
// one worker, returning its reports — in CheckAll's sorted order — and its
// stats.
func (a *Analysis) Check(spec *checkers.Spec, opts detect.Options) ([]detect.Report, detect.Stats) {
	opts.Workers = 1
	res := a.CheckAll([]*checkers.Spec{spec}, opts)
	st := res.Checkers[0].Stats
	st.SummaryCapHits = res.SummaryCapHits
	return res.Reports, st
}

// CheckAll runs every given checker over the analysis on the parallel
// detection scheduler (opts.Workers goroutines; 0/1 = sequential, negative
// = GOMAXPROCS). Reports come back sorted by (checker, source position,
// sink position) and are identical at every worker count.
func (a *Analysis) CheckAll(specs []*checkers.Spec, opts detect.Options) detect.Results {
	return detect.CheckAll(a.Prog, specs, opts)
}
