package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/obs"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/ssa"
	"repro/internal/transform"
	"repro/internal/workload"
)

// layerSet is the per-layer ledger of one traced run, keyed by the names
// BENCHMARK.json lists. A layer's metric name starts with its package
// under internal/.
type layerSet map[string]float64

// reportsJSON renders reports exactly as `pinpoint -format json` does, so
// in-process results compare byte for byte with the CLI's.
func reportsJSON(reports []detect.Report) []byte {
	list := make([]detect.JSONReport, 0, len(reports))
	for _, r := range reports {
		list = append(list, r.ToJSON())
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	_ = enc.Encode(list) // plain data into a buffer
	return b.Bytes()
}

// addTimings charges a build's own stage clock to the layers. It is how
// the workloads that build through core (not through the replay) fill
// the build-layer rows.
func (l layerSet) addTimings(tm core.Timings) {
	l["minic.parse_s"] += tm.Parse.Seconds()
	l["lower.lower_s"] += tm.Lower.Seconds()
	l["ssa.transform_s"] += tm.SSA.Seconds()
	l["modref.analyze_s"] += tm.ModRef.Seconds()
	l["transform.apply_s"] += tm.Transform.Seconds()
	l["pta.analyze_s"] += tm.PTA.Seconds()
	l["seg.build_s"] += tm.SEG.Seconds()
	l["store.load_s"] += tm.StoreLoad.Seconds()
	l["store.save_s"] += tm.StoreSave.Seconds()
}

// setSizes records the size of the intermediate representation each
// build layer left behind.
func (l layerSet) setSizes(sz core.Sizes, ps pta.Stats) {
	l["lower.ir_instrs"] = float64(sz.Lines)
	l["ssa.cond_nodes"] = float64(sz.CondNodes)
	l["seg.nodes"] = float64(sz.SEGNodes)
	l["seg.edges"] = float64(sz.SEGEdges)
	l.setPTA(ps)
}

func (l layerSet) setPTA(s pta.Stats) {
	l["pta.linear_queries"] = float64(s.LinearQueries)
	l["pta.linear_unsat_share"] = share(s.LinearUnsat, s.LinearQueries)
	l["pta.guards_pruned"] = float64(s.GuardsPruned)
}

// detectTotals sums the per-checker effort counters of CheckAll runs.
type detectTotals struct {
	detect.Stats
	Reports, SummaryHits, SummaryMisses int
}

func (d *detectTotals) add(res detect.Results) {
	for _, cs := range res.Checkers {
		s := cs.Stats
		d.Sources += s.Sources
		d.Expansions += s.Expansions
		d.Candidates += s.Candidates
		d.LinearFiltered += s.LinearFiltered
		d.SMTQueries += s.SMTQueries
		d.SMTSolved += s.SMTSolved
		d.SMTCacheHits += s.SMTCacheHits
		d.SMTPrefilterUnsat += s.SMTPrefilterUnsat
		d.SMTTime += s.SMTTime
	}
	d.Reports += len(res.Reports)
	d.SummaryHits += res.SummaryHits
	d.SummaryMisses += res.SummaryMisses
}

// setDetect writes the detect and smt rows from CheckAll's own counters.
// checkall is the busy time of the CheckAll calls the totals cover.
func (l layerSet) setDetect(d detectTotals, checkall float64) {
	l["detect.checkall_s"] = checkall
	l["detect.search_s"] = checkall - d.SMTTime.Seconds()
	l["detect.sources"] = float64(d.Sources)
	l["detect.expansions"] = float64(d.Expansions)
	l["detect.candidates"] = float64(d.Candidates)
	l["detect.linear_filtered_share"] = share(d.LinearFiltered, d.LinearFiltered+d.Candidates)
	l["detect.smt_queries"] = float64(d.SMTQueries)
	l["detect.summary_hit_share"] = share(d.SummaryHits, d.SummaryHits+d.SummaryMisses)
	l["detect.reports"] = float64(d.Reports)
	l["smt.time_s"] = d.SMTTime.Seconds()
	l["smt.solved"] = float64(d.SMTSolved)
	l["smt.cache_hits"] = float64(d.SMTCacheHits)
	l["smt.prefilter_unsat"] = float64(d.SMTPrefilterUnsat)
	l["smt.eliminated_share"] = share(d.SMTCacheHits+d.SMTPrefilterUnsat, d.SMTQueries)
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// hashAll fingerprints every unit and every function, as Session.Update
// does on each call to find what changed.
func hashAll(units []minic.NamedSource, prog *minic.Program) {
	for _, u := range units {
		minic.HashSource(u.Name, u.Src)
	}
	for _, f := range prog.Files {
		for _, fn := range f.Funcs {
			minic.HashFunc(fn)
		}
	}
}

// replayResult is what one replay of the pipeline produced.
type replayResult struct {
	Reports  []byte
	Wall     time.Duration
	First    detectTotals // the cold CheckAll
	PTA      pta.Stats
	IRInstrs int
	Conds    int
	SEGNodes int
	SEGEdges int
	Width    int
}

// replay drives the pipeline from outside, in the call order of
// core.BuildFromAST, with one span around each call into a layer: parse,
// lower, SSA per function, Mod/Ref, the connector transform, PTA and SEG
// per function, then detection twice on the same program (the second
// finds every cache warm, which is what a served resubmit pays). All at
// one worker, so a layer's spans never overlap and their sum is its busy
// time.
func replay(tr *tracer, parent int, units []minic.NamedSource) (*replayResult, error) {
	out := &replayResult{}
	t0 := time.Now()
	root := tr.begin(parent, "replay", "")
	defer tr.end(root)
	timed := func(op, name string, fn func() error) error {
		sp := tr.begin(root, op, name)
		defer tr.end(sp)
		return fn()
	}

	var prog *minic.Program
	if err := timed("minic.parse", "", func() (err error) {
		prog, err = minic.ParseProgram(units)
		return err
	}); err != nil {
		return nil, err
	}
	// The session hashes every unit and function on every Update to find
	// what changed; the monolithic pipeline does not, so this span is
	// beside the build, not inside it.
	_ = timed("minic.hash", "", func() error {
		hashAll(units, prog)
		return nil
	})
	var m *ir.Module
	if err := timed("lower", "", func() (err error) {
		m, err = lower.ProgramWith(prog, 1)
		return err
	}); err != nil {
		return nil, err
	}
	infos := make(map[*ir.Func]*ssa.Info, len(m.Funcs))
	for _, f := range m.Funcs {
		if err := timed("ssa", f.Name, func() (err error) {
			infos[f], err = ssa.Transform(f)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var mr *modref.Result
	_ = timed("modref", "", func() error {
		mr, out.Width = modref.AnalyzeWith(m, 1)
		return nil
	})
	if err := timed("transform", "", func() error {
		return transform.ApplyFuncsWith(m, m.Funcs, func(f *ir.Func) *modref.Summary { return mr.Summaries[f] }, 1)
	}); err != nil {
		return nil, err
	}
	segs := make(map[*ir.Func]*seg.Graph, len(m.Funcs))
	for _, f := range m.Funcs {
		var pr *pta.Result
		if err := timed("pta", f.Name, func() (err error) {
			pr, err = pta.Analyze(f, infos[f], pta.Options{})
			return err
		}); err != nil {
			return nil, err
		}
		out.PTA.Add(pr.Stats)
		_ = timed("seg", f.Name, func() error {
			segs[f] = seg.Build(f, infos[f], pr)
			return nil
		})
	}
	// Sizes now: detection grows condition and value nodes in place.
	out.IRInstrs = m.LineCount()
	for _, f := range m.Funcs {
		out.Conds += infos[f].Conds.NumNodes()
		out.SEGNodes += segs[f].NumNodes()
		out.SEGEdges += segs[f].NumEdges()
	}

	var dp *detect.Program
	_ = timed("detect.prepare", "", func() error {
		dp = detect.NewProgram(m, infos, segs)
		dp.EnableCachePersistence()
		return nil
	})
	var res detect.Results
	_ = timed("detect.checkall", "cold", func() error {
		res = detect.CheckAll(dp, checkers.All(), detect.Options{Workers: 1})
		return nil
	})
	out.First.add(res)
	out.Reports = reportsJSON(res.Reports)
	var again detect.Results
	_ = timed("detect.recheck", "warm", func() error {
		again = detect.CheckAll(dp, checkers.All(), detect.Options{Workers: 1})
		return nil
	})
	if !bytes.Equal(reportsJSON(again.Reports), out.Reports) {
		return nil, fmt.Errorf("replay: second CheckAll on the same program reports differently")
	}
	out.Wall = time.Since(t0)
	return out, nil
}

// buildAndCheck is the reference the replay is held against: the real
// entry points, timed as a whole.
func buildAndCheck(units []minic.NamedSource, workers int, rec *obs.Recorder) (build, check time.Duration, reports []byte, allocMiB float64, err error) {
	settle()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	a, err := core.BuildFromSource(units, core.BuildOptions{Workers: workers, Obs: rec})
	if err != nil {
		return 0, 0, nil, 0, err
	}
	build = time.Since(t0)
	runtime.ReadMemStats(&m1)
	t0 = time.Now()
	res := a.CheckAll(checkers.All(), detect.Options{Workers: workers})
	check = time.Since(t0)
	return build, check, reportsJSON(res.Reports), float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), nil
}

// buildOnly times core.BuildFromSource at one worker, with or without a
// recorder.
func buildOnly(units []minic.NamedSource, rec *obs.Recorder) (time.Duration, error) {
	settle()
	t0 := time.Now()
	_, err := core.BuildFromSource(units, core.BuildOptions{Workers: 1, Obs: rec})
	return time.Since(t0), err
}

// traceBuildLayers fills the build, detect and smt rows for one program:
// a traced replay for the per-layer times, and the real entry points at
// one and at nproc workers, and with a recorder, for the totals, the
// parallel speed-ups and the recorder's cost. It fails unless
// the replay's reports equal core.BuildFromSource + CheckAll byte for
// byte, so the spans are known to describe the same analysis.
func traceBuildLayers(e *env, tr *tracer, t *tally, g *workload.Generated) (layerSet, error) {
	l := layerSet{}
	root := tr.begin(0, "workload", "batch-ladder")
	defer tr.end(root)

	sp := tr.begin(root, "core.build+check", "workers=1")
	build1, check1, ref, alloc, err := buildAndCheck(g.Units, 1, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	t.Attempted++
	verifyCLI(e, t, "BuildFromSource+CheckAll", ref, &g.Truth)

	settle()
	rep, err := replay(tr, root, g.Units)
	if err != nil {
		return nil, err
	}
	t.Attempted++
	if !bytes.Equal(rep.Reports, ref) {
		t.wrong(1, "replayed pipeline reports differ from core.BuildFromSource + CheckAll")
	}

	sp = tr.begin(root, "core.build+check", fmt.Sprintf("workers=%d", e.Nproc))
	buildN, checkN, repN, _, err := buildAndCheck(g.Units, e.Nproc, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	t.Attempted++
	if !bytes.Equal(repN, ref) {
		t.wrong(1, "reports at %d workers differ from reports at 1 worker", e.Nproc)
	}
	// The recorder's cost is a few percent of a build that itself varies
	// by more from one run to the next: best of three each, alternating.
	bare, recorded := build1, time.Duration(1<<62)
	for i := 0; i < 3; i++ {
		sp = tr.begin(root, "core.build", "workers=1 obs")
		d, err := buildOnly(g.Units, obs.New())
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		recorded = min(recorded, d)
		if i < 2 {
			sp = tr.begin(root, "core.build", "workers=1")
			d, err = buildOnly(g.Units, nil)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			bare = min(bare, d)
		}
	}

	l["minic.parse_s"] = tr.busy("minic.parse")
	l["minic.hash_s"] = tr.busy("minic.hash")
	l["lower.lower_s"] = tr.busy("lower")
	l["ssa.transform_s"] = tr.busy("ssa")
	l["modref.analyze_s"] = tr.busy("modref")
	l["modref.wavefront_width"] = float64(rep.Width)
	l["transform.apply_s"] = tr.busy("transform")
	l["pta.analyze_s"] = tr.busy("pta")
	l["seg.build_s"] = tr.busy("seg")
	l["lower.ir_instrs"] = float64(rep.IRInstrs)
	l["ssa.cond_nodes"] = float64(rep.Conds)
	l["seg.nodes"] = float64(rep.SEGNodes)
	l["seg.edges"] = float64(rep.SEGEdges)
	l.setPTA(rep.PTA)

	layersSum := l["minic.parse_s"] + l["lower.lower_s"] + l["ssa.transform_s"] + l["modref.analyze_s"] +
		l["transform.apply_s"] + l["pta.analyze_s"] + l["seg.build_s"]
	l["core.build_s"] = build1.Seconds()
	l["core.self_s"] = build1.Seconds() - layersSum
	l["core.build_parallel_speedup"] = build1.Seconds() / buildN.Seconds()
	l["core.alloc_mb"] = alloc
	l["obs.recorder_overhead_share"] = recorded.Seconds()/bare.Seconds() - 1

	l.setDetect(rep.First, tr.busy("detect.checkall"))
	l["detect.prepare_s"] = tr.busy("detect.prepare")
	l["detect.recheck_s"] = tr.busy("detect.recheck")
	l["detect.parallel_speedup"] = check1.Seconds() / checkN.Seconds()
	l["harness.trace_overhead_share"] = tr.overheadShare(rep.Wall)

	fmt.Fprintf(e.Out, "build layers %.3f s + core.self_s %.3f s = core.build_s %.3f s; replay reports byte-identical to core: %v\n",
		layersSum, l["core.self_s"], l["core.build_s"], bytes.Equal(rep.Reports, ref))
	return l, nil
}
