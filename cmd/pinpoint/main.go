// Command pinpoint analyzes MiniC source files with the full holistic
// pipeline and reports source–sink bugs.
//
// Usage:
//
//	pinpoint [-checkers uaf,double-free,path-traversal,data-transmission,null-deref,memory-leak]
//	         [-workers N] [-depth N] [-no-path-sensitivity] [-stats] [-provenance]
//	         [-store-dir dir]
//	         [-trace out.json] [-stats-json out.json] [-pprof addr] file.mc...
//	pinpoint serve [-addr host:port] [-workers N] [-max-inflight N]
//	         [-request-timeout d] [-log-json] [-store-dir dir]
//	pinpoint explain [-checkers list] [-workers N] [-depth N] file.mc...
//
// Each file is one compilation unit. -checkers all selects every registered
// checker. `serve` runs the analysis service (see internal/server);
// `explain` renders each report's value-flow path interleaved with the
// source lines it traverses. Exit status is 1 when any bug is reported (so
// the tool slots into CI), 2 on usage or analysis errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/pta"
	"repro/internal/store"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "explain":
			runExplain(os.Args[2:])
			return
		}
	}
	runBatch()
}

// batchOptions is the batch command line.
type batchOptions struct {
	checkers   string
	workers    int
	depth      int
	noPS       bool
	stats      bool
	witness    bool
	dump       string
	format     string
	trace      string
	statsJSON  string
	pprof      string
	provenance bool
	storeDir   string
}

// batchFlags defines the batch command's flags on fs.
func batchFlags(fs *flag.FlagSet) *batchOptions {
	o := &batchOptions{}
	fs.StringVar(&o.checkers, "checkers", "uaf", "comma-separated checker list ("+strings.Join(checkers.Names(), ", ")+"), or 'all'")
	fs.IntVar(&o.workers, "workers", -1, "worker goroutines for build and detection (0/1 = sequential, negative = all CPUs)")
	fs.IntVar(&o.depth, "depth", 6, "maximum nested call depth")
	fs.BoolVar(&o.noPS, "no-path-sensitivity", false, "skip SMT feasibility checks (report all candidates)")
	fs.BoolVar(&o.stats, "stats", false, "print engine statistics")
	fs.BoolVar(&o.witness, "witness", false, "print the satisfying branch assignment for each report")
	fs.StringVar(&o.dump, "dump", "", "write Graphviz DOT for one function: 'cfg:<func>' or 'seg:<func>' (then exit)")
	fs.StringVar(&o.format, "format", "text", "report format: text or json")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto)")
	fs.StringVar(&o.statsJSON, "stats-json", "", "write a machine-readable statistics dump (timings, SMT latency percentiles, cache hit rates, worker utilization)")
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	fs.BoolVar(&o.provenance, "provenance", false, "capture per-report provenance (value-flow hops, path-condition size, verdict source); shown in -format json and by 'pinpoint explain'")
	fs.StringVar(&o.storeDir, "store-dir", "", "persist build artifacts in this directory across runs (empty = memory only)")
	return o
}

func runBatch() {
	o := batchFlags(flag.CommandLine)
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "pinpoint: no input files")
		flag.Usage()
		os.Exit(2)
	}

	if o.pprof != "" {
		go func() {
			if err := http.ListenAndServe(o.pprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pinpoint: pprof:", err)
			}
		}()
	}

	// The recorder is nil unless some output needs it, keeping the default
	// run on the zero-cost no-op path.
	var rec *obs.Recorder
	if o.trace != "" {
		rec = obs.NewTracing()
	} else if o.statsJSON != "" {
		rec = obs.New()
	}

	specs, err := selectCheckers(o.checkers)
	if err != nil {
		fatal(err)
	}

	storeDir, keepBody := o.storeDir, ""
	if o.dump != "" {
		// A graph keeps no CFG: a dump is made of a fresh build that keeps
		// the named function's body.
		storeDir = ""
		keepBody, _ = strings.CutPrefix(o.dump, "cfg:")
	}
	st, closeStore := openStore(storeDir, rec)
	defer closeStore()
	a, err := core.BuildFromSource(readUnits(flag.Args()), core.BuildOptions{Workers: o.workers, Obs: rec, Store: st, KeepBody: keepBody})
	if err != nil {
		fatal(err)
	}
	if o.stats {
		fmt.Fprintf(os.Stderr, "pinpoint: %d functions, %d IR instructions, %d SEG nodes, %d SEG edges; build %s\n",
			a.Sizes.Functions, a.Sizes.Lines, a.Sizes.SEGNodes, a.Sizes.SEGEdges, a.Timings.Total())
		fmt.Fprintf(os.Stderr, "pinpoint: pta: %s\n", a.PTAStats)
		if st != nil {
			fmt.Fprintf(os.Stderr, "pinpoint: artifacts: %d hits, %d misses, %d invalidated, %d store-loaded; %d units parsed\n",
				a.Artifacts.Hits, a.Artifacts.Misses, a.Artifacts.Invalidated, a.Artifacts.StoreHits, a.Artifacts.UnitsParsed)
		}
	}
	if o.dump != "" {
		dot, err := dump(a, o.dump)
		if err != nil {
			fatal(err)
		}
		fmt.Print(dot)
		return
	}

	res := a.CheckAll(specs, detect.Options{
		MaxCallDepth:           o.depth,
		DisablePathSensitivity: o.noPS,
		Workers:                o.workers,
		Witness:                o.provenance,
		Obs:                    rec,
	})

	if o.format == "json" {
		jsonReports := make([]detect.JSONReport, 0, len(res.Reports))
		for _, r := range res.Reports {
			jsonReports = append(jsonReports, r.ToJSON())
		}
		// What json.Encoder with a two-space indent writes, without its
		// reflection.
		var out bytes.Buffer
		if err := json.Indent(&out, detect.AppendJSONReports(nil, jsonReports), "", "  "); err != nil {
			fatal(err)
		}
		out.WriteByte('\n')
		if _, err := out.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		for _, r := range res.Reports {
			fmt.Println(r)
			if o.witness && len(r.Witness) > 0 {
				label := "trigger"
				if r.Kind != "" {
					label = "leaks when"
				}
				fmt.Printf("    %s: %s\n", label, strings.Join(r.Witness, ", "))
			}
		}
	}
	if o.stats {
		for _, cs := range res.Checkers {
			fmt.Fprintf(os.Stderr, "pinpoint: %s\n", cs)
		}
		fmt.Fprintf(os.Stderr, "pinpoint: detection: %d workers, %s wall; %d tasks walked %d expansions and issued %d SMT queries\n",
			res.Workers, res.Wall, res.TasksRun+res.TasksReplayed, res.ExpansionsWalked, res.QueriesIssued)
	}
	if o.trace != "" {
		if err := writeFileWith(o.trace, rec.WriteTrace); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}
	if o.statsJSON != "" {
		d := buildStatsDump(a, res, rec)
		if err := writeFileWith(o.statsJSON, d.write); err != nil {
			fatal(fmt.Errorf("stats-json: %w", err))
		}
	}
	if len(res.Reports) > 0 {
		_ = closeStore() // os.Exit skips the deferred close
		os.Exit(1)
	}
}

// dump renders the -dump request spec ("cfg:<func>" or "seg:<func>") as
// Graphviz DOT.
func dump(a *core.Analysis, spec string) (string, error) {
	kind, fn, ok := strings.Cut(spec, ":")
	f := a.Module.Lookup(fn)
	if !ok || f == nil {
		return "", fmt.Errorf("bad -dump %q: want cfg:<func> or seg:<func> with a defined function", spec)
	}
	switch kind {
	case "cfg":
		if f.Body == nil {
			return "", fmt.Errorf("-dump %s: the build kept no body of %s", spec, fn)
		}
		return ir.DotCFG(f.Body), nil
	case "seg":
		return a.SEGs.At(f.ID).Dot(), nil
	}
	return "", fmt.Errorf("bad -dump kind %q", kind)
}

// openStore opens the -store-dir artifact store and returns it with its
// close function. An empty dir means memory only: the nil Store every
// layer treats as "no store", and a close that does nothing.
func openStore(dir string, rec *obs.Recorder) (store.Store, func() error) {
	if dir == "" {
		return nil, func() error { return nil }
	}
	st, err := store.Open(dir, store.DiskOptions{Obs: rec})
	if err != nil {
		fatal(err)
	}
	return st, st.Close
}

// statsDump is the -stats-json document: everything -stats prints, plus
// the latency percentiles, cache hit rates, and per-worker utilization
// that only the metrics registry can report.
type statsDump struct {
	Build struct {
		Functions   int   `json:"functions"`
		IRInstrs    int   `json:"ir_instrs"`
		SEGNodes    int   `json:"seg_nodes"`
		SEGEdges    int   `json:"seg_edges"`
		CondNodes   int   `json:"cond_nodes"`
		FuncsParsed int   `json:"funcs_parsed"`
		ParseNs     int64 `json:"parse_ns"`
		PlanNs      int64 `json:"plan_ns"`
		LowerNs     int64 `json:"lower_ns"`
		SSANs       int64 `json:"ssa_ns"`
		ModRefNs    int64 `json:"modref_ns"`
		TransfNs    int64 `json:"transform_ns"`
		PTANs       int64 `json:"pta_ns"`
		SEGNs       int64 `json:"seg_ns"`
		CommitNs    int64 `json:"commit_ns"`
		TotalNs     int64 `json:"total_ns"`
		StoreLoadNs int64 `json:"store_load_ns"`
		StoreSaveNs int64 `json:"store_save_ns"`
	} `json:"build"`
	// Artifacts is the artifact outcome of the build: all misses without a
	// store or on an empty one, store loads on a populated -store-dir.
	// UnitsParsed is how many translation units the build parsed: none on a
	// run over a populated -store-dir with unchanged inputs.
	Artifacts struct {
		Hits        int `json:"hits"`
		Misses      int `json:"misses"`
		Invalidated int `json:"invalidated"`
		UnitsParsed int `json:"unitsParsed"`
	} `json:"artifacts"`
	PTA pta.Stats `json:"pta"`
	// Resident is the analysis's structural ledger at the end of the run:
	// the bytes its per-function tables occupy, by table.
	Resident core.Resident `json:"resident"`
	Checkers []checkerDump `json:"checkers"`
	Detect   struct {
		Workers        int   `json:"workers"`
		WallNs         int64 `json:"wall_ns"`
		Reports        int   `json:"reports"`
		Tasks          int   `json:"tasks"`
		TasksReplayed  int   `json:"tasks_replayed"`
		ReplayChecks   int   `json:"replay_checks"`
		SummaryMisses  int   `json:"summary_cache_misses"`
		SummaryCapHits int   `json:"summary_cap_hits"`
		// ExpansionsWalked and QueriesIssued count once what the checkers of
		// a group each count as their own (see detect.Results).
		ExpansionsWalked int `json:"expansions_walked"`
		QueriesIssued    int `json:"queries_issued"`
	} `json:"detect"`
	// SMT aggregates the feasibility queries across checkers. The latency
	// percentiles cover only queries the DPLL(T) solver actually answered;
	// prefilter refutations never reach it.
	SMT struct {
		Queries         int              `json:"queries"`
		Solved          int              `json:"solved"`
		PrefilterUnsat  int              `json:"prefilter_unsat"`
		EliminationRate float64          `json:"elimination_rate"`
		QueryNs         obs.HistSnapshot `json:"query_ns"`
	} `json:"smt"`
	Workers []workerDump `json:"workers,omitempty"`
	Metrics obs.Snapshot `json:"metrics"`
}

type checkerDump struct {
	Checker string       `json:"checker"`
	Stats   detect.Stats `json:"stats"`
}

type workerDump struct {
	Worker      int     `json:"worker"`
	Tasks       int     `json:"tasks"`
	BusyNs      int64   `json:"busy_ns"`
	Utilization float64 `json:"utilization"`
}

func buildStatsDump(a *core.Analysis, res detect.Results, rec *obs.Recorder) *statsDump {
	d := &statsDump{}
	d.Build.Functions = a.Sizes.Functions
	d.Build.IRInstrs = a.Sizes.Lines
	d.Build.SEGNodes = a.Sizes.SEGNodes
	d.Build.SEGEdges = a.Sizes.SEGEdges
	d.Build.CondNodes = a.Sizes.CondNodes
	d.Build.FuncsParsed = a.Artifacts.FuncsParsed
	tm := a.Timings
	d.Build.ParseNs, d.Build.PlanNs = int64(tm.Parse), int64(tm.Plan)
	d.Build.LowerNs, d.Build.SSANs, d.Build.ModRefNs = int64(tm.Lower), int64(tm.SSA), int64(tm.ModRef)
	d.Build.TransfNs, d.Build.PTANs, d.Build.SEGNs, d.Build.CommitNs = int64(tm.Transform), int64(tm.PTA), int64(tm.SEG), int64(tm.Commit)
	d.Build.TotalNs = int64(tm.Total())
	d.Build.StoreLoadNs, d.Build.StoreSaveNs = int64(tm.StoreLoad), int64(tm.StoreSave)
	d.Resident = a.Resident()
	d.Artifacts.Hits = a.Artifacts.Hits
	d.Artifacts.Misses = a.Artifacts.Misses
	d.Artifacts.Invalidated = a.Artifacts.Invalidated
	d.Artifacts.UnitsParsed = a.Artifacts.UnitsParsed
	d.PTA = a.PTAStats
	for _, cs := range res.Checkers {
		d.Checkers = append(d.Checkers, checkerDump{Checker: cs.Checker, Stats: cs.Stats})
	}
	d.Detect.Workers = res.Workers
	d.Detect.WallNs = int64(res.Wall)
	d.Detect.Reports = len(res.Reports)
	d.Detect.Tasks = res.TasksRun + res.TasksReplayed
	d.Detect.TasksReplayed = res.TasksReplayed
	d.Detect.ReplayChecks = res.ReplayChecks
	d.Detect.ExpansionsWalked = res.ExpansionsWalked
	d.Detect.QueriesIssued = res.QueriesIssued
	d.Detect.SummaryMisses = res.SummaryMisses
	d.Detect.SummaryCapHits = res.SummaryCapHits
	for _, cs := range res.Checkers {
		d.SMT.Queries += cs.Stats.SMTQueries
		d.SMT.Solved += cs.Stats.SMTSolved
		d.SMT.PrefilterUnsat += cs.Stats.SMTPrefilterUnsat
	}
	if d.SMT.Queries > 0 {
		d.SMT.EliminationRate = float64(d.SMT.PrefilterUnsat) / float64(d.SMT.Queries)
	}
	snap := rec.Snapshot()
	d.SMT.QueryNs = snap.Histograms["smt.query_ns"]
	for _, ws := range res.WorkerStats {
		wd := workerDump{Worker: ws.Worker, Tasks: ws.Tasks, BusyNs: int64(ws.Busy)}
		if res.Wall > 0 {
			wd.Utilization = float64(ws.Busy) / float64(res.Wall)
		}
		d.Workers = append(d.Workers, wd)
	}
	d.Metrics = snap
	return d
}

func (d *statsDump) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// writeFileWith creates path and streams fn's output into it, reporting
// the first error from either.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := fn(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// selectCheckers resolves a comma-separated -checkers value ("all", names,
// or aliases) into fresh specs, deduplicating aliases of the same checker.
func selectCheckers(sel string) ([]*checkers.Spec, error) {
	if strings.TrimSpace(sel) == "all" {
		return checkers.All(), nil
	}
	var specs []*checkers.Spec
	picked := make(map[string]bool)
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		sp, ok := checkers.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown checker %q (known: %s)", name, strings.Join(checkers.Names(), ", "))
		}
		if picked[sp.Name] { // "uaf,use-after-free" names one checker, not two
			continue
		}
		picked[sp.Name] = true
		specs = append(specs, sp)
	}
	return specs, nil
}

// readUnits loads each path as one named translation unit.
func readUnits(paths []string) []minic.NamedSource {
	var units []minic.NamedSource
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		units = append(units, minic.NamedSource{Name: path, Src: string(data)})
	}
	return units
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pinpoint:", err)
	os.Exit(2)
}
