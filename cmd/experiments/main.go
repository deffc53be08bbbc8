// Command experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthesized workloads. One pass over the subjects
// feeds every table; TestPaperShape holds the shapes that pass yields. See
// EXPERIMENTS.md for a captured run and the paper-vs-measured discussion.
//
// Usage:
//
//	experiments [-run all|fig7|fig8|fig9|fig10|table1|table2|table3|juliet|depthsweep|ablations] [-scale N]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/pta"
	"repro/internal/workload"
)

// experiments lists what -run selects and the table each prints, in the
// order "all" prints them.
var experiments = []struct {
	name   string
	render func(*evaluation) string
}{
	{"fig7", renderFigure7}, {"fig8", renderFigure8}, {"fig9", renderFigure9}, {"fig10", renderFigure10},
	{"table1", renderTable1}, {"table2", renderTable2}, {"table3", renderTable3}, {"juliet", renderJuliet},
	{"depthsweep", renderDepthSweep}, {"ablations", renderAblations},
}

func main() {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	runSel := flag.String("run", "all", "experiment to run: "+strings.Join(names, ", "))
	scale := flag.Int("scale", 15, "generated lines per paper-KLoC")
	flag.Parse()
	if !slices.Contains(names, *runSel) {
		fatal(fmt.Errorf("unknown experiment %q", *runSel))
	}
	want := func(name string) bool { return *runSel == "all" || *runSel == name }

	fmt.Printf("Pinpoint reproduction — experiment harness (scale=%d lines/paper-KLoC)\n\n", *scale)
	ev, err := evaluate(*scale, want)
	if err != nil {
		fatal(err)
	}
	for _, e := range experiments {
		if want(e.name) {
			fmt.Print(e.render(ev))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// Layered-baseline budgets at scale 15, scaled linearly with the scale.
// They put the baseline's timeout between gcc (135 paper-KLoC: Andersen
// work 6.6k, 6.5k FSVFG edges — finishes) and git (185 paper-KLoC: 11k
// work, 10k edges — times out), Table 1's NA boundary and Figure 7's
// ">135 KLoC times out"; TestPaperShape fails when they stop doing so. At
// smaller scales git finishes too: the boundary is calibrated at 15 only.
const (
	svfPTAWork   = 9_000
	svfEdges     = 8_000
	svfCheckWork = 5_000_000
	svfReports   = 25_000
)

// evaluation is everything the tables print: one pass over the subjects,
// the taint run on mysql and the Juliet suite.
type evaluation struct {
	Subjects  []*subjectRun // in workload.Subjects order
	Taint     []*checkRun   // Table 2, one row per taint checker
	Juliet    *julietRun
	Depths    []*checkRun // the depth sweep on mysql, named by depth
	Ablations []*ablation // on mysql
}

// subjectRun is one subject measured under Pinpoint and the baselines.
type subjectRun struct {
	Subject            workload.Subject
	Lines              int
	SEGTime            time.Duration
	SEGAlloc           uint64 // bytes allocated by the build
	SEGNodes, SEGEdges int
	UAF                *checkRun
	SVF                *baseline.SVFResult
	SVFAlloc           uint64
	Infer, CSA         *checkRun // Table 3; open-source subjects only
}

// checkRun is one checker run classified against the ground truth.
type checkRun struct {
	Name            string
	Time            time.Duration
	Alloc           uint64
	Reports, TP, FP int
	Stats           detect.Stats
}

// julietRun is the recall experiment's outcome (§5.1.2).
type julietRun struct {
	Total, Detected, FlawTypes int
	MissedByFlaw               map[string]int
	Time                       time.Duration
}

// ablation compares the full system against one disabled design choice.
type ablation struct {
	Name          string
	Full, Ablated *checkRun
	Notes         map[string]int64 // ablation-specific counters
}

// allocated reads the process's cumulative allocation volume.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// classify runs one check and counts its reports true when isTrue says so.
func classify(name string, isTrue func(detect.Report) bool, check func() ([]detect.Report, detect.Stats)) *checkRun {
	a0, t0 := allocated(), time.Now()
	reports, st := check()
	r := &checkRun{Name: name, Time: time.Since(t0), Alloc: allocated() - a0, Reports: len(reports), Stats: st}
	for _, rep := range reports {
		if isTrue(rep) {
			r.TP++
		} else {
			r.FP++
		}
	}
	return r
}

// uaf checks use-after-free on a with opts.
func uaf(a *core.Analysis, opts detect.Options) func() ([]detect.Report, detect.Stats) {
	return func() ([]detect.Report, detect.Stats) { return a.Check(checkers.UseAfterFree(), opts) }
}

func trueUAF(gen *workload.Generated) func(detect.Report) bool {
	return func(r detect.Report) bool { return gen.Truth.IsTrueUAF(r.SourcePos.File, r.SourcePos.Line) }
}

// evaluate runs what the wanted experiments print at the given scale.
func evaluate(scale int, want func(string) bool) (*evaluation, error) {
	ev := &evaluation{}
	if slices.ContainsFunc([]string{"fig7", "fig8", "fig9", "fig10", "table1", "table3", "depthsweep", "ablations"}, want) {
		fmt.Fprintln(os.Stderr, "running 30 subjects (Pinpoint, SVF, Infer-like and CSA-like baselines; depth sweep and ablations on mysql)...")
		for _, s := range workload.Subjects {
			run, err := runSubject(ev, workload.Generate(s, workload.GenOptions{Scale: scale}), scale)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
			ev.Subjects = append(ev.Subjects, run)
		}
	}
	if want("table2") {
		fmt.Fprintln(os.Stderr, "running taint checkers on mysql...")
		subj, _ := workload.SubjectByName("mysql")
		gen := workload.Generate(subj, workload.GenOptions{Scale: scale, Taint: true})
		a, err := core.BuildFromSource(gen.Units, core.BuildOptions{})
		if err != nil {
			return nil, err
		}
		for _, spec := range []*checkers.Spec{checkers.PathTraversal(), checkers.DataTransmission()} {
			isTrue := func(r detect.Report) bool {
				t, _ := gen.Truth.MatchTaint(spec.Name, r.SourcePos.File, r.SourcePos.Line)
				return t
			}
			ev.Taint = append(ev.Taint, classify(spec.Name, isTrue, func() ([]detect.Report, detect.Stats) {
				return a.Check(spec, detect.Options{})
			}))
		}
	}
	if want("juliet") {
		fmt.Fprintln(os.Stderr, "running the 1421-case Juliet recall suite...")
		jr, err := runJuliet()
		if err != nil {
			return nil, err
		}
		ev.Juliet = jr
	}
	return ev, nil
}

// runSubject builds one subject once and checks it every way the tables
// ask: a Check with options of its own patches the Analysis's empty run, so
// it reports what it would on a fresh build. Only the ablations that change
// BuildOptions build again.
func runSubject(ev *evaluation, gen *workload.Generated, scale int) (*subjectRun, error) {
	a0 := allocated()
	a, err := core.BuildFromSource(gen.Units, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	run := &subjectRun{
		Subject: gen.Subject, Lines: gen.Lines,
		SEGTime: a.Timings.SEGBuild(), SEGAlloc: allocated() - a0,
		SEGNodes: a.Sizes.SEGNodes, SEGEdges: a.Sizes.SEGEdges,
	}
	isTrue := trueUAF(gen)
	run.UAF = classify("pinpoint", isTrue, uaf(a, detect.Options{}))
	if run.SVF, run.SVFAlloc, err = runSVF(gen, scale); err != nil {
		return nil, err
	}
	if gen.Subject.Origin == "Open Source" {
		spec := checkers.UseAfterFree()
		run.Infer = classify("Infer", isTrue, func() ([]detect.Report, detect.Stats) { return baseline.RunInferLike(a, spec) })
		run.CSA = classify("CSA", isTrue, func() ([]detect.Report, detect.Stats) { return baseline.RunCSALike(a, spec) })
	}
	if gen.Subject.Name == "mysql" {
		for _, d := range []int{1, 2, 3, 4, 6, 8} {
			ev.Depths = append(ev.Depths, classify(fmt.Sprint(d), isTrue, uaf(a, detect.Options{MaxCallDepth: d})))
		}
		if ev.Ablations, err = runAblations(gen, a, *run.UAF); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// runSVF runs the layered baseline (Andersen + FSVFG + reachability) on one
// subject under the budgets of the scale and returns it with its allocation.
func runSVF(gen *workload.Generated, scale int) (*baseline.SVFResult, uint64, error) {
	m, err := baseline.BuildBaselineModule(gen.Units)
	if err != nil {
		return nil, 0, err
	}
	a0 := allocated()
	sv := baseline.RunSVF(m, baseline.SVFOptions{
		MaxEdges:     svfEdges * scale / 15,
		MaxPTAWork:   svfPTAWork * scale / 15,
		MaxCheckWork: int64(svfCheckWork) * int64(scale) / 15,
		MaxReports:   svfReports,
	})
	return sv, allocated() - a0, nil
}

// runAblations measures the three design-choice ablations on gen against
// full, the reference check of a, timed with a's build.
func runAblations(gen *workload.Generated, a *core.Analysis, full checkRun) ([]*ablation, error) {
	isTrue := trueUAF(gen)
	full.Time += a.Timings.Total()
	// rebuilt checks a build of its own, timing build and check together.
	rebuilt := func(name string, bo core.BuildOptions, opts detect.Options) (*ablation, error) {
		b, err := core.BuildFromSource(gen.Units, bo)
		if err != nil {
			return nil, err
		}
		r := classify(name, isTrue, uaf(b, opts))
		r.Time += b.Timings.Total()
		return &ablation{Name: name, Full: &full, Ablated: r}, nil
	}

	// No linear-time contradiction solver (§3.1.1), in both the local
	// points-to analysis and the global search: candidates the filter
	// would have discarded for free now burn SMT queries.
	linear, err := rebuilt("linear-solver-off", core.BuildOptions{PTA: pta.Options{DisableLinearSolver: true}}, detect.Options{DisableLinearFilter: true})
	if err != nil {
		return nil, err
	}
	linear.Notes = map[string]int64{
		"ablated_smt_queries":  int64(linear.Ablated.Stats.SMTQueries),
		"ablated_smt_unsat":    int64(linear.Ablated.Stats.SMTUnsat),
		"full_linear_filtered": int64(full.Stats.LinearFiltered),
		"full_smt_queries":     int64(full.Stats.SMTQueries),
	}

	// No connector transformation (§3.1.2): side effects stay invisible
	// across calls, so inter-procedural memory flows and the bugs that
	// ride them disappear.
	connectors, err := rebuilt("connectors-off", core.BuildOptions{DisableConnectors: true}, detect.Options{})
	if err != nil {
		return nil, err
	}

	// No path sensitivity at detection (SMT off): the precision the
	// holistic design buys.
	paths := &ablation{Name: "path-sensitivity-off", Full: &full,
		Ablated: classify("path-sensitivity-off", isTrue, uaf(a, detect.Options{DisablePathSensitivity: true}))}
	paths.Notes = map[string]int64{"candidates": int64(paths.Ablated.Stats.Candidates)}
	return []*ablation{linear, connectors, paths}, nil
}

// runJuliet builds and checks each of the 1421 cases from nothing.
func runJuliet() (*julietRun, error) {
	cases := workload.JulietSuite()
	res := &julietRun{Total: len(cases), FlawTypes: len(workload.FlawTypes(cases)), MissedByFlaw: map[string]int{}}
	t0 := time.Now()
	for _, c := range cases {
		a, err := core.BuildFromSource(c.Units, core.BuildOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		if reports, _ := a.Check(checkers.UseAfterFree(), detect.Options{}); len(reports) > 0 {
			res.Detected++
		} else {
			res.MissedByFlaw[c.FlawType]++
		}
	}
	res.Time = time.Since(t0)
	return res, nil
}
