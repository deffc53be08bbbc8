package bench

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/workload"
)

// Config tunes all experiments.
type Config struct {
	// Scale is the generated-lines-per-paper-KLoC factor (default 15).
	Scale int
	// SVFPTAWorkBudget / SVFEdgeBudget are the layered baseline's
	// timeout analogues (defaults reproduce the paper's ">135 KLoC times
	// out" boundary at the default scale; TestBaselineBudgetBoundary).
	SVFPTAWorkBudget int
	SVFEdgeBudget    int
	// SVFCheckWorkBudget bounds the baseline's reachability phase.
	SVFCheckWorkBudget int64
	// SVFMaxReports caps the baseline's warning flood.
	SVFMaxReports int
	// Subjects restricts the subject list (nil = all 30).
	Subjects []workload.Subject
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 15
	}
	if c.SVFPTAWorkBudget == 0 {
		c.SVFPTAWorkBudget = defaultSVFPTAWork * c.Scale / 15
	}
	if c.SVFEdgeBudget == 0 {
		c.SVFEdgeBudget = defaultSVFEdges * c.Scale / 15
	}
	if c.SVFCheckWorkBudget == 0 {
		c.SVFCheckWorkBudget = int64(defaultSVFCheckWork) * int64(c.Scale) / 15
	}
	if c.SVFMaxReports == 0 {
		c.SVFMaxReports = 25000
	}
	if c.Subjects == nil {
		c.Subjects = workload.Subjects
	}
	return c
}

// Budget defaults, calibrated at Scale=15 so the layered baseline's
// timeout threshold falls between gcc (135 paper-KLoC: Andersen work 6.6k,
// 6.5k FSVFG edges — finishes) and git (185 paper-KLoC: 11k work, 10k
// edges — times out), reproducing Table 1's NA boundary and Figure 7's
// ">135 KLoC times out" shape; TestBaselineBudgetBoundary fails when they
// stop doing so.
const (
	defaultSVFPTAWork   = 9_000
	defaultSVFEdges     = 8_000
	defaultSVFCheckWork = 5_000_000
)

// SubjectRun is the measured outcome of one subject under both tools.
type SubjectRun struct {
	Subject workload.Subject
	Lines   int

	// Pinpoint SEG construction (full pipeline after parsing).
	SEGTime  time.Duration
	SEGMem   MemUsage
	SEGNodes int
	SEGEdges int

	// Pinpoint checking (use-after-free).
	CheckTime   time.Duration
	CheckMem    MemUsage
	Reports     int
	TP          int
	FP          int // opaque traps + anything unexpected
	Unexpected  int // reports matching no ground-truth marker
	DetectStats detect.Stats

	// Layered baseline (Andersen + FSVFG + reachability).
	SVFBuildTime     time.Duration
	SVFBuildMem      MemUsage
	SVFNodes         int
	SVFEdges         int
	SVFTimedOut      bool
	SVFCheckTimedOut bool
	SVFCheckTime     time.Duration
	SVFReports       int
	SVFTP            int
}

// RunSubject generates one subject and measures both tools on it.
func RunSubject(s workload.Subject, cfg Config) (*SubjectRun, error) {
	cfg = cfg.withDefaults()
	gen := workload.Generate(s, workload.GenOptions{Scale: cfg.Scale})
	run := &SubjectRun{Subject: s, Lines: gen.Lines}

	// Pinpoint: SEG construction.
	var a *core.Analysis
	res, mem, dur := MeasureMem(func() any {
		an, err := core.BuildFromSource(gen.Units, core.BuildOptions{})
		if err != nil {
			return err
		}
		return an
	})
	if err, ok := res.(error); ok {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	a = res.(*core.Analysis)
	run.SEGTime, run.SEGMem = dur, mem
	run.SEGNodes, run.SEGEdges = a.Sizes.SEGNodes, a.Sizes.SEGEdges

	// Pinpoint: checking.
	var reports []detect.Report
	res, mem, dur = MeasureMem(func() any {
		r, st := a.Check(checkers.UseAfterFree(), detect.Options{})
		run.DetectStats = st
		return r
	})
	reports = res.([]detect.Report)
	run.CheckTime, run.CheckMem = dur, mem
	run.Reports = len(reports)
	for _, r := range reports {
		switch {
		case gen.Truth.IsTrueUAF(r.SourcePos.File, r.SourcePos.Line):
			run.TP++
		case gen.Truth.IsOpaqueUAF(r.SourcePos.File, r.SourcePos.Line):
			run.FP++
		default:
			run.FP++
			run.Unexpected++
		}
	}

	// Layered baseline.
	m, err := baseline.BuildBaselineModule(gen.Units)
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", s.Name, err)
	}
	var sv *baseline.SVFResult
	res, mem, _ = MeasureMem(func() any {
		return baseline.RunSVF(m, baseline.SVFOptions{
			MaxEdges:     cfg.SVFEdgeBudget,
			MaxPTAWork:   cfg.SVFPTAWorkBudget,
			MaxCheckWork: cfg.SVFCheckWorkBudget,
			MaxReports:   cfg.SVFMaxReports,
		})
	})
	sv = res.(*baseline.SVFResult)
	run.SVFBuildTime = sv.PTATime + sv.BuildTime
	run.SVFBuildMem = mem
	run.SVFNodes, run.SVFEdges = sv.Nodes, sv.Edges
	run.SVFTimedOut = sv.TimedOut
	run.SVFCheckTimedOut = sv.CheckTimedOut
	run.SVFCheckTime = sv.CheckTime
	run.SVFReports = len(sv.Reports)
	for _, r := range sv.Reports {
		if gen.Truth.IsTrueUAF(r.Source.Position().File, r.Source.Position().Line) {
			run.SVFTP++
		}
	}
	return run, nil
}

// RunAllSubjects measures every configured subject once; results feed
// Figures 7–10 and Table 1.
func RunAllSubjects(cfg Config) ([]*SubjectRun, error) {
	cfg = cfg.withDefaults()
	var out []*SubjectRun
	for _, s := range cfg.Subjects {
		run, err := RunSubject(s, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}

// TaintRun is the Table 2 measurement: one taint checker on the mysql
// subject.
type TaintRun struct {
	Checker string
	Time    time.Duration
	Mem     MemUsage
	Reports int
	TP      int
	FP      int
}

// RunTaint measures the two taint checkers on mysql (Table 2).
func RunTaint(cfg Config) ([]*TaintRun, error) {
	cfg = cfg.withDefaults()
	subj, _ := workload.SubjectByName("mysql")
	gen := workload.Generate(subj, workload.GenOptions{Scale: cfg.Scale, Taint: true})
	var out []*TaintRun
	for _, spec := range []*checkers.Spec{checkers.PathTraversal(), checkers.DataTransmission()} {
		// A build per checker, so that each is measured on cold caches.
		a, err := core.BuildFromSource(gen.Units, core.BuildOptions{})
		if err != nil {
			return nil, err
		}
		tr := &TaintRun{Checker: spec.Name}
		res, mem, dur := MeasureMem(func() any {
			r, _ := a.Check(spec, detect.Options{})
			return r
		})
		reports := res.([]detect.Report)
		tr.Time, tr.Mem = dur, mem
		tr.Reports = len(reports)
		for _, r := range reports {
			isTrue, _ := gen.Truth.MatchTaint(spec.Name, r.SourcePos.File, r.SourcePos.Line)
			if isTrue {
				tr.TP++
			} else {
				tr.FP++
			}
		}
		out = append(out, tr)
	}
	return out, nil
}

// BaselineRun is one Table 3 row: an Infer-like or CSA-like result on one
// open-source subject.
type BaselineRun struct {
	Subject workload.Subject
	Tool    string
	Time    time.Duration
	Reports int
	TP      int
	FP      int
}

// RunUnitConfinedBaselines measures the Infer-like and CSA-like tools on
// the open-source subjects (Table 3).
func RunUnitConfinedBaselines(cfg Config) ([]*BaselineRun, error) {
	cfg = cfg.withDefaults()
	var out []*BaselineRun
	for _, s := range workload.OpenSourceSubjects() {
		gen := workload.Generate(s, workload.GenOptions{Scale: cfg.Scale})
		for _, tool := range []string{"Infer", "CSA"} {
			// A build per tool, so that each is measured on cold caches.
			a, err := core.BuildFromSource(gen.Units, core.BuildOptions{})
			if err != nil {
				return nil, err
			}
			br := &BaselineRun{Subject: s, Tool: tool}
			t0 := time.Now()
			var reports []detect.Report
			if tool == "Infer" {
				reports, _ = baseline.RunInferLike(a, checkers.UseAfterFree())
			} else {
				reports, _ = baseline.RunCSALike(a, checkers.UseAfterFree())
			}
			br.Time = time.Since(t0)
			br.Reports = len(reports)
			for _, r := range reports {
				if gen.Truth.IsTrueUAF(r.SourcePos.File, r.SourcePos.Line) {
					br.TP++
				} else {
					br.FP++
				}
			}
			out = append(out, br)
		}
	}
	return out, nil
}

// JulietResult is the recall experiment outcome (§5.1.2).
type JulietResult struct {
	Total    int
	Detected int
	// MissedByFlaw lists flaw types with missed cases.
	MissedByFlaw map[string]int
	FlawTypes    int
	Time         time.Duration
}

// RunJuliet runs the UAF checker over the 1421-case suite.
func RunJuliet() (*JulietResult, error) {
	cases := workload.JulietSuite()
	res := &JulietResult{
		Total:        len(cases),
		MissedByFlaw: map[string]int{},
		FlawTypes:    len(workload.FlawTypes(cases)),
	}
	t0 := time.Now()
	for _, c := range cases {
		a, err := core.BuildFromSource(c.Units, core.BuildOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		reports, _ := a.Check(checkers.UseAfterFree(), detect.Options{})
		if len(reports) > 0 {
			res.Detected++
		} else {
			res.MissedByFlaw[c.FlawType]++
		}
	}
	res.Time = time.Since(t0)
	return res, nil
}
