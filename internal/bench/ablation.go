package bench

import (
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/pta"
	"repro/internal/workload"
)

// AblationResult compares the full system against one disabled design
// choice on a single subject (DESIGN.md's ablation index).
type AblationResult struct {
	Name    string
	Subject string

	FullTime    time.Duration
	FullReports int
	FullTP      int
	FullFP      int

	AblatedTime    time.Duration
	AblatedReports int
	AblatedTP      int
	AblatedFP      int

	// Notes carries ablation-specific counters.
	Notes map[string]int64
}

// RunAblations measures the three design-choice ablations on a mid-size
// subject (mysql by default).
func RunAblations(cfg Config) ([]*AblationResult, error) {
	cfg = cfg.withDefaults()
	subj, _ := workload.SubjectByName("mysql")
	gen := workload.Generate(subj, workload.GenOptions{Scale: cfg.Scale})

	classify := func(reports []detect.Report) (tp, fp int) {
		for _, r := range reports {
			if gen.Truth.IsTrueUAF(r.SourcePos.File, r.SourcePos.Line) {
				tp++
			} else {
				fp++
			}
		}
		return
	}

	// Reference run.
	t0 := time.Now()
	full, err := core.BuildFromSource(gen.Units, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	fullReports, _ := full.Check(checkers.UseAfterFree(), detect.Options{})
	fullTime := time.Since(t0)
	fullTP, fullFP := classify(fullReports)

	mk := func(name string) *AblationResult {
		return &AblationResult{
			Name: name, Subject: subj.Name,
			FullTime: fullTime, FullReports: len(fullReports), FullTP: fullTP, FullFP: fullFP,
			Notes: map[string]int64{},
		}
	}
	var out []*AblationResult

	// Ablation 1: no linear-time contradiction solver (§3.1.1), in both
	// the local points-to analysis and the global search. Candidates the
	// filter would have discarded for free now burn SMT queries.
	{
		r := mk("linear-solver-off")
		t0 := time.Now()
		a, err := core.BuildFromSource(gen.Units, core.BuildOptions{
			PTA: pta.Options{DisableLinearSolver: true},
		})
		if err != nil {
			return nil, err
		}
		reports, st := a.Check(checkers.UseAfterFree(), detect.Options{DisableLinearFilter: true})
		r.AblatedTime = time.Since(t0)
		r.AblatedReports = len(reports)
		r.AblatedTP, r.AblatedFP = classify(reports)
		r.Notes["ablated_smt_queries"] = int64(st.SMTQueries)
		r.Notes["ablated_smt_unsat"] = int64(st.SMTUnsat)
		// Reference: how many infeasible candidates the cheap filter
		// discharged in the full configuration.
		_, fullSt := full.Check(checkers.UseAfterFree(), detect.Options{})
		r.Notes["full_linear_filtered"] = int64(fullSt.LinearFiltered)
		r.Notes["full_smt_queries"] = int64(fullSt.SMTQueries)
		out = append(out, r)
	}

	// Ablation 2: no connector transformation (§3.1.2). Side effects
	// stay invisible across calls, so inter-procedural memory flows (and
	// the bugs that ride them) disappear.
	{
		r := mk("connectors-off")
		t0 := time.Now()
		a, err := core.BuildFromSource(gen.Units, core.BuildOptions{DisableConnectors: true})
		if err != nil {
			return nil, err
		}
		reports, _ := a.Check(checkers.UseAfterFree(), detect.Options{})
		r.AblatedTime = time.Since(t0)
		r.AblatedReports = len(reports)
		r.AblatedTP, r.AblatedFP = classify(reports)
		out = append(out, r)
	}

	// Ablation 3: no path sensitivity at detection (SMT off) — the
	// precision the holistic design buys.
	{
		r := mk("path-sensitivity-off")
		a, err := core.BuildFromSource(gen.Units, core.BuildOptions{}) // full's caches are warm
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		reports, st := a.Check(checkers.UseAfterFree(), detect.Options{DisablePathSensitivity: true})
		r.AblatedTime = time.Since(t0)
		r.AblatedReports = len(reports)
		r.AblatedTP, r.AblatedFP = classify(reports)
		r.Notes["candidates"] = int64(st.Candidates)
		out = append(out, r)
	}
	return out, nil
}

// RenderAblations prints the ablation table.
func RenderAblations(rows []*AblationResult) string {
	t := newTable("Ablations — design choices isolated on the mysql subject")
	t.row("ablation", "full rep(TP/FP)", "ablated rep(TP/FP)", "full time", "ablated time", "notes")
	for _, r := range rows {
		notes := ""
		for k, v := range r.Notes {
			notes += k + "=" + itoa64(v) + " "
		}
		t.row(r.Name,
			itoa(r.FullReports)+"("+itoa(r.FullTP)+"/"+itoa(r.FullFP)+")",
			itoa(r.AblatedReports)+"("+itoa(r.AblatedTP)+"/"+itoa(r.AblatedFP)+")",
			dur(r.FullTime), dur(r.AblatedTime), notes)
	}
	return t.done("linear-solver-off: same verdicts, more downstream work; connectors-off: inter-procedural bugs lost; path-sensitivity-off: infeasible traps reported.")
}

func itoa(v int) string { return itoa64(int64(v)) }

func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
