package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// table is a small helper around tabwriter.
type table struct {
	b strings.Builder
	w *tabwriter.Writer
}

func newTable(title string) *table {
	t := &table{}
	t.b.WriteString(title + "\n")
	t.b.WriteString(strings.Repeat("=", len(title)) + "\n")
	t.w = tabwriter.NewWriter(&t.b, 2, 4, 2, ' ', 0)
	return t
}

func (t *table) row(cells ...string) {
	fmt.Fprintln(t.w, strings.Join(cells, "\t"))
}

func (t *table) done(footer string) string {
	t.w.Flush()
	if footer != "" {
		t.b.WriteString(footer + "\n")
	}
	t.b.WriteString("\n")
	return t.b.String()
}

func dur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// mb renders bytes as mebibytes.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func bySize(runs []*subjectRun) []*subjectRun {
	out := slices.Clone(runs)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Lines < out[j].Lines })
	return out
}

// linearFit is a least-squares fit y = A·x + B with its coefficient of
// determination R², the statistic of Figure 10 (the paper reports R² > 0.9
// for both time and memory against program size).
type linearFit struct{ A, B, R2 float64 }

// fitLinear computes the least-squares line through (xs[i], ys[i]); R² is
// NaN when fewer than two points or a vertical line leave it undefined.
func fitLinear(xs, ys []float64) linearFit {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return linearFit{R2: math.NaN()}
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return linearFit{R2: math.NaN()}
	}
	a := (n*sxy - sx*sy) / den
	b := (sy - a*sx) / n

	mean := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := a*xs[i] + b
		ssTot += (ys[i] - mean) * (ys[i] - mean)
		ssRes += (ys[i] - pred) * (ys[i] - pred)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return linearFit{A: a, B: b, R2: r2}
}

// exponent fits y = c·x^k by a linear fit in log space, skipping points
// that are not positive, and returns k.
func exponent(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	return fitLinear(lx, ly).A
}

// scalingFit is one row of Figure 10: a metric of Pinpoint's against
// generated lines.
type scalingFit struct {
	Metric string
	linearFit
	Exponent float64
}

// figure10 fits Pinpoint's time (build + check), allocation volume (build +
// check) and SEG size (nodes + edges) against generated lines.
func figure10(runs []*subjectRun) []scalingFit {
	var xs []float64
	var ys [3][]float64
	for _, r := range runs {
		xs = append(xs, float64(r.Lines))
		ys[0] = append(ys[0], (r.SEGTime+r.UAF.Time).Seconds()*1000)
		ys[1] = append(ys[1], mb(r.SEGAlloc+r.UAF.Alloc))
		ys[2] = append(ys[2], float64(r.SEGNodes+r.SEGEdges))
	}
	var out []scalingFit
	for i, metric := range []string{"time (ms)", "memory (MB)", "SEG nodes+edges"} {
		out = append(out, scalingFit{metric, fitLinear(xs, ys[i]), exponent(xs, ys[i])})
	}
	return out
}

// renderFigure7 prints the SEG-vs-FSVFG build-time comparison (Figure 7):
// per subject ordered by size, both build times, with the baseline's
// timeouts marked exactly as in the paper.
func renderFigure7(ev *evaluation) string {
	t := newTable("Figure 7 — time cost: building SEG vs building FSVFG (subjects ordered by size)")
	t.row("subject", "lines", "SEG build", "FSVFG build", "speedup")
	for _, r := range bySize(ev.Subjects) {
		svfTime := r.SVF.PTATime + r.SVF.BuildTime
		fs, sp := dur(svfTime), ""
		if r.SVF.TimedOut {
			fs, sp = "TIMEOUT", "unbounded"
		} else if r.SEGTime > 0 {
			sp = fmt.Sprintf("%.1fx", float64(svfTime)/float64(r.SEGTime))
		}
		t.row(r.Subject.Name, fmt.Sprint(r.Lines), dur(r.SEGTime), fs, sp)
	}
	return t.done("Paper shape: comparable below the threshold, FSVFG times out above it while SEG stays sub-linear-feeling (paper: up to >400x faster, timeout at >135 paper-KLoC).")
}

// renderFigure8 prints the build memory comparison (Figure 8).
func renderFigure8(ev *evaluation) string {
	t := newTable("Figure 8 — memory cost: building SEG vs building FSVFG")
	t.row("subject", "lines", "SEG alloc MB", "SEG nodes+edges", "FSVFG alloc MB", "FSVFG nodes+edges")
	for _, r := range bySize(ev.Subjects) {
		fsMem := fmt.Sprintf("%.1f", mb(r.SVFAlloc))
		if r.SVF.TimedOut {
			fsMem += " (TIMEOUT)"
		}
		t.row(r.Subject.Name, fmt.Sprint(r.Lines), fmt.Sprintf("%.1f", mb(r.SEGAlloc)),
			fmt.Sprintf("%d+%d", r.SEGNodes, r.SEGEdges), fsMem, fmt.Sprintf("%d+%d", r.SVF.Nodes, r.SVF.Edges))
	}
	return t.done("Paper shape: FSVFG needs 40-60G more at scale; here the FSVFG edge count grows superlinearly while the SEG stays linear.")
}

// renderFigure9 prints the total checker memory comparison (Figure 9).
func renderFigure9(ev *evaluation) string {
	t := newTable("Figure 9 — memory cost: SEG-based vs FSVFG-based checker (build + check)")
	t.row("subject", "lines", "Pinpoint total MB", "SVF total MB")
	for _, r := range bySize(ev.Subjects) {
		svf := fmt.Sprintf("%.1f", mb(r.SVFAlloc))
		if r.SVF.TimedOut {
			svf += " (fail: FSVFG not built)"
		}
		t.row(r.Subject.Name, fmt.Sprint(r.Lines), fmt.Sprintf("%.1f", mb(r.SEGAlloc+r.UAF.Alloc)), svf)
	}
	return t.done("")
}

// renderFigure10 prints the scalability fits (Figure 10).
func renderFigure10(ev *evaluation) string {
	t := newTable("Figure 10 — scalability of the SEG-based checker (linear fits)")
	t.row("metric", "fit", "R^2", "power-law exponent")
	for _, f := range figure10(ev.Subjects) {
		t.row(f.Metric, fmt.Sprintf("%.4g*lines%+.4g", f.A, f.B), fmt.Sprintf("%.4f", f.R2), fmt.Sprintf("%.2f", f.Exponent))
	}
	return t.done("Paper: both fits have R^2 > 0.9 — observed linear scalability. Exponent near 1.0 confirms it independently.")
}

// renderTable1 prints the use-after-free checker comparison (Table 1).
func renderTable1(ev *evaluation) string {
	t := newTable("Table 1 — results of use-after-free checkers (Pinpoint vs SVF baseline)")
	t.row("origin", "subject", "lines", "Pinpoint #FP", "Pinpoint #Rep", "FP rate", "SVF #Rep", "paper Pin #Rep", "paper SVF #Rep")
	totalRep, totalFP, totalSVF := 0, 0, 0
	for _, r := range ev.Subjects {
		fpRate := "0"
		if r.UAF.Reports > 0 {
			fpRate = fmt.Sprintf("%.1f%%", 100*float64(r.UAF.FP)/float64(r.UAF.Reports))
		}
		svf := fmt.Sprint(len(r.SVF.Reports))
		switch {
		case r.SVF.TimedOut:
			svf = "NA (build timeout)"
		case r.SVF.CheckTimedOut:
			svf = fmt.Sprintf(">%d (check timeout)", len(r.SVF.Reports))
		default:
			totalSVF += len(r.SVF.Reports)
		}
		paperSVF := fmt.Sprint(r.Subject.PaperSVFReports)
		if r.Subject.PaperSVFReports < 0 {
			paperSVF = "NA"
		}
		t.row(r.Subject.Origin, r.Subject.Name, fmt.Sprint(r.Lines),
			fmt.Sprint(r.UAF.FP), fmt.Sprint(r.UAF.Reports), fpRate, svf,
			fmt.Sprint(r.Subject.PaperPinpointReports), paperSVF)
		totalRep += r.UAF.Reports
		totalFP += r.UAF.FP
	}
	rate := 0.0
	if totalRep > 0 {
		rate = 100 * float64(totalFP) / float64(totalRep)
	}
	return t.done(fmt.Sprintf("Totals: Pinpoint %d reports, %d FP (%.1f%%); SVF %d reports on finished subjects.\nPaper: 14 reports, 2 FP (14.3%%); SVF ~10,000 reports, no TPs found in sampling.",
		totalRep, totalFP, rate, totalSVF))
}

// renderTable2 prints the taint checker summary (Table 2).
func renderTable2(ev *evaluation) string {
	t := newTable("Table 2 — SEG-based taint analysis on mysql")
	t.row("checker", "memory MB", "time", "#FP/#Reports", "FP rate", "paper")
	paper := map[string]string{
		"path-traversal":    "11/56 (43.1G, 1.4hr)",
		"data-transmission": "24/92 (52.6G, 1.5hr)",
	}
	for _, tr := range ev.Taint {
		rate := 0.0
		if tr.Reports > 0 {
			rate = 100 * float64(tr.FP) / float64(tr.Reports)
		}
		t.row(tr.Name, fmt.Sprintf("%.1f", mb(tr.Alloc)), dur(tr.Time),
			fmt.Sprintf("%d/%d", tr.FP, tr.Reports), fmt.Sprintf("%.1f%%", rate), paper[tr.Name])
	}
	return t.done("Paper overall taint FP rate: 23.6%. Sanitizers are unmodeled by design (§4.1), so the opaque (sanitized) flows are reported and counted as FPs.")
}

// renderTable3 prints the Infer/CSA comparison (Table 3).
func renderTable3(ev *evaluation) string {
	t := newTable("Table 3 — results of Infer-like and CSA-like baselines (use-after-free)")
	t.row("subject", "lines(paper KLoC)", "tool", "time", "#FP/#Rep", "missed true bugs")
	totFP, totRep, totMiss := map[string]int{}, map[string]int{}, map[string]int{}
	for _, s := range ev.Subjects {
		if s.Infer == nil {
			continue
		}
		for _, r := range []*checkRun{s.Infer, s.CSA} {
			missed := s.Subject.TrueBugs - r.TP
			t.row(s.Subject.Name, fmt.Sprint(s.Subject.PaperKLoC), r.Name, dur(r.Time),
				fmt.Sprintf("%d/%d", r.FP, r.Reports), fmt.Sprint(missed))
			totFP[r.Name] += r.FP
			totRep[r.Name] += r.Reports
			totMiss[r.Name] += missed
		}
	}
	return t.done(fmt.Sprintf("Totals: Infer-like %d/%d FP/rep, %d bugs missed; CSA-like %d/%d FP/rep, %d bugs missed.\nPaper: Infer 35/35 all-FP; CSA 24/26 FP (2 TP); both confined to single compilation units.",
		totFP["Infer"], totRep["Infer"], totMiss["Infer"], totFP["CSA"], totRep["CSA"], totMiss["CSA"]))
}

// renderJuliet prints the recall experiment (§5.1.2).
func renderJuliet(ev *evaluation) string {
	r := ev.Juliet
	t := newTable("Juliet recall — use-after-free / double-free corpus")
	t.row("metric", "value", "paper")
	t.row("cases", fmt.Sprint(r.Total), "1421")
	t.row("flaw types", fmt.Sprint(r.FlawTypes), "51")
	t.row("detected", fmt.Sprintf("%d (%.1f%%)", r.Detected, 100*float64(r.Detected)/float64(r.Total)), "1421 (100%)")
	t.row("time", dur(r.Time), "-")
	footer := ""
	if len(r.MissedByFlaw) > 0 {
		footer = "Missed flaw types: "
		for _, k := range sortedKeys(r.MissedByFlaw) {
			footer += fmt.Sprintf("%s(%d) ", k, r.MissedByFlaw[k])
		}
	}
	return t.done(footer)
}

// renderDepthSweep prints the calling-context depth sweep: the paper fixes
// "the number of nested levels of calling context" to six (§5.1); recall
// saturates once the deepest injected call chains fit, while search cost
// grows with the budget.
func renderDepthSweep(ev *evaluation) string {
	t := newTable("Calling-context depth sweep (mysql subject; the paper fixes depth = 6)")
	t.row("depth", "reports", "TP", "FP", "time", "truncated searches")
	for _, r := range ev.Depths {
		t.row(r.Name, fmt.Sprint(r.Reports), fmt.Sprint(r.TP), fmt.Sprint(r.FP), dur(r.Time), fmt.Sprint(r.Stats.TruncatedSearches))
	}
	return t.done("Recall saturates once the deepest injected call chain fits inside the budget; deeper budgets only add search cost.")
}

// renderAblations prints the ablation table, each row's notes in key order.
func renderAblations(ev *evaluation) string {
	t := newTable("Ablations — design choices isolated on the mysql subject")
	t.row("ablation", "full rep(TP/FP)", "ablated rep(TP/FP)", "full time", "ablated time", "notes")
	counts := func(r *checkRun) string { return fmt.Sprintf("%d(%d/%d)", r.Reports, r.TP, r.FP) }
	for _, r := range ev.Ablations {
		notes := ""
		for _, k := range sortedKeys(r.Notes) {
			notes += k + "=" + strconv.FormatInt(r.Notes[k], 10) + " "
		}
		t.row(r.Name, counts(r.Full), counts(r.Ablated), dur(r.Full.Time), dur(r.Ablated.Time), notes)
	}
	return t.done("linear-solver-off: same verdicts, more downstream work; connectors-off: inter-procedural bugs lost; path-sensitivity-off: infeasible traps reported.")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
