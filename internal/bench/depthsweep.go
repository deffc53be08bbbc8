package bench

import (
	"fmt"
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/workload"
)

// DepthRow is one row of the calling-context depth sweep: the paper fixes
// "the number of nested levels of calling context" to six (§5.1); the sweep
// shows what that knob buys — recall saturates once the deepest injected
// call chains fit, while search cost grows with the budget.
type DepthRow struct {
	Depth     int
	Reports   int
	TP        int
	FP        int
	Time      time.Duration
	Truncated int
}

// RunDepthSweep checks the mysql subject at increasing call-depth budgets.
func RunDepthSweep(cfg Config, depths []int) ([]*DepthRow, error) {
	cfg = cfg.withDefaults()
	if len(depths) == 0 {
		depths = []int{1, 2, 3, 4, 6, 8}
	}
	subj, _ := workload.SubjectByName("mysql")
	gen := workload.Generate(subj, workload.GenOptions{Scale: cfg.Scale})
	var out []*DepthRow
	for _, d := range depths {
		// A build per depth: on one, each depth would find the flow
		// summaries the depths before it enumerated.
		a, err := core.BuildFromSource(gen.Units, core.BuildOptions{})
		if err != nil {
			return nil, err
		}
		row := &DepthRow{Depth: d}
		t0 := time.Now()
		reports, st := a.Check(checkers.UseAfterFree(), detect.Options{MaxCallDepth: d})
		row.Time = time.Since(t0)
		row.Reports = len(reports)
		row.Truncated = st.TruncatedSearches
		for _, r := range reports {
			if gen.Truth.IsTrueUAF(r.SourcePos.File, r.SourcePos.Line) {
				row.TP++
			} else {
				row.FP++
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderDepthSweep prints the sweep table.
func RenderDepthSweep(rows []*DepthRow) string {
	t := newTable("Calling-context depth sweep (mysql subject; the paper fixes depth = 6)")
	t.row("depth", "reports", "TP", "FP", "time", "truncated searches")
	for _, r := range rows {
		t.row(fmt.Sprint(r.Depth), fmt.Sprint(r.Reports), fmt.Sprint(r.TP),
			fmt.Sprint(r.FP), dur(r.Time), fmt.Sprint(r.Truncated))
	}
	return t.done("Recall saturates once the deepest injected call chain fits inside the budget; deeper budgets only add search cost.")
}
