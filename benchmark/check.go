package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/workload"
)

// reportKey is the part of a report the ground truth speaks about: which
// checker fired and where the flow starts (the free, or the taint source).
type reportKey struct {
	Checker string `json:"checker"`
	File    string `json:"sourceFile"`
	Line    int    `json:"sourceLine"`
}

// truthVerdict is the outcome of comparing one report list with the
// generator's ground truth.
type truthVerdict struct {
	True, Opaque  int // injected sites reported
	Missed        int // true sites not reported
	Traps         int // infeasible-trap sites reported (refuted = not reported)
	TrapsRefuted  int
	Unexpected    int // reports at sites the generator did not inject
	OtherCheckers int // reports of checkers the truth does not cover
	wantTrue      int
}

// Wrong counts verdicts that disagree with the known answer.
func (v truthVerdict) Wrong() int { return v.Missed + v.Traps + v.Unexpected }

func (v truthVerdict) String() string {
	return fmt.Sprintf("%d/%d true, %d opaque, %d unexpected, %d traps reported (%d refuted), %d reports of unchecked checkers",
		v.True, v.wantTrue, v.Opaque, v.Unexpected, v.Traps, v.TrapsRefuted, v.OtherCheckers)
}

var taintCheckers = []string{"path-traversal", "data-transmission"}

// checkTruth holds a `-format json` report list against the ground truth
// the generator returned with the program. The truth never passes
// through the analyzer, so it is an independent reference. It covers
// use-after-free and the two taint checkers: every true site must be
// reported, no infeasible trap may be, and nothing may be reported
// outside the true and the opaque (unrefutable by design) sites.
func checkTruth(reportsJSON []byte, truth *workload.Truth) (truthVerdict, error) {
	var reports []reportKey
	if err := json.Unmarshal(reportsJSON, &reports); err != nil {
		return truthVerdict{}, fmt.Errorf("reports are not a JSON list: %w", err)
	}
	var v truthVerdict
	seen := make(map[reportKey]bool)
	for _, r := range reports {
		if seen[r] { // several sinks of one source are one site
			continue
		}
		seen[r] = true
		isTrue, isOpaque, covered := false, false, true
		switch r.Checker {
		case "use-after-free":
			isTrue, isOpaque = truth.IsTrueUAF(r.File, r.Line), truth.IsOpaqueUAF(r.File, r.Line)
			for _, t := range truth.InfeasibleTraps {
				if t.File == r.File && t.Line == r.Line {
					v.Traps++
				}
			}
		case "path-traversal", "data-transmission":
			isTrue, isOpaque = truth.MatchTaint(r.Checker, r.File, r.Line)
		default:
			covered = false
		}
		switch {
		case !covered:
			v.OtherCheckers++
		case isTrue:
			v.True++
		case isOpaque:
			v.Opaque++
		default:
			v.Unexpected++
		}
	}
	v.wantTrue = len(truth.TrueUAF)
	for _, c := range taintCheckers {
		v.wantTrue += len(truth.TaintTrue[c])
	}
	v.Missed = v.wantTrue - v.True
	v.TrapsRefuted = len(truth.InfeasibleTraps) - v.Traps
	// A trap site that is reported was already counted as unexpected.
	v.Unexpected -= v.Traps
	return v, nil
}

// compactJSON strips insignificant whitespace so the CLI's indented list
// and the server's one-line list compare byte for byte.
func compactJSON(data []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, data); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// tally accumulates one workload's operations and their outcomes.
type tally struct {
	Attempted int
	Failed    int // operations that did not complete (bad exit, non-200, timeout) or answered wrongly
	Wrong     int // verdicts that are not the known answer
	Notes     []string
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	t.note(format, args...)
}

// wrong records n verdicts of one operation that disagree with the known
// answer; the operation counts as failed.
func (t *tally) wrong(n int, format string, args ...any) {
	t.Wrong += n
	t.Failed++
	t.note(format, args...)
}

// merge adds another tally's counts and notes to t.
func (t *tally) merge(o tally) {
	t.Attempted, t.Failed, t.Wrong = t.Attempted+o.Attempted, t.Failed+o.Failed, t.Wrong+o.Wrong
	t.Notes = append(t.Notes, o.Notes...)
}

func (t *tally) note(format string, args ...any) {
	if len(t.Notes) < 20 {
		t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	}
}
