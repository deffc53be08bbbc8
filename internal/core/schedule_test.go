package core

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestScheduleBoundsLiveBodies holds the build wavefront to its callee-first
// layout: on one worker it finishes an SCC's functions before it lowers the
// next SCC's, so the functions lowered and not yet finished (their SEG not
// built, their body alive) never outnumber the largest SCC. A schedule that
// lowered every function first would hold every body at once.
func TestScheduleBoundsLiveBodies(t *testing.T) {
	gen := workload.Generate(
		workload.Subject{Name: "ladder", Origin: "synthetic", PaperKLoC: 600, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: 1})
	rec := obs.NewTracing()
	s := NewSession(BuildOptions{Workers: 1, Obs: rec})
	if _, err := s.Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, scc := range s.tab.sccs {
		largest = max(largest, len(scc))
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name    string
			Ts, Dur int64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	// A function is lowered from the end of its lower span to the end of its
	// seg span; at a tie, a finish counts first.
	type mark struct {
		at    int64
		delta int
	}
	var marks []mark
	lowered := 0
	for _, e := range trace.TraceEvents {
		switch {
		case strings.HasPrefix(e.Name, "lower:"):
			marks = append(marks, mark{e.Ts + e.Dur, +1})
			lowered++
		case strings.HasPrefix(e.Name, "seg:"):
			marks = append(marks, mark{e.Ts + e.Dur, -1})
		}
	}
	if lowered != len(s.tab.ids) {
		t.Fatalf("trace shows %d functions lowered, want %d", lowered, len(s.tab.ids))
	}
	sort.SliceStable(marks, func(i, j int) bool {
		return marks[i].at < marks[j].at || marks[i].at == marks[j].at && marks[i].delta < marks[j].delta
	})
	live, peak := 0, 0
	for _, m := range marks {
		live += m.delta
		peak = max(peak, live)
	}
	t.Logf("%d functions, largest SCC %d: at most %d lowered and not finished", lowered, largest, peak)
	if peak > largest {
		t.Errorf("%d functions were lowered and not finished at once, more than the largest SCC's %d", peak, largest)
	}
}
