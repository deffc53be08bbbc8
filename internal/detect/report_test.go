package detect_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/detect"
	"repro/internal/minic"
)

// SortReports sorts a permutation instead of the reports; the order must be
// the one sort.SliceStable gives, ties in their given order included. The
// reports are drawn from few checkers and positions, so that most of them
// tie with another, and PathLen numbers them so that a swapped tie shows.
func TestSortReportsIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		rs := make([]detect.Report, n)
		for i := range rs {
			rs[i] = detect.Report{
				Checker:   []string{"use-after-free", "memory-leak", "double-free"}[rng.Intn(3)],
				SourcePos: minic.Pos{File: []string{"a.mc", "b.mc"}[rng.Intn(2)], Line: rng.Intn(4), Col: rng.Intn(2)},
				SinkPos:   minic.Pos{File: "a.mc", Line: rng.Intn(3)},
				PathLen:   i,
			}
		}
		want := slices.Clone(rs)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.Checker != b.Checker {
				return a.Checker < b.Checker
			}
			if a.SourcePos != b.SourcePos {
				return a.SourcePos.File < b.SourcePos.File || a.SourcePos.File == b.SourcePos.File &&
					(a.SourcePos.Line < b.SourcePos.Line || a.SourcePos.Line == b.SourcePos.Line && a.SourcePos.Col < b.SourcePos.Col)
			}
			return a.SinkPos.File < b.SinkPos.File || a.SinkPos.File == b.SinkPos.File &&
				(a.SinkPos.Line < b.SinkPos.Line || a.SinkPos.Line == b.SinkPos.Line && a.SinkPos.Col < b.SinkPos.Col)
		})
		detect.SortReports(rs)
		if !reflect.DeepEqual(rs, want) {
			t.Fatalf("%d reports: SortReports differs from sort.SliceStable", n)
		}
	}
}
