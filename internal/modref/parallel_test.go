package modref

import (
	"cmp"
	"slices"
	"testing"
)

const parallelSrc = `
int g;
void leafw(int *p) { *p = 1; }
void leafr(int *p) { int x = *p; }
void even(int *p, int n) { if (n > 0) { odd(p, n - 1); } }
void odd(int *p, int n) { *p = n; even(p, n - 1); }
void chain3(int *p) { leafw(p); }
void chain2(int *p) { chain3(p); }
void chain1(int *p) { chain2(p); }
void globals() { g = 3; int x = g; }
void wide1(int *p) { leafr(p); }
void wide2(int *p) { leafw(p); }
void wide3(int *p, int **q) { *q = p; even(p, 2); }
void top(int *p, int **q) { chain1(p); wide1(p); wide2(p); wide3(p, q); globals(); }
`

// TestAnalyzeWithParallelEquivalence pins the wavefront contract: the
// parallel Mod/Ref analysis produces summaries fingerprint-identical to
// the sequential one at every worker count, on a call graph mixing a
// deep chain, a recursion cycle, global roots, and a wide frontier.
func TestAnalyzeWithParallelEquivalence(t *testing.T) {
	base := Analyze(buildModule(t, parallelSrc))
	baseFP := make(map[string]string)
	for f, sum := range base.Summaries {
		baseFP[f.Name] = sum.Fingerprint()
	}
	for _, workers := range []int{2, 4, 8} {
		m := buildModule(t, parallelSrc)
		res, width := AnalyzeWith(m, workers)
		if width < 1 {
			t.Fatalf("workers=%d: wavefront width = %d", workers, width)
		}
		for f, sum := range res.Summaries {
			if got, want := sum.Fingerprint(), baseFP[f.Name]; got != want {
				t.Fatalf("workers=%d: %s summary %q != sequential %q", workers, f.Name, got, want)
			}
		}
	}
}

// TestSCCDepsAcyclicCalleeFirst checks the condensed call graph edges
// point strictly backwards in Tarjan's callee-first order — the
// property the wavefront scheduler relies on to never deadlock — and that
// the caller edges are the callee edges reversed.
func TestSCCDepsAcyclicCalleeFirst(t *testing.T) {
	c := condenseModule(buildModule(t, parallelSrc))
	var callees, callers [][2]int32
	for i := range c.SCCs {
		for _, d := range c.Callees.Of(int32(i)) {
			if d >= int32(i) {
				t.Fatalf("SCC %d depends on %d — not callee-first", i, d)
			}
			callees = append(callees, [2]int32{int32(i), d})
		}
		for _, d := range c.Callers.Of(int32(i)) {
			callers = append(callers, [2]int32{d, int32(i)})
		}
	}
	slices.SortFunc(callers, func(a, b [2]int32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	slices.SortFunc(callees, func(a, b [2]int32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	if len(callees) == 0 || !slices.Equal(callers, callees) {
		t.Errorf("caller edges %v are not the callee edges %v reversed", callers, callees)
	}
}
