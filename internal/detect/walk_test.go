package detect_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkers"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/seg"
)

// walkSubjects are the programs the walk is held against the enumeration on:
// two functions with correlated branches, memory flows and every terminal
// role, and the example programs.
func walkSubjects(t *testing.T) map[string]*core.Analysis {
	t.Helper()
	out := map[string]*core.Analysis{
		"branches": buildAnalysis(t, `
void f(bool c, bool d, int *p, int *q) {
	int *r = p;
	if (c) { r = q; }
	if (d) { free(r); } else { use(r); }
	if (c) {
		if (!d) { g(r); }
	}
	int x = *r;
	use(x);
}`),
		"cells": buildAnalysis(t, `
int *pick(bool c, bool d, int *a, int *b) {
	int *cell = malloc();
	*cell = a;
	if (c) { *cell = b; }
	int *out = *cell;
	if (d) { free(out); }
	if (!c) { return a; }
	return out;
}`),
	}
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.BuildFromSource([]minic.NamedSource{{Name: filepath.Base(file), Src: string(src)}}, core.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out[filepath.Base(file)] = a
	}
	return out
}

// TestWalkEqualsEnumeration: at every vertex of the subjects, a walk yields
// exactly the paths a plain enumeration finds — the same vertices, so the
// same terminal, in the same order — each under the very condition node the
// enumeration conjoins step by step, as the flow memo the walk replaced did.
func TestWalkEqualsEnumeration(t *testing.T) {
	for name, a := range walkSubjects(t) {
		render := func(path []int32, c *cond.Cond) string { return fmt.Sprintf("%v under #%d %s", path, c.ID(), c) }
		flows := 0
		for _, f := range a.Module.Funcs {
			g := a.Prog.SEG(f)
			if g == nil {
				continue
			}
			for n := int32(0); int(n) < g.NumNodes(); n++ {
				var want, got []string
				detect.EnumerateFlows(g, n, func(path []int32, c *cond.Cond) bool {
					want = append(want, render(path, c))
					return true
				})
				paths, conds, truncated := detect.WalkFlows(g, n)
				for i := range paths {
					got = append(got, render(paths[i], conds[i]))
				}
				if truncated {
					t.Errorf("%s: %s: the walk from vertex %d was truncated", name, f.Name, n)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s: %s: flows from vertex %d (%s):\n got %q\nwant %q", name, f.Name, n, g.NodeString(n), got, want)
				}
				flows += len(got)
			}
		}
		if flows < 10 {
			t.Fatalf("%s: %d flows: not the subject the test is about", name, flows)
		}
	}
}

// nearCap is a function in which the secret reaches v by two routes, the
// one through a1 (an addition) a vertex longer than the one through b1 (a
// copy), and v reaches the sink through a chain of tail lines. At some tail
// length the step cap keeps the short route's flow and drops the long one's,
// and the route defined first decides which of them reaches v first.
func nearCap(tail int, longFirst bool) string {
	long, short := "\tint a1 = x + 1;\n", "\tint b1 = x;\n"
	if !longFirst {
		long, short = short, long
	}
	var b strings.Builder
	b.WriteString("void f(bool c) {\n\tint x = getpass();\n" + long + short)
	b.WriteString("\tint v = 0;\n\tif (c) { v = a1; } else { v = b1; }\n")
	prev := "v"
	for i := 1; i <= tail; i++ {
		fmt.Fprintf(&b, "\tint w%d = %s + 1;\n", i, prev)
		prev = fmt.Sprintf("w%d", i)
	}
	fmt.Fprintf(&b, "\tsend_data(%s);\n}\n", prev)
	return b.String()
}

// TestWalkStepCapEqualsEnumeration: near the step cap, a walk yields the
// flows of at most MaxSteps vertices that the enumeration finds, and it is
// truncated exactly when the enumeration finds a longer one. This holds
// where a vertex first reached with too little room is reached again with
// one vertex more, which its dead-end mark must not skip.
func TestWalkStepCapEqualsEnumeration(t *testing.T) {
	render := func(path []int32, c *cond.Cond) string { return fmt.Sprintf("%v under #%d", path, c.ID()) }
	// split counts the vertices with flows both kept and dropped; the chain
	// has two vertices a line.
	split := 0
	for tail := detect.MaxSteps/2 - 8; tail <= detect.MaxSteps/2; tail++ {
		for _, longFirst := range []bool{true, false} {
			g := walkGraph(t, nearCap(tail, longFirst), "f")
			for n := int32(0); int(n) < g.NumNodes(); n++ {
				var want []string
				long := false
				detect.EnumerateFlows(g, n, func(path []int32, c *cond.Cond) bool {
					if len(path) > detect.MaxSteps {
						long = true
					} else {
						want = append(want, render(path, c))
					}
					return true
				})
				paths, conds, truncated := detect.WalkFlows(g, n)
				var got []string
				for i := range paths {
					got = append(got, render(paths[i], conds[i]))
				}
				if !slices.Equal(got, want) || truncated != long {
					t.Errorf("tail %d, long first %v: flows from vertex %d (%s):\n got %q (truncated %v)\nwant %q (a longer one %v)", tail, longFirst, n, g.NodeString(n), got, truncated, want, long)
				}
				if long && len(want) > 0 {
					split++
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("no vertex has flows on both sides of the step cap: not the subject the test is about")
	}
}

// walkGraph builds a one-function program and returns the function's SEG.
func walkGraph(t *testing.T, src, fn string) *seg.Graph {
	t.Helper()
	a := buildAnalysis(t, src)
	return a.Prog.SEG(a.Module.Lookup(fn))
}

// A parameter returned as it is flows to the return operand unconditionally
// (VF1).
func TestWalkParamToRet(t *testing.T) {
	g := walkGraph(t, "int id(int x) { return x; }", "id")
	paths, conds, _ := detect.WalkFlows(g, g.ValueNode(g.Params()[0]))
	if len(paths) != 1 || g.Node(paths[0][len(paths[0])-1]).Role != seg.RoleRetArg {
		t.Fatalf("flows from x = %v, want the one to the return", paths)
	}
	if !conds[0].IsTrue() {
		t.Errorf("unconditional identity has cond %s", conds[0])
	}
}

// Values joined at a φ flow to the return under complementary gates.
func TestWalkConditional(t *testing.T) {
	g := walkGraph(t, `
int pick(bool c, int a, int b) {
	int x = 0;
	if (c) { x = a; } else { x = b; }
	return x;
}`, "pick")
	toRet := func(p int) *cond.Cond {
		t.Helper()
		paths, conds, _ := detect.WalkFlows(g, g.ValueNode(g.Params()[p]))
		for i, path := range paths {
			if g.Node(path[len(path)-1]).Role == seg.RoleRetArg {
				return conds[i]
			}
		}
		t.Fatalf("no flow from parameter %d to the return", p)
		return nil
	}
	ca, cb := toRet(1), toRet(2)
	if ca.IsTrue() || cb.IsTrue() {
		t.Errorf("gated flows are unconditional: %s / %s", ca, cb)
	}
	if g.Conds().Not(ca) != cb {
		t.Errorf("gates not complementary: %s vs %s", ca, cb)
	}
}

// A walk ends at every kind of use vertex.
func TestWalkTerminalRoles(t *testing.T) {
	g := walkGraph(t, `
void f(int *p) {
	free(p);
	g(p);
	int v = *p;
}`, "f")
	paths, _, _ := detect.WalkFlows(g, g.ValueNode(g.Params()[0]))
	roles := map[seg.UseRole]bool{}
	for _, path := range paths {
		roles[g.Node(path[len(path)-1]).Role] = true
	}
	for _, want := range []seg.UseRole{seg.RoleFreeArg, seg.RoleCallArg, seg.RoleDerefAddr} {
		if !roles[want] {
			t.Errorf("missing terminal role %v (got %v)", want, roles)
		}
	}
}

// A value that is only a branch condition has a vertex without edges, and
// so no flows.
func TestWalkFromEdgelessVertex(t *testing.T) {
	g := walkGraph(t, `
void f(bool c, int *p) {
	if (c) { free(p); }
}`, "f")
	if paths, _, _ := detect.WalkFlows(g, g.ValueNode(g.Params()[1])); len(paths) != 1 || g.Node(paths[0][len(paths[0])-1]).Role != seg.RoleFreeArg {
		t.Fatalf("flows from p = %v, want the one free", paths)
	}
	c := g.ValueNode(g.Params()[0])
	if c < 0 || len(g.Succs(c)) != 0 {
		t.Fatalf("test premise: c has vertex %d with edges %v", c, g.Succs(c))
	}
	if paths, _, truncated := detect.WalkFlows(g, c); len(paths) != 0 || truncated {
		t.Errorf("flows from a branch condition = %v (truncated %v), want none", paths, truncated)
	}
}

// TestWalkAllocatesNothingWarm: once its stacks have grown and the condition
// nodes its flows need exist, a walker walks without allocating — the walks
// replace a memo, and the gain is that they leave nothing behind.
func TestWalkAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	for name, a := range walkSubjects(t) {
		for _, f := range a.Module.Funcs {
			g := a.Prog.SEG(f)
			if g == nil {
				continue
			}
			walkAll := detect.WalkEvery(g)
			walkAll()
			if allocs := testing.AllocsPerRun(5, walkAll); allocs != 0 {
				t.Errorf("%s: %s: walking every vertex allocates %.0f times", name, f.Name, allocs)
			}
		}
	}
}

// explosion is a function whose SEG has 2^lines paths from the secret:
// every line doubles them. With a sink at the end every path is a flow;
// without one no path is.
func explosion(lines int, sink bool) string {
	var b strings.Builder
	b.WriteString("void leak_all() {\n\tint x0 = getpass();\n")
	for i := 1; i <= lines; i++ {
		fmt.Fprintf(&b, "\tint x%d = x%d + x%d;\n", i, i-1, i-1)
	}
	if sink {
		fmt.Fprintf(&b, "\tsend_data(x%d);\n", lines)
	}
	b.WriteString("}\n")
	return b.String()
}

// TestWalkPathExplosion: the caps bound a walk's work however many paths
// its graph has. With 40 lines and the sink at the end, the flow cap cuts
// the walks short and the one report stands; with 130 the only flows run
// past the step cap, which drops them, so nothing is reported and the walks
// count as truncated. Where no path ends anywhere, at either length, the
// walk visits each vertex a bounded number of times, reports nothing and is
// cut by no cap that dropped a flow. Each variant takes milliseconds; an
// uncapped walk would take 2^40 steps.
func TestWalkPathExplosion(t *testing.T) {
	for _, tc := range []struct {
		lines     int
		sink      bool
		reports   int
		truncated bool
	}{
		{40, true, 1, true},
		{40, false, 0, false},
		{130, true, 0, true},
		{130, false, 0, false},
	} {
		a := buildAnalysis(t, explosion(tc.lines, tc.sink))
		res := a.CheckAll([]*checkers.Spec{checkers.DataTransmission()}, detect.Options{})
		name := fmt.Sprintf("%d lines, sink %v", tc.lines, tc.sink)
		t.Logf("%s: %d reports, %d walks, %d truncated, %s", name, len(res.Reports), res.SummaryMisses, res.SummaryCapHits, res.Wall)
		if len(res.Reports) != tc.reports {
			t.Errorf("%s: %d reports, want %d", name, len(res.Reports), tc.reports)
		}
		if truncated := res.SummaryCapHits > 0; truncated != tc.truncated {
			t.Errorf("%s: %d walks truncated", name, res.SummaryCapHits)
		}
		if res.Wall > time.Second {
			t.Errorf("%s: detection took %s", name, res.Wall)
		}
	}
}
