package core_test

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/obs"
)

// The session carries its program-level tables — function layout, call-graph
// condensation, program shape, module and analysis tables, call-site index,
// detection's last run — from one Update to the next and patches them. These scripts
// walk it through the edits that move each of those tables, and through the
// ones that leave them alone in between, holding every step against a
// session that has seen nothing but that step's sources.

type patchStep struct {
	name string
	prog program
	// all says whether the step must look at every function (a table was
	// rebuilt) or must not (the tables were patched).
	all bool
	// fails, when set, is a substring of the error the step must fail with;
	// the session must then stand where the step before left it.
	fails string
}

func patchScript() []patchStep {
	b := replayBase
	recursive := b.with("pair.mc", "int one(int a) { if (a > 9) { return two(a - 1); } return a + 1; }\nint two(int a) { return one(a) + 1; }\n")
	recursiveEdited := b.with("pair.mc", "int one(int a) { if (a > 9) { return two(a - 1); } return a + 1; }\nint two(int a) { return one(a) + 2; }\n")
	moved := b.with("pair.mc", "int one(int a) { return a + 1; }\n").
		with("lone.mc", "void lone(int *p) { free(p); }\nint two(int a) { return one(a) + 1; }\n")
	reordered := append(program{moved[len(moved)-1]}, moved[:len(moved)-1]...)
	shaped := b.with("other.mc", "int counter;\nstruct box { int *item; int n; };\nvoid other() {\n\tint *y = malloc();\n\t*y = 2;\n\tfree(y);\n}\n")
	shapedEdited := shaped.with("rel.mc", "void rel(int *p) { int z = 0; free(p); }\n")
	renamed := shapedEdited.with("lone.mc", "void solo(int *p) { free(p); }\n")
	stashDefined := b.with("stash.mc", "void stash(int *q) { remove_file(q); }\n")
	topEdited := b.with("top.mc", "void top(bool c) {\n\tint *x = malloc();\n\t*x = 2;\n\thold(x);\n\tif (c) { int v = *x; use_val(v); }\n}\n")
	broken := topEdited.with("serve.mc", "void serve() {\n\tint *p = fetch(;\n}\n")
	twice := topEdited.with("extra.mc", "void rel(int *p) { }\n")
	return []patchStep{
		{name: "cold", prog: b, all: true},
		{name: "body edit", prog: b.with("rel.mc", "void rel(int *p) { int z = 0; free(p); }\n")},
		{name: "a call closes a cycle", prog: recursive, all: true},
		{name: "body edit inside the cycle", prog: recursiveEdited},
		{name: "the call goes, and the cycle with it", prog: b, all: true},
		{name: "a function moves to another unit", prog: moved, all: true},
		{name: "units reordered", prog: reordered, all: true},
		{name: "back to the base", prog: b, all: true},
		{name: "a global and a struct appear", prog: shaped, all: true},
		{name: "body edit under the new shape", prog: shapedEdited},
		{name: "a function is renamed", prog: renamed, all: true},
		{name: "an external callee becomes defined", prog: stashDefined, all: true},
		{name: "the callee goes, its caller stays", prog: b, all: true},
		{name: "body edit of a caller", prog: topEdited},
		{name: "resubmit", prog: topEdited},
		{name: "a unit stops parsing", prog: broken, fails: "parse"},
		{name: "a function is defined twice", prog: twice, fails: "duplicate function"},
		{name: "body edit after the failures", prog: b},
	}
}

func TestSessionPatchedTablesMatchScratch(t *testing.T) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := detect.Options{Workers: workers, Witness: true}
			sess := core.NewSession(core.BuildOptions{Workers: workers})
			type answer struct {
				a       *core.Analysis
				reports string
			}
			var answers []answer
			for _, st := range patchScript() {
				if st.fails != "" {
					before, fp := sess.Analysis(), sess.ArtifactFingerprint()
					if _, err := sess.Update(st.prog); err == nil || !strings.Contains(err.Error(), st.fails) {
						t.Fatalf("%s: error %v, want one about %q", st.name, err, st.fails)
					}
					if sess.Analysis() != before || sess.ArtifactFingerprint() != fp {
						t.Fatalf("%s: the failed Update moved the session", st.name)
					}
					continue
				}
				warm, err := sess.Update(st.prog)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if all := warm.Artifacts.Visited == warm.Sizes.Functions; all != st.all {
					t.Errorf("%s: looked at %d of %d functions; every one: want %t", st.name, warm.Artifacts.Visited, warm.Sizes.Functions, st.all)
				}
				scratch := core.NewSession(core.BuildOptions{Workers: workers})
				cold, err := scratch.Update(st.prog)
				if err != nil {
					t.Fatalf("%s: from scratch: %v", st.name, err)
				}
				wres, cres := warm.CheckAll(checkers.All(), opts), cold.CheckAll(checkers.All(), opts)
				wb := string(reportsJSON(t, wres.Reports))
				if cb := string(reportsJSON(t, cres.Reports)); wb != cb {
					t.Fatalf("%s: reports differ\nsession: %s\nscratch: %s", st.name, wb, cb)
				}
				if w, c := normalizeResults(wres).Checkers, normalizeResults(cres).Checkers; !reflect.DeepEqual(w, c) {
					t.Fatalf("%s: stats differ\nsession: %+v\nscratch: %+v", st.name, w, c)
				}
				if warm.Sizes != cold.Sizes || warm.PTAStats != cold.PTAStats {
					t.Fatalf("%s: sizes differ: %+v %+v vs %+v %+v", st.name, warm.Sizes, warm.PTAStats, cold.Sizes, cold.PTAStats)
				}
				if sess.ArtifactFingerprint() != scratch.ArtifactFingerprint() {
					t.Fatalf("%s: artifact fingerprints differ", st.name)
				}
				if w, c := sess.SCCNames(), scratch.SCCNames(); !reflect.DeepEqual(w, c) {
					t.Fatalf("%s: call-graph condensation differs\nsession: %v\nscratch: %v", st.name, w, c)
				}
				if w, c := callersByName(warm.Prog), callersByName(cold.Prog); !reflect.DeepEqual(w, c) {
					t.Fatalf("%s: call-site index differs\nsession: %v\nscratch: %v", st.name, w, c)
				}
				if w, c := summaryFPs(warm), summaryFPs(cold); !reflect.DeepEqual(w, c) {
					t.Fatalf("%s: Mod/Ref summaries differ", st.name)
				}
				// Nothing an earlier Analysis can reach was touched: the one
				// from two Updates ago still answers as it did.
				answers = append(answers, answer{warm, wb})
				if n := len(answers); n >= 3 {
					old := answers[n-3]
					if got := string(reportsJSON(t, old.a.CheckAll(checkers.All(), opts).Reports)); got != old.reports {
						t.Fatalf("%s: the Analysis of two Updates ago answers differently now\nthen: %s\nnow:  %s", st.name, old.reports, got)
					}
				}
			}
		})
	}
}

// After a cold build, a CheckAll and a one-function edit, the structural
// gauges are those of the build: sums of what each function measured when it
// was built, not a recount of graphs detection has grown since.
func TestSessionGaugesMatchSizes(t *testing.T) {
	units := ladder(60, 1)
	rec := obs.New()
	sess := core.NewSession(core.BuildOptions{Workers: 1, Obs: rec})
	a, err := sess.Update(units)
	if err != nil {
		t.Fatal(err)
	}
	a.CheckAll(checkers.All(), detect.Options{Workers: 1})
	units[0] = editUnit(t, units[0])
	if a, err = sess.Update(units); err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) int { return int(rec.Gauge(name).Value()) }
	if got := gauge("seg.nodes"); got != a.Sizes.SEGNodes {
		t.Errorf("seg.nodes gauge %d, Sizes.SEGNodes %d", got, a.Sizes.SEGNodes)
	}
	if v, u, n := gauge("seg.value_nodes"), gauge("seg.use_nodes"), gauge("seg.nodes"); v+u != n || v == 0 || u == 0 {
		t.Errorf("seg.value_nodes %d + seg.use_nodes %d != seg.nodes %d", v, u, n)
	}
	if got := gauge("seg.edges"); got != a.Sizes.SEGEdges {
		t.Errorf("seg.edges gauge %d, Sizes.SEGEdges %d", got, a.Sizes.SEGEdges)
	}
	cold, err := core.BuildFromSource(units, core.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sizes != cold.Sizes {
		t.Errorf("sizes after the edit %+v, of a cold build %+v", a.Sizes, cold.Sizes)
	}
	if got, want := int(rec.Counter("build.funcs_visited").Value()), a.Sizes.Functions+a.Artifacts.Visited; got != want {
		t.Errorf("build.funcs_visited %d, want %d (cold) + %d (edit)", got, a.Sizes.Functions, a.Artifacts.Visited)
	}
}

// TestSharedTablesConcurrentCheck holds the Analyses of a session to what
// their tables share chunk by chunk: while an Update commits an edit of a
// function in the first chunk of every table — forking the current
// Analysis's tables and writing the forks — the Analysis before that one is
// checked on another goroutine, and each answers as it did alone (the one
// checked against its own earlier answer, the new one against a build from
// nothing). Under the race detector it also finds a write to a chunk that a
// reader of an older table can see.
func TestSharedTablesConcurrentCheck(t *testing.T) {
	units := ladder(60, 3)
	opts := detect.Options{Workers: 2, Witness: true}
	sess := core.NewSession(core.BuildOptions{Workers: 2})
	cur, err := sess.Update(units)
	if err != nil {
		t.Fatal(err)
	}
	// Functions of the first chunk, which sit in the first unit: each edit
	// opens one with a line of its own, which moves every later function of
	// the unit and the lines their reports name.
	var names []string
	for pos := range min(cur.Module.NumFuncs(), 64) {
		if f := cur.Module.Func(pos); f.ID < 64 && f.Unit == 0 && len(names) < 3 {
			names = append(names, f.Name)
		}
	}
	edit := func(step int) {
		name := names[step%len(names)]
		opener := regexp.MustCompile(`(?m)^[a-z]+ \*?` + name + `\([^)]*\) \{`)
		loc := opener.FindStringIndex(units[0].Src)
		if loc == nil {
			t.Fatalf("no declaration of %s in %s", name, units[0].Name)
		}
		src := units[0].Src
		units[0].Src = src[:loc[1]] + fmt.Sprintf("\n\tint zz%d = %d;", step, step) + src[loc[1]:]
	}
	answer := func(a *core.Analysis) string { return string(reportsJSON(t, a.CheckAll(checkers.All(), opts).Reports)) }
	var prev *core.Analysis
	var prevAnswer, curAnswer string
	curAnswer = answer(cur)
	for step := 0; step < 6; step++ {
		edit(step)
		var again detect.Results
		done := make(chan struct{})
		if prev != nil {
			go func() {
				defer close(done)
				again = prev.CheckAll(checkers.All(), opts)
			}()
		} else {
			close(done)
		}
		next, err := sess.Update(units)
		<-done
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if prev != nil {
			if got := string(reportsJSON(t, again.Reports)); got != prevAnswer {
				t.Fatalf("step %d: the Analysis before the session's answers differently beside the Update\nthen: %s\nnow:  %s", step, prevAnswer, got)
			}
		}
		cold, err := core.BuildFromSource(units, core.BuildOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		nextAnswer := answer(next)
		if want := answer(cold); nextAnswer != want {
			t.Fatalf("step %d: the committed Analysis answers unlike a build from nothing\nsession: %s\nscratch: %s", step, nextAnswer, want)
		}
		prev, prevAnswer, cur, curAnswer = cur, curAnswer, next, nextAnswer
	}
	if got := answer(prev); got != prevAnswer {
		t.Fatalf("the Analysis before the last answers differently now\nthen: %s\nnow:  %s", prevAnswer, got)
	}
}
