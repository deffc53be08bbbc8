package core_test

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
)

// What a session's runs share across Updates — the report list a run keeps
// from the run it patches, and that list's JSON encoding — must never change
// an answer. FuzzSessionHistory drives a session through 3–8 steps the fuzz
// bytes choose (a body edit, a rename, a signature change, a function added,
// removed or moved to another unit, an unchanged resubmit, another checker
// set or witness setting). After each Update, the new Analysis answers
// first, with its encoding asked for from two goroutines at once; then every
// Analysis kept from the earlier steps, oldest first, runs CheckAll again,
// and finally the new one once more, which leaves the session's last run the
// newest Analysis's, so the next step patches it. Each answer's encoding must
// be what encoding/json writes for its reports, and its reports and effort
// counters must be that Analysis's first answer's, which must be a
// from-scratch BuildFromSource's; and a first answer, still held, must read
// as it did when it was given.

// historyEdits are the body edits: one replaces its unit's source, or puts
// back replayBase's if the unit holds that edit already.
var historyEdits = program{
	{Name: "rel.mc", Src: "void rel(int *p) { int z = 0; free(p); }\n"},
	{Name: "rel.mc", Src: "void rel(int *p) { *p = 0; free(p); }\n"},
	{Name: "hold.mc", Src: "void hold(int *p) { int *q = p; rel(q); }\n"},
	{Name: "down.mc", Src: "void down(int *q) { use_ptr(q); }\n"},
	{Name: "top.mc", Src: "void top(bool c) {\n\tint *x = malloc();\n\t*x = 1;\n\thold(x);\n\tif (c) { use_val(1); }\n}\n"},
	{Name: "top.mc", Src: "void top(bool c) {\n\n\tint *x = malloc();\n\t*x = 1;\n\thold(x);\n\tif (c) { int v = *x; use_val(v); }\n}\n"},
	{Name: "other.mc", Src: "void other() {\n\tint *y = malloc();\n\t*y = 2;\n\thold(y);\n\tint w = *y;\n}\n"},
	{Name: "other.mc", Src: "void other() {\n\tint *y = malloc();\n\t*y = 2;\n\tlone(y);\n}\n"},
	{Name: "sink2.mc", Src: "void sink2(int *p) { use_ptr(p); }\n"},
	{Name: "serve.mc", Src: "void serve() {\n\tint *p = fetch();\n\topen_file(p);\n\tstash(p);\n}\n"},
	{Name: "lone.mc", Src: "void alone(int *p) { free(p); }\n"},                                                   // a rename
	{Name: "pair.mc", Src: "int one(int a, int b) { return a + b; }\nint two(int a) { return one(a, 1) + 1; }\n"}, // a signature change
	{Name: "pair.mc", Src: "int two(int a) { return one(a) + 1; }\n"},                                             // one moves out, with one.mc
}

// historyUnits are the functions a step adds or removes.
var historyUnits = program{
	{Name: "extra.mc", Src: "void extra(bool c) {\n\tint *e = malloc();\n\tif (c) { free(e); }\n}\n"},
	{Name: "stash.mc", Src: "void stash(int *q) { remove_file(q); }\n"},
	{Name: "one.mc", Src: "int one(int a) { return a + 1; }\n"}, // one moves in, with pair.mc's edit
}

var historyCheckers = [][]string{
	nil, // all
	{"use-after-free"},
	{"memory-leak", "path-traversal"},
	{"double-free", "use-after-free", "null-deref"},
}

// answer is what one CheckAll answered: its reports as encoding/json writes
// them, which its own encoding must be, and its effort counters.
type answer struct {
	reports []byte
	stats   historyStats
}

type historyStats struct {
	Checkers         []detect.CheckerStats
	ExpansionsWalked int
	QueriesIssued    int
	Tasks            int
}

// answerOf reads one answer; its own encoding must be what encoding/json
// writes for its reports.
func answerOf(t *testing.T, res *detect.Results, encoded []byte) answer {
	t.Helper()
	n := normalizeResults(*res)
	a := answer{reportsJSON(t, res.Reports),
		historyStats{n.Checkers, n.ExpansionsWalked, n.QueriesIssued, n.TasksRun + n.TasksReplayed}}
	if !bytes.Equal(encoded, a.reports) {
		t.Fatalf("the run's encoding differs from encoding/json's\nrun:           %s\nencoding/json: %s", encoded, a.reports)
	}
	return a
}

func (a answer) differs(b answer) string {
	switch {
	case !bytes.Equal(a.reports, b.reports):
		return "reports"
	case !reflect.DeepEqual(a.stats, b.stats):
		return "effort counters"
	}
	return ""
}

func FuzzSessionHistory(f *testing.F) {
	f.Add([]byte("00000"))
	f.Add([]byte{5, 0, 1, 1, 0, 2, 0, 0, 5, 3, 2})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 6, 3, 1, 1, 1})
	f.Add([]byte{8, 0, 4, 0, 5, 1, 1, 2, 0, 3, 6, 0, 9, 3, 0, 0, 7})
	f.Add([]byte{7, 1, 2, 0, 12, 1, 2, 0, 10, 0, 11, 0, 12, 2, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		type kept struct {
			prog  program
			a     *core.Analysis
			specs []*checkers.Spec
			opts  detect.Options
			res   detect.Results // the first answer, as its caller holds it
			first answer
		}
		var history []kept
		sess := core.NewSession(core.BuildOptions{Workers: 1})
		prog := slices.Clone(replayBase)
		names, witness := 0, false
		steps := 3 + int(script[0])%6
		for i := 0; i < steps; i++ {
			kind, arg := 2, 0 // past the script's end: resubmits
			if at := 1 + 2*i; at+1 < len(script) {
				kind, arg = int(script[at])%4, int(script[at+1])
			}
			what := []string{"body edit", "function added or removed", "resubmit", "checker set"}[kind]
			switch kind {
			case 0:
				e := historyEdits[arg%len(historyEdits)]
				k := slices.IndexFunc(prog, func(u minic.NamedSource) bool { return u.Name == e.Name })
				if prog[k].Src == e.Src {
					e.Src = replayBase[slices.IndexFunc(replayBase, func(u minic.NamedSource) bool { return u.Name == e.Name })].Src
				}
				prog = prog.with(e.Name, e.Src)
			case 1:
				u := historyUnits[arg%len(historyUnits)]
				if slices.ContainsFunc(prog, func(v minic.NamedSource) bool { return v.Name == u.Name }) {
					u.Src = ""
				}
				prog = prog.with(u.Name, u.Src)
			case 3:
				names, witness = arg%len(historyCheckers), arg&4 != 0
			}
			specs := specsFor(t, historyCheckers[names])
			opts := detect.Options{Workers: 1 + i%2, Witness: witness}

			a, err := sess.Update(slices.Clone(prog))
			if err != nil { // one defined twice: refused, and the session stays
				if _, cerr := core.BuildFromSource(prog, core.BuildOptions{Workers: 1}); cerr == nil {
					t.Fatalf("step %d (%s): the session refused what a from-scratch build takes: %v", i, what, err)
				}
				prog = slices.Clone(replayBase)
				if len(history) > 0 {
					prog = history[len(history)-1].prog
				}
				continue
			}
			res := a.CheckAll(specs, opts)
			// Two holders of the run ask for its encoding at once.
			var wg sync.WaitGroup
			encodings := make([][]byte, 2)
			for g := range encodings {
				wg.Add(1)
				go func(held detect.Results) {
					defer wg.Done()
					encodings[g] = held.AppendJSON(nil)
				}(res)
			}
			wg.Wait()
			if !bytes.Equal(encodings[0], encodings[1]) {
				t.Fatalf("step %d (%s): two holders of one run read other encodings", i, what)
			}
			first := answerOf(t, &res, encodings[0])

			cold, err := core.BuildFromSource(prog, core.BuildOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			cres := cold.CheckAll(specsFor(t, historyCheckers[names]), detect.Options{Workers: 1, Witness: witness})
			if d := first.differs(answerOf(t, &cres, cres.AppendJSON(nil))); d != "" {
				t.Fatalf("step %d (%s): the session's %s differ from a from-scratch build's", i, what, d)
			}
			history = append(history, kept{prog, a, specs, opts, res, first})

			for j := range history {
				h := &history[j]
				if d := h.first.differs(answerOf(t, &h.res, h.res.AppendJSON(nil))); d != "" {
					t.Fatalf("after step %d (%s): the first answer of step %d, as held, no longer reads as given: its %s changed", i, what, j, d)
				}
				again := h.a.CheckAll(h.specs, h.opts)
				if d := h.first.differs(answerOf(t, &again, again.AppendJSON(nil))); d != "" {
					t.Fatalf("after step %d (%s): step %d's Analysis checked again gives other %s", i, what, j, d)
				}
			}
			again := a.CheckAll(specs, opts)
			if d := first.differs(answerOf(t, &again, again.AppendJSON(nil))); d != "" {
				t.Fatalf("step %d (%s): checked again last, the Analysis gives other %s", i, what, d)
			}
		}
	})
}
