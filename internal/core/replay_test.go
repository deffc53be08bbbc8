package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The replay contract: a session that replays recorded (checker, source)
// task results across Updates answers every request exactly like a
// from-scratch build of the same sources — same report bytes, same effort
// counters — while executing only the tasks the edit can reach.

// program is an ordered set of named units; with returns a copy with one
// unit replaced, added (at the end) or, for src == "", removed.
type program []minic.NamedSource

func (p program) with(name, src string) program {
	out := make(program, 0, len(p)+1)
	found := false
	for _, u := range p {
		if u.Name != name {
			out = append(out, u)
			continue
		}
		found = true
		if src != "" {
			out = append(out, minic.NamedSource{Name: name, Src: src})
		}
	}
	if !found && src != "" {
		out = append(out, minic.NamedSource{Name: name, Src: src})
	}
	return out
}

// replayBase keeps every function in a unit of its own, so that an edit
// dirties exactly the function it names (positions are part of the AST hash).
//
//	rel ← hold ← top     use-after-free: freed in rel, dereferenced in top
//	fetch ← serve        path traversal: sourced in fetch, sunk in serve
//	feed → down          path traversal: sourced in feed, sunk in down
//	owner → sink → sink2 ownership handed down; sink2 frees
//	lone                 frees its parameter; nobody calls it
var replayBase = program{
	{Name: "rel.mc", Src: "void rel(int *p) { free(p); }\n"},
	{Name: "hold.mc", Src: "void hold(int *p) { rel(p); }\n"},
	{Name: "top.mc", Src: "void top(bool c) {\n\tint *x = malloc();\n\t*x = 1;\n\thold(x);\n\tif (c) { int v = *x; use_val(v); }\n}\n"},
	{Name: "fetch.mc", Src: "int *fetch() { return user_input(); }\n"},
	{Name: "serve.mc", Src: "void serve() {\n\tint *p = fetch();\n\tstash(p);\n\topen_file(p);\n}\n"},
	{Name: "down.mc", Src: "void down(int *q) { open_file(q); }\n"},
	{Name: "feed.mc", Src: "void feed() {\n\tint *r = user_input();\n\tdown(r);\n}\n"},
	{Name: "sink2.mc", Src: "void sink2(int *p) { free(p); }\n"},
	{Name: "sink.mc", Src: "void sink(int *p) { sink2(p); }\n"},
	{Name: "owner.mc", Src: "void owner() {\n\tint *b = malloc();\n\t*b = 0;\n\tsink(b);\n}\n"},
	{Name: "pair.mc", Src: "int one(int a) { return a + 1; }\nint two(int a) { return one(a) + 1; }\n"},
	{Name: "lone.mc", Src: "void lone(int *p) { free(p); }\n"},
	{Name: "other.mc", Src: "void other() {\n\tint *y = malloc();\n\t*y = 2;\n\tfree(y);\n}\n"},
}

// replayStep is one request of an edit script. The zero expectations check
// nothing beyond equivalence; rebuilt, when set, pins how many functions the
// session rebuilt (so a script provably exercises a carry rule instead of a
// rebuild), and ran bounds the tasks the session executed.
type replayStep struct {
	name     string
	prog     program
	checkers []string // empty = all
	depth    int
	// flipWitness runs the step with Options.Witness the other way round
	// from the script's.
	flipWitness bool
	rebuilt     int    // functions rebuilt, -1 = unchecked
	ran         [2]int // [min, max] tasks executed, max -1 = unchecked
}

func step(name string, p program, rebuilt, ranMin, ranMax int) replayStep {
	return replayStep{name: name, prog: p, rebuilt: rebuilt, ran: [2]int{ranMin, ranMax}}
}

func replayScripts() map[string][]replayStep {
	b := replayBase
	relEdited := b.with("rel.mc", "void rel(int *p) { int z = 0; free(p); }\n")
	holdCopies := b.with("hold.mc", "void hold(int *p) { int *q = p; rel(q); }\n")
	downNoSink := b.with("down.mc", "void down(int *q) { use_ptr(q); }\n")
	topNoUse := b.with("top.mc", "void top(bool c) {\n\tint *x = malloc();\n\t*x = 1;\n\thold(x);\n\tif (c) { use_val(1); }\n}\n")
	otherCalls := b.with("other.mc", "void other() {\n\tint *y = malloc();\n\t*y = 2;\n\thold(y);\n\tint w = *y;\n}\n")
	relWrites := b.with("rel.mc", "void rel(int *p) { *p = 0; free(p); }\n")
	extra := b.with("extra.mc", "void extra(bool c) {\n\tint *e = malloc();\n\tif (c) { free(e); }\n}\n")
	swapped := b.with("pair.mc", "int two(int a) { return one(a) + 1; }\nint one(int a) { return a + 1; }\n")
	stashDefined := b.with("stash.mc", "void stash(int *q) { remove_file(q); }\n")
	sink2Keeps := b.with("sink2.mc", "void sink2(int *p) { use_ptr(p); }\n")
	sinkKeeps := b.with("sink.mc", "void sink(int *p) { use_ptr(p); }\n")
	otherHandsOver := b.with("other.mc", "void other() {\n\tint *y = malloc();\n\t*y = 2;\n\tlone(y);\n}\n")
	relEditedExtra := relEdited.with("extra.mc", "void extra(bool c) {\n\tint *e = malloc();\n\tif (c) { free(e); }\n}\n")

	return map[string][]replayStep{
		"resubmit": {
			step("cold", b, -1, 1, -1),
			step("identical", b, 0, 0, 0),
		},
		"source function body": {
			step("cold", b, -1, 1, -1),
			step("edit rel", relEdited, 1, 1, 6),
			step("revert", b, 1, 1, 6),
		},
		"leaf body": {
			step("cold", b, -1, 1, -1),
			// feed's task descended into down; feed itself is retained.
			step("down stops sinking", downNoSink, 1, 1, 6),
			step("down sinks again", b, 1, 1, 6),
		},
		"caller body": {
			step("cold", b, -1, 1, -1),
			// rel's task ascends through hold into top.
			step("hold passes a copy", holdCopies, 1, 1, 6),
			step("revert", b, 1, 1, 6),
		},
		"ascended-into body": {
			step("cold", b, -1, 1, -1),
			step("top stops using x", topNoUse, 1, 1, 8),
			step("top uses x again", b, 1, 1, 8),
		},
		"call added and removed": {
			step("cold", b, -1, 1, -1),
			// hold and rel are retained; hold's caller list grows.
			step("other calls hold", otherCalls, 1, 1, 8),
			step("other stops calling hold", b, 1, 1, 8),
		},
		"signature change": {
			step("cold", b, -1, 1, -1),
			// rel now writes *p: its connector signature moves, and the
			// change propagates to hold and top although their text did not.
			step("rel writes through p", relWrites, 3, 1, -1),
			step("revert", b, 3, 1, -1),
		},
		"functions added, removed, reordered": {
			step("cold", b, -1, 1, -1),
			step("add extra", extra, 1, 1, -1),
			step("remove extra", b, 0, 1, -1),
			step("swap one and two", swapped, 2, 0, -1),
		},
		"external becomes defined": {
			step("cold", b, -1, 1, -1),
			step("define stash", stashDefined, -1, 1, -1),
			step("undefine stash", b, -1, 1, -1),
		},
		"may-free flips": {
			step("cold", b, -1, 1, -1),
			// owner enters neither sink nor sink2; only the relation moves.
			step("sink2 stops freeing", sink2Keeps, 1, 1, 6),
			step("sink2 frees again", b, 1, 1, 6),
			step("sink stops freeing", sinkKeeps, 1, 1, 6),
		},
		"uncalled function gains a caller": {
			step("cold", b, -1, 1, -1),
			// The relation skips functions nobody calls; lone's vector must
			// exist by the time other's allocation asks for it.
			step("other hands y to lone", otherHandsOver, 1, 1, 6),
			step("other frees y itself", b, 1, 1, 6),
		},
		"checker set and depth": {
			step("cold", b, -1, 1, -1),
			{name: "two checkers", prog: b, checkers: []string{"use-after-free", "memory-leak"}, rebuilt: 0, ran: [2]int{0, 0}},
			{name: "depth 2", prog: b, depth: 2, rebuilt: 0, ran: [2]int{1, -1}},
			{name: "depth 2 again", prog: b, depth: 2, rebuilt: 0, ran: [2]int{0, 0}},
			{name: "default depth", prog: b, rebuilt: 0, ran: [2]int{1, -1}},
			{name: "leaf edit, one checker", prog: relEdited, checkers: []string{"double-free"}, rebuilt: 1, ran: [2]int{1, -1}},
			{name: "all again", prog: relEdited, rebuilt: 0, ran: [2]int{0, -1}},
		},
		// Whatever changed between two requests besides the sources, the
		// next one-function edit runs only what it can reach.
		"options between requests": {
			step("cold", b, -1, 1, -1),
			{name: "witness toggled", prog: b, flipWitness: true, rebuilt: 0, ran: [2]int{1, -1}},
			{name: "edit, witness still toggled", prog: relEdited, flipWitness: true, rebuilt: 1, ran: [2]int{1, 6}},
			{name: "witness back", prog: relEdited, rebuilt: 0, ran: [2]int{1, -1}},
			{name: "depth 3", prog: relEdited, depth: 3, rebuilt: 0, ran: [2]int{1, -1}},
			{name: "revert at depth 3", prog: b, depth: 3, rebuilt: 1, ran: [2]int{1, 6}},
			{name: "one checker", prog: b, checkers: []string{"use-after-free"}, rebuilt: 0, ran: [2]int{0, -1}},
			{name: "edit, one checker", prog: relEdited, checkers: []string{"use-after-free"}, rebuilt: 1, ran: [2]int{1, 6}},
			{name: "all checkers", prog: relEdited, rebuilt: 0, ran: [2]int{0, -1}},
			{name: "edit, all checkers", prog: b, rebuilt: 1, ran: [2]int{1, 6}},
			// A function added, then removed: the Layout moves twice.
			{name: "add extra", prog: relEditedExtra.with("rel.mc", b[0].Src), rebuilt: 1, ran: [2]int{1, -1}},
			{name: "remove extra", prog: b, rebuilt: 0, ran: [2]int{1, -1}},
			{name: "edit after the Layout moved", prog: relEdited, rebuilt: 1, ran: [2]int{1, 6}},
		},
	}
}

// crossCheckReplays makes every CheckAll for the rest of the test hold the
// tasks it replays unchecked against the program too, and fail the test for
// each whose recorded result would not have been replayed.
func crossCheckReplays(t *testing.T) {
	t.Cleanup(detect.CrossCheckReplays(func(task string) { t.Error(task) }))
}

func specsFor(t *testing.T, names []string) []*checkers.Spec {
	t.Helper()
	if len(names) == 0 {
		return checkers.All()
	}
	var specs []*checkers.Spec
	for _, n := range names {
		sp, ok := checkers.ByName(n)
		if !ok {
			t.Fatalf("unknown checker %q", n)
		}
		specs = append(specs, sp)
	}
	return specs
}

// callersByName renders a call-site index without pointers, so that the
// session's incrementally maintained index can be held against the one a
// from-scratch build computes.
func callersByName(prog *detect.Program) map[string][]string {
	out := make(map[string][]string)
	for pos := range prog.Module.NumFuncs() {
		callee := prog.Module.Func(pos)
		for _, cs := range prog.Callers(callee) {
			out[callee.Name] = append(out[callee.Name], fmt.Sprintf("%s#%d@%s", cs.Fn.Name, cs.Instr, prog.SEG(cs.Fn).Position(cs.Instr)))
		}
	}
	return out
}

// checkReplayStep runs one request on the session and on a from-scratch
// build and requires them to agree.
func checkReplayStep(t *testing.T, tag string, sess *core.Session, units []minic.NamedSource, specNames []string, opts detect.Options) (*core.Analysis, detect.Results) {
	t.Helper()
	warm, err := sess.Update(units)
	if err != nil {
		t.Fatalf("%s: session: %v", tag, err)
	}
	cold, err := core.BuildFromSource(units, core.BuildOptions{Workers: opts.Workers})
	if err != nil {
		t.Fatalf("%s: cold build: %v", tag, err)
	}
	wres := warm.CheckAll(specsFor(t, specNames), opts)
	cres := cold.CheckAll(specsFor(t, specNames), opts)
	if cres.TasksReplayed != 0 {
		t.Fatalf("%s: a one-shot build replayed %d tasks", tag, cres.TasksReplayed)
	}
	if wb, cb := reportsJSON(t, wres.Reports), reportsJSON(t, cres.Reports); string(wb) != string(cb) {
		t.Fatalf("%s: reports differ\nsession: %s\ncold:    %s", tag, wb, cb)
	}
	wn, cn := normalizeResults(wres), normalizeResults(cres)
	if !reflect.DeepEqual(wn.Checkers, cn.Checkers) {
		t.Fatalf("%s: stats differ\nsession: %+v\ncold:    %+v", tag, wn.Checkers, cn.Checkers)
	}
	if w, c := callersByName(warm.Prog), callersByName(cold.Prog); !reflect.DeepEqual(w, c) {
		t.Fatalf("%s: call-site index differs\nsession: %v\ncold:    %v", tag, w, c)
	}
	return warm, wres
}

func TestReplayEquivalence(t *testing.T) {
	scripts := replayScripts()
	names := make([]string, 0, len(scripts))
	for name := range scripts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			for _, witness := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/witness=%t", name, workers, witness), func(t *testing.T) {
					crossCheckReplays(t)
					sess := core.NewSession(core.BuildOptions{Workers: workers})
					for _, st := range scripts[name] {
						opts := detect.Options{Workers: workers, Witness: witness != st.flipWitness, MaxCallDepth: st.depth}
						a, res := checkReplayStep(t, st.name, sess, st.prog, st.checkers, opts)
						if got := a.Artifacts.Misses + a.Artifacts.Invalidated; st.rebuilt >= 0 && got != st.rebuilt {
							t.Errorf("%s: %d functions rebuilt, want %d (%+v)", st.name, got, st.rebuilt, a.Artifacts)
						}
						if res.TasksRun < st.ran[0] || (st.ran[1] >= 0 && res.TasksRun > st.ran[1]) {
							t.Errorf("%s: %d tasks ran (%d replayed), want %d..%d", st.name, res.TasksRun, res.TasksReplayed, st.ran[0], st.ran[1])
						}
					}
				})
			}
		}
	}
}

// ladder is the benchmark's synthetic subject at the given size (600 is the
// serve-edit workload's r20k).
func ladder(kloc int, seed int64) []minic.NamedSource {
	g := workload.Generate(
		workload.Subject{Name: "ladder", Origin: "synthetic", PaperKLoC: kloc, TrueBugs: 6, OpaqueTraps: 4},
		workload.GenOptions{Scale: 30, Taint: true, Seed: seed})
	return append([]minic.NamedSource(nil), g.Units...)
}

var (
	funcOpener = regexp.MustCompile(`(?m)^[a-z]+ \*?([a-z_0-9]+)\([^)]*\) \{`)
	intFunc    = regexp.MustCompile(`(?m)^int ([a-z]+[0-9]+)\(int [a-z]+\) \{`)
	freeStmt   = regexp.MustCompile(`free\([a-z]+\);`)
	sinkCall   = regexp.MustCompile(`(open_file|remove_file|sendto_net|send_data)\(`)
)

// mutate applies one random single-function mutation: a dropped free, a
// dropped sink, a new call to some int→int function of the program, or a new
// local — on the opening line, which keeps every line where it is so that
// only the mutated function is dirty, or on a line of its own, which moves
// every later function of the unit (and the lines its reports name).
func mutate(rng *rand.Rand, units []minic.NamedSource, n int) string {
	u := rng.Intn(len(units))
	src := units[u].Src
	openers := funcOpener.FindAllStringSubmatchIndex(src, -1)
	m := openers[rng.Intn(len(openers))]
	fn, bodyAt := src[m[2]:m[3]], m[1]
	bodyEnd := bodyAt + strings.Index(src[bodyAt:], "}\n")
	replaceIn := func(re *regexp.Regexp, with string) bool {
		loc := re.FindStringIndex(src[bodyAt:bodyEnd])
		if loc != nil {
			units[u].Src = src[:bodyAt+loc[0]] + with + src[bodyAt+loc[1]:]
		}
		return loc != nil
	}
	insert := func(stmt string) { units[u].Src = src[:bodyAt] + stmt + src[bodyAt:] }
	switch rng.Intn(5) {
	case 0:
		if replaceIn(freeStmt, "use_val(0);") {
			return fn + ": drop a free"
		}
	case 1:
		if replaceIn(sinkCall, "use_ptr(") {
			return fn + ": drop a sink"
		}
	case 2:
		callees := intFunc.FindAllStringSubmatch(units[rng.Intn(len(units))].Src, -1)
		if len(callees) > 0 {
			callee := callees[rng.Intn(len(callees))][1]
			insert(fmt.Sprintf(" int zz%d = %s(%d);", n, callee, n))
			return fn + ": call " + callee
		}
	case 3:
		insert(fmt.Sprintf("\n\tint zz%d = %d;", n, n))
		return fn + ": new local on a new line"
	}
	insert(fmt.Sprintf(" int zz%d = %d;", n, n))
	return fn + ": new local"
}

// TestReplayRandomEdits drives a session through seeded random
// single-function mutations of a generated ladder, holding every request
// against a from-scratch build.
func TestReplayRandomEdits(t *testing.T) {
	crossCheckReplays(t)
	const seed = 20240607
	rng := rand.New(rand.NewSource(seed))
	units := ladder(60, seed)
	workers := runtime.GOMAXPROCS(0)
	sess := core.NewSession(core.BuildOptions{Workers: workers})
	opts := detect.Options{Workers: workers, Witness: true}
	checkReplayStep(t, "cold", sess, units, nil, opts)
	replayed := 0
	for i := 0; i < 30; i++ {
		what := mutate(rng, units, i)
		_, res := checkReplayStep(t, fmt.Sprintf("mutation %d (%s)", i, what), sess, units, nil, opts)
		replayed += res.TasksReplayed
	}
	if replayed == 0 {
		t.Fatal("no task was ever replayed")
	}
}

// TestReplayTaskFloors pins how little detection an incremental request
// executes on the serve-edit workload's program: nothing for an identical
// resubmit, and at most 2% of the tasks after a one-function driver edit —
// and how few recorded results it holds against the program to find that
// out: none for the resubmit, and for the edit the tasks it runs plus at most
// 2% of the plan.
func TestReplayTaskFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 20k-line ladder")
	}
	units := ladder(600, 1)
	workers := runtime.GOMAXPROCS(0)
	sess := core.NewSession(core.BuildOptions{Workers: workers})
	// checks is what the last request's registry counted as
	// detect.replay_checks.
	var checks int64
	check := func(what string) detect.Results {
		a, err := sess.Update(units)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		rec := obs.New()
		res := a.CheckAll(checkers.All(), detect.Options{Workers: workers, Obs: rec})
		var ok bool
		if checks, ok = rec.Snapshot().Counters["detect.replay_checks"]; !ok {
			t.Fatalf("%s: no detect.replay_checks counter", what)
		}
		return res
	}
	cold := check("cold")
	total := cold.TasksRun
	if cold.TasksReplayed != 0 || total == 0 {
		t.Fatalf("cold request: %d run, %d replayed", cold.TasksRun, cold.TasksReplayed)
	}
	want := reportsJSON(t, cold.Reports)
	for i := 0; i < 3; i++ {
		u := i % len(units)
		at := strings.LastIndex(units[u].Src, "\nvoid drive_")
		cut := at + 1 + strings.IndexByte(units[u].Src[at+1:], '\n') + 1
		units[u].Src = units[u].Src[:cut] + "\tseed = seed + 1;\n" + units[u].Src[cut:]

		edit := check("edit")
		if checks > int64(edit.TasksRun+total/50) {
			t.Errorf("edit %d held %d recorded results against the program to run %d of %d tasks, want at most %d", i, checks, edit.TasksRun, total, edit.TasksRun+total/50)
		}
		if edit.TasksRun+edit.TasksReplayed != total {
			t.Fatalf("edit %d: %d+%d tasks, want %d", i, edit.TasksRun, edit.TasksReplayed, total)
		}
		if edit.TasksRun == 0 || edit.TasksRun*50 > total {
			t.Errorf("edit %d executed %d of %d tasks, want 1..2%%", i, edit.TasksRun, total)
		}
		again := check("resubmit")
		if checks != 0 {
			t.Errorf("resubmit %d held %d recorded results against the program, want 0", i, checks)
		}
		if again.TasksRun != 0 || again.TasksReplayed != total {
			t.Errorf("resubmit %d executed %d tasks (%d replayed of %d), want 0", i, again.TasksRun, again.TasksReplayed, total)
		}
		for what, res := range map[string]detect.Results{"edit": edit, "resubmit": again} {
			if got := reportsJSON(t, res.Reports); string(got) != string(want) {
				t.Fatalf("%s %d: reports changed", what, i)
			}
		}
	}
}

// TestReplayTrustsOnlyTheSessionsLastRun: a Program replays without holding
// its tasks against the program only while no other Program of the session
// has run since its own last run — here the session's next Program, of
// another Layout, runs every task again and overwrites the records a twin of
// the first Program shares.
func TestReplayTrustsOnlyTheSessionsLastRun(t *testing.T) {
	crossCheckReplays(t)
	opts := detect.Options{Workers: 1}
	sess := core.NewSession(core.BuildOptions{Workers: 1})
	first, _ := checkReplayStep(t, "cold", sess, replayBase, nil, opts)
	twin := detect.NewProgramFrom(first.Prog, first.Prog.Module, first.SEGs, nil)
	extra := replayBase.with("extra.mc", "void extra(bool c) {\n\tint *e = malloc();\n\tif (c) { free(e); }\n}\n")
	checkReplayStep(t, "add extra", sess, extra, nil, opts)

	res := detect.CheckAll(twin, checkers.All(), opts)
	if res.ReplayChecks != res.TasksRun+res.TasksReplayed {
		t.Errorf("the twin held %d of %d tasks against the program, want all", res.ReplayChecks, res.TasksRun+res.TasksReplayed)
	}
	cold, err := core.BuildFromSource(replayBase, core.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportsJSON(t, res.Reports), reportsJSON(t, cold.CheckAll(checkers.All(), opts).Reports); string(got) != string(want) {
		t.Fatalf("reports differ\ntwin: %s\ncold: %s", got, want)
	}
}

// TestReplayAcrossUncheckedUpdates: the task plan and the per-function
// preparation are carried from Program to Program and brought up to date by
// the next CheckAll, however many Updates went unchecked in between and
// whichever checkers ran last.
func TestReplayAcrossUncheckedUpdates(t *testing.T) {
	b := replayBase
	relEdited := b.with("rel.mc", "void rel(int *p) { int z = 0; free(p); }\n")
	both := relEdited.with("top.mc", "void top(bool c) {\n\tint *x = malloc();\n\t*x = 1;\n\thold(x);\n\tif (c) { use_val(1); }\n}\n")
	topOnly := both.with("rel.mc", b[0].Src)
	crossCheckReplays(t)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		opts := detect.Options{Workers: workers}
		sess := core.NewSession(core.BuildOptions{Workers: workers})
		_, cold := checkReplayStep(t, "cold", sess, b, nil, opts)
		for _, p := range []program{relEdited, both} {
			if _, err := sess.Update(p); err != nil {
				t.Fatal(err)
			}
		}
		_, res := checkReplayStep(t, "after three updates", sess, topOnly, nil, opts)
		if res.TasksRun == 0 || res.TasksRun >= cold.TasksRun {
			t.Errorf("workers=%d: %d tasks ran after unchecked updates (%d cold), want a few", workers, res.TasksRun, cold.TasksRun)
		}
		checkReplayStep(t, "one checker", sess, topOnly, []string{"memory-leak"}, opts)
		if _, err := sess.Update(both); err != nil {
			t.Fatal(err)
		}
		_, res = checkReplayStep(t, "all checkers after one", sess, b, nil, opts)
		if res.TasksRun+res.TasksReplayed != cold.TasksRun {
			t.Errorf("workers=%d: %d+%d tasks, want %d", workers, res.TasksRun, res.TasksReplayed, cold.TasksRun)
		}
	}
}
