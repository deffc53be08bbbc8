package core_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/workload"
)

// normalizeResults strips the fields that legitimately differ between a
// cold and a cache-warm run: wall clock, worker accounting, and the shared
// summary-cache counters (which accumulate across CheckAll calls on a
// persistent session). Everything else — reports, witnesses, per-checker
// effort counters including the solved/prefiltered split — must be
// byte-identical.
func normalizeResults(res detect.Results) detect.Results {
	res.Wall = 0
	res.SummaryHits, res.SummaryMisses, res.SummaryCapHits = 0, 0, 0
	res.TasksRun, res.TasksReplayed, res.ReplayChecks = 0, 0, 0
	res.WorkerStats = nil
	for i := range res.Checkers {
		res.Checkers[i].Stats.SMTTime = 0
		res.Checkers[i].Stats.SummaryCapHits = 0
	}
	return res
}

// reportsJSON renders reports through the exported JSON schema, the format
// the equivalence guarantee is stated in.
func reportsJSON(t *testing.T, rs []detect.Report) []byte {
	t.Helper()
	js := make([]detect.JSONReport, len(rs))
	for i, r := range rs {
		js[i] = r.ToJSON()
	}
	b, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func summaryFPs(a *core.Analysis) map[string]string {
	out := make(map[string]string, a.Module.NumFuncs())
	for pos := range a.Module.NumFuncs() {
		f := a.Module.Func(pos)
		out[f.Name] = a.Summaries.At(f.ID).Fingerprint()
	}
	return out
}

// editUnit inserts a statement right after the unit's driver-function
// opening line, producing a body edit that leaves the function's Mod/Ref
// summary and connector signature unchanged.
func editUnit(t *testing.T, u minic.NamedSource) minic.NamedSource {
	t.Helper()
	lines := strings.Split(u.Src, "\n")
	for i, ln := range lines {
		if strings.HasPrefix(ln, "void drive_") {
			lines = append(lines[:i+1], append([]string{"\tseed = seed + 1;"}, lines[i+1:]...)...)
			return minic.NamedSource{Name: u.Name, Src: strings.Join(lines, "\n")}
		}
	}
	t.Fatalf("no driver function in %s", u.Name)
	return u
}

func checkEquivalent(t *testing.T, tag string, warm, cold *core.Analysis, workers int) {
	t.Helper()
	specs := checkers.All()
	opts := detect.Options{Workers: workers}
	wres := normalizeResults(warm.CheckAll(specs, opts))
	cres := normalizeResults(cold.CheckAll(specs, opts))

	wb, cb := reportsJSON(t, wres.Reports), reportsJSON(t, cres.Reports)
	if string(wb) != string(cb) {
		t.Fatalf("%s: reports differ\nwarm: %s\ncold: %s", tag, wb, cb)
	}
	wres.Reports, cres.Reports = nil, nil
	if !reflect.DeepEqual(wres, cres) {
		t.Fatalf("%s: stats differ\nwarm: %+v\ncold: %+v", tag, wres, cres)
	}
	if warm.Sizes != cold.Sizes {
		t.Fatalf("%s: sizes differ: %+v vs %+v", tag, warm.Sizes, cold.Sizes)
	}
	if warm.PTAStats != cold.PTAStats {
		t.Fatalf("%s: PTA stats differ: %+v vs %+v", tag, warm.PTAStats, cold.PTAStats)
	}
	if !reflect.DeepEqual(summaryFPs(warm), summaryFPs(cold)) {
		t.Fatalf("%s: Mod/Ref summaries differ", tag)
	}
}

// TestSessionEquivalenceSingleEdit is the incremental-build contract: after
// editing one function in one unit, a warm Session.Update must produce
// reports, witnesses, and stats byte-identical to a from-scratch build of
// the edited program — at one worker and at GOMAXPROCS.
func TestSessionEquivalenceSingleEdit(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 140, Taint: true})
	if len(gen.Units) < 2 {
		t.Fatalf("workload has %d units; want multi-unit", len(gen.Units))
	}

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for edited := range gen.Units {
			tag := fmt.Sprintf("workers=%d unit=%s", workers, gen.Units[edited].Name)

			sess := core.NewSession(core.BuildOptions{Workers: workers})
			if _, err := sess.Update(gen.Units); err != nil {
				t.Fatal(err)
			}
			// Warm the detection caches too: persistence must not leak
			// into the post-edit results.
			sess.Analysis().CheckAll(checkers.All(), detect.Options{Workers: workers})

			units := append([]minic.NamedSource(nil), gen.Units...)
			units[edited] = editUnit(t, units[edited])

			warm, err := sess.Update(units)
			if err != nil {
				t.Fatal(err)
			}
			st := sess.ArtifactStats()
			if st.Hits == 0 || st.Invalidated == 0 {
				t.Fatalf("%s: no incremental reuse: %+v", tag, st)
			}
			if rebuilt := st.Misses + st.Invalidated; rebuilt >= warm.Sizes.Functions {
				t.Fatalf("%s: whole program rebuilt (%d of %d)", tag, rebuilt, warm.Sizes.Functions)
			}

			cold, err := core.BuildFromSource(units, core.BuildOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalent(t, tag, warm, cold, workers)
		}
	}
}

const firewallA = `
int gg;
void top(int *p) { mid(p); }
`
const firewallB = `
void mid(int *p) { w(p); }
`

func firewallUnits(wSrc string) []minic.NamedSource {
	return []minic.NamedSource{
		{Name: "a.mc", Src: firewallA},
		{Name: "b.mc", Src: firewallB},
		{Name: "c.mc", Src: wSrc},
	}
}

// TestSessionFirewallEarlyCutoff exercises the two-level invalidation rule
// on a top → mid → w chain: a body edit of w that changes its Mod/Ref
// summary but not its connector signature rebuilds only w (the summaries of
// mid and top are recomputed, their artifacts retained), while an edit that
// changes w's signature rebuilds the whole chain.
func TestSessionFirewallEarlyCutoff(t *testing.T) {
	sess := core.NewSession(core.BuildOptions{})
	a, err := sess.Update(firewallUnits(`void w(int *p) { *p = 1; }`))
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.ArtifactStats(); st.Misses != 3 || st.Hits != 0 || st.Invalidated != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	if fp := summaryFPs(a)["mid"]; strings.Contains(fp, "R") {
		t.Fatalf("mid unexpectedly refs: %s", fp)
	}

	// Body edit: w now also reads *p. Summary gains a Ref path at the
	// same depth, the aux specs stay identical → firewall holds.
	a, err = sess.Update(firewallUnits(`void w(int *p) { int t = *p; *p = t + 1; }`))
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.ArtifactStats(); st.Invalidated != 1 || st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("firewall stats = %+v (want 1 invalidated, 2 hits)", st)
	}
	// The retained callers' summaries must still reflect the new callee
	// summary (summary changes propagate even when artifacts are kept).
	if fp := summaryFPs(a)["mid"]; !strings.Contains(fp, "R") {
		t.Fatalf("mid summary not repropagated: %s", fp)
	}

	// Signature edit: w now also modifies the global — new aux specs, so
	// the invalidation wave reaches every transitive caller.
	_, err = sess.Update(firewallUnits(`void w(int *p) { *p = 1; gg = 2; }`))
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.ArtifactStats(); st.Invalidated != 3 || st.Hits != 0 {
		t.Fatalf("signature-change stats = %+v (want 3 invalidated)", st)
	}
}

func TestSessionDuplicateFunctionRejected(t *testing.T) {
	units := []minic.NamedSource{
		{Name: "a.mc", Src: "int f() { return 1; }"},
		{Name: "b.mc", Src: "int f() { return 2; }"},
	}
	_, err := core.BuildFromSource(units, core.BuildOptions{})
	if err == nil || !strings.Contains(err.Error(), "duplicate function") {
		t.Fatalf("err = %v", err)
	}
}

// TestSessionUndefinedCallee pins the external-call model: calling a
// function with no definition is not an error (checkers model externals by
// name), and a later update that defines the callee invalidates the caller.
func TestSessionUndefinedCallee(t *testing.T) {
	caller := minic.NamedSource{Name: "a.mc", Src: "int use(int *p) { return helper2(p); }"}
	sess := core.NewSession(core.BuildOptions{})
	if _, err := sess.Update([]minic.NamedSource{caller}); err != nil {
		t.Fatalf("extern call rejected: %v", err)
	}
	if st := sess.ArtifactStats(); st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	_, err := sess.Update([]minic.NamedSource{
		caller,
		{Name: "b.mc", Src: "int helper2(int *p) { return *p; }"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.ArtifactStats(); st.Invalidated != 1 || st.Misses != 1 {
		t.Fatalf("extern→defined stats = %+v (want caller invalidated, callee missed)", st)
	}
}

// TestSessionParseErrorNoPartialState: a parse error in a later unit fails
// the whole Update and leaves the session exactly as before — the next
// Update behaves as if the failed one never happened.
func TestSessionParseErrorNoPartialState(t *testing.T) {
	good := []minic.NamedSource{
		{Name: "a.mc", Src: "void w(int *p) { *p = 1; }"},
		{Name: "b.mc", Src: "void mid(int *p) { w(p); }"},
	}
	sess := core.NewSession(core.BuildOptions{})
	first, err := sess.Update(good)
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]minic.NamedSource(nil), good...)
	bad = append(bad, minic.NamedSource{Name: "c.mc", Src: "void broken( {"})
	if _, err := sess.Update(bad); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Fatalf("err = %v", err)
	}
	if sess.Analysis() != first {
		t.Fatal("failed update replaced the committed analysis")
	}

	fixed := append([]minic.NamedSource(nil), good...)
	fixed = append(fixed, minic.NamedSource{Name: "c.mc", Src: "void ok(int *p) { mid(p); }"})
	warm, err := sess.Update(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.ArtifactStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("post-failure stats = %+v (want 2 hits, 1 miss)", st)
	}
	cold, err := core.BuildFromSource(fixed, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, "post-failure", warm, cold, 1)

	// The same for a parse made on demand, inside the wavefront: a unit the
	// session knows by stored facts is parsed when a callee's edit makes one
	// of its functions due for lowering. Its bytes parsed when the facts
	// were derived, so only a store that files the facts under other bytes
	// gets here — which is what this one is made to do.
	st := openDisk(t, t.TempDir())
	defer st.Close()
	if _, err := core.NewSession(core.BuildOptions{Store: st}).Update(good); err != nil {
		t.Fatal(err)
	}
	broken := minic.NamedSource{Name: "b.mc", Src: "void mid(int *p) { w(p) "}
	if err := core.RekeyUnitFacts(st, broken.Name, broken.Src); err != nil {
		t.Fatal(err)
	}
	edited := minic.NamedSource{Name: "a.mc", Src: "void w(int *p) { int t = *p; *p = t + 1; }"}
	sess = core.NewSession(core.BuildOptions{Store: st})
	if _, err := sess.Update([]minic.NamedSource{edited, broken}); err == nil || !strings.Contains(err.Error(), "parse: parsing b.mc") {
		t.Fatalf("err = %v", err)
	}
	if sess.Analysis() != nil || sess.ArtifactCount() != 0 || sess.UnitCount() != 0 {
		t.Fatal("failed first update left state in the session")
	}
	after := []minic.NamedSource{edited, good[1]}
	warm, err = sess.Update(after)
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.ArtifactStats(); st.StoreHits != 2 || st.Hits != 1 || st.Misses != 1 || st.UnitsParsed != 2 || st.UnitsLoaded != 0 {
		t.Fatalf("post-failure stats = %+v (want mid loaded and kept, w rebuilt, both units parsed)", st)
	}
	cold, err = core.BuildFromSource(after, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, "post-failure, on demand", warm, cold, 1)
}

func TestSessionRepeatedUpdateAllHits(t *testing.T) {
	gen := workload.Generate(workload.Subjects[0], workload.GenOptions{})
	sess := core.NewSession(core.BuildOptions{})
	first, err := sess.Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	if first.Artifacts.Misses != first.Sizes.Functions {
		t.Fatalf("cold build artifacts = %+v for %d functions", first.Artifacts, first.Sizes.Functions)
	}
	second, err := sess.Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.ArtifactStats()
	if st.Hits != first.Sizes.Functions || st.Misses != 0 || st.Invalidated != 0 {
		t.Fatalf("warm stats = %+v", st)
	}
	if second.Sizes != first.Sizes {
		t.Fatalf("sizes drifted: %+v vs %+v", second.Sizes, first.Sizes)
	}
}

func TestSessionObsArtifactCounters(t *testing.T) {
	rec := obs.New()
	units := []minic.NamedSource{
		{Name: "a.mc", Src: "void w(int *p) { *p = 1; }"},
		{Name: "b.mc", Src: "void mid(int *p) { w(p); }"},
	}
	sess := core.NewSession(core.BuildOptions{Obs: rec})
	if _, err := sess.Update(units); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("build.artifact.misses").Value(); got != 2 {
		t.Fatalf("misses counter = %d", got)
	}
	units[0].Src = "void w(int *p) { *p = 2; }"
	if _, err := sess.Update(units); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("build.artifact.hits").Value(); got != 1 {
		t.Fatalf("hits counter = %d", got)
	}
	if got := rec.Counter("build.artifact.invalidated").Value(); got != 1 {
		t.Fatalf("invalidated counter = %d", got)
	}
}
