package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tenant"
)

// serveEdit is the service user: an editor or CI client that posts the
// whole program after every change and waits for the reply, hence a
// closed loop. nproc clients each own one project; a cycle is an edit
// (one function dirty) followed by a byte-identical resubmit. It
// exercises what batch bypasses: request decode/encode, tenant
// acquisition, Session.Update's hit path and detection on sticky caches.
type serveEdit struct {
	srv      *serverProc
	client   *http.Client
	projects []*project
}

// project is one client's program and what the server said about it.
type project struct {
	ID      string
	Gen     *subject
	Units   []minic.NamedSource // current sources, edits applied
	Encoded []string            // each unit as a JSON object, kept in step with Units
	Edits   int
	Reports []byte // compact "reports" of the first response; every later one must equal it
}

func (s *serveEdit) Name() string { return "serve-edit" }

// calEvery is how often the serve-edit loop stops for a calibration break.
// While one client waits for the break the other finishes its cycle with
// the server to itself, which is not the contended case being measured;
// so breaks are rare (one cycle in twelve) and take twice the samples.
const calEvery = 5 * time.Second

func newProject(id string, g *subject) (*project, error) {
	p := &project{ID: id, Gen: g, Units: append([]minic.NamedSource(nil), g.Units...)}
	p.Encoded = make([]string, len(p.Units))
	for i := range p.Units {
		if err := p.encode(i); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *project) encode(i int) error {
	data, err := json.Marshal(server.UnitJSON{Name: p.Units[i].Name, Src: p.Units[i].Src})
	p.Encoded[i] = string(data)
	return err
}

// body assembles the request from the per-unit encodings, so an edit
// re-encodes one unit and the generator stays cheap next to the server.
func (p *project) body() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"project":%q,"checkers":["all"],"units":[`, p.ID)
	for i, u := range p.Encoded {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(u)
	}
	b.WriteString("]}")
	return b.Bytes()
}

func (p *project) edit() error {
	u, err := applyEdit(p.Units, p.Edits)
	if err != nil {
		return err
	}
	p.Edits++
	return p.encode(u)
}

func (s *serveEdit) Setup(e *env) error {
	s.projects = nil
	for c := 0; c < e.Nproc; c++ {
		g, err := newSubject(e, e.Sizes.Serve, e.Seed+int64(c)*9973)
		if err != nil {
			return err
		}
		p, err := newProject(fmt.Sprintf("p%d", c), g)
		if err != nil {
			return err
		}
		s.projects = append(s.projects, p)
	}
	var err error
	if s.srv, err = startServer(e.Pinpoint, e.Nproc); err != nil {
		return err
	}
	s.client = &http.Client{
		Timeout:   childTimeout,
		Transport: &http.Transport{MaxConnsPerHost: e.Nproc, MaxIdleConnsPerHost: e.Nproc},
	}
	// Warm-up: each project's cold request, so the timed loop sees only
	// the incremental path.
	for _, p := range s.projects {
		var t tally
		if s.post(p, &t, "warm-up"); t.Failed+t.Wrong > 0 {
			return fmt.Errorf("warm-up request failed: %v", t.Notes)
		}
	}
	return nil
}

func (s *serveEdit) Teardown() {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// analyzeReply is the part of the response the benchmark reads.
type analyzeReply struct {
	Reports json.RawMessage   `json:"reports"`
	Timing  server.TimingJSON `json:"timing"`
}

// post sends the project's current sources and returns the client-side
// latency and the server's timing block. The clock stops when the body
// is read; checking the reply comes after.
func (s *serveEdit) post(p *project, t *tally, what string) (latency time.Duration, tm server.TimingJSON) {
	body := p.body()
	t.Attempted++
	t0 := time.Now()
	resp, err := s.client.Post(s.srv.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.fail("%s %s: %v", p.ID, what, err)
		return 0, tm
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.fail("%s %s: status %d, read error %v: %.200s", p.ID, what, resp.StatusCode, err, data)
		return latency, tm
	}
	var reply analyzeReply
	if err := json.Unmarshal(data, &reply); err != nil {
		t.fail("%s %s: reply is not JSON: %v", p.ID, what, err)
		return latency, tm
	}
	reports, err := compactJSON(reply.Reports)
	switch {
	case err != nil:
		t.fail("%s %s: reports: %v", p.ID, what, err)
	case p.Reports == nil:
		p.Reports = reports
	case !bytes.Equal(reports, p.Reports):
		t.wrong(1, "%s %s: reports differ from the project's first response", p.ID, what)
	}
	return latency, reply.Timing
}

// reqSample is one timed request.
type reqSample struct {
	Latency time.Duration
	Timing  server.TimingJSON
}

// loop runs the closed loop for the given time (at least minCycles per
// client) and returns the edit and resubmit samples and the window wall.
func (s *serveEdit) loop(e *env, t *tally, seconds float64, cal *calibrator, tr *tracer, parent int) (edits, resubmits []reqSample, wall time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Calibration breaks: the kernel must not share the cores with a
	// request being timed, so every calEvery one client stops the loop —
	// clients hold pause shared for a cycle, the calibrating one takes it
	// exclusively, which waits for the others' cycles to end.
	var pause sync.RWMutex
	var lastCal time.Time // guarded by mu
	calDue := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return cal != nil && time.Since(lastCal) >= calEvery
	}
	start := time.Now()
	for _, p := range s.projects {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine tally
			var ed, re []reqSample
			for pace := (rounds{min: e.Sizes.MinRounds, seconds: seconds}); pace.next(); {
				if calDue() {
					pause.Lock()
					if calDue() {
						if err := cal.sampleFresh(2 * e.Sizes.CalPerOp); err != nil {
							mine.fail("%v", err)
						}
						mu.Lock()
						lastCal = time.Now()
						mu.Unlock()
					}
					pause.Unlock()
				}
				pause.RLock()
				if err := p.edit(); err != nil {
					mine.fail("%v", err)
					pause.RUnlock()
					break
				}
				sp := tr.begin(parent, "request.edit", p.ID)
				lat, tm := s.post(p, &mine, "edit")
				tr.end(sp)
				ed = append(ed, reqSample{lat, tm})
				sp = tr.begin(parent, "request.resubmit", p.ID)
				lat, tm = s.post(p, &mine, "resubmit")
				tr.end(sp)
				re = append(re, reqSample{lat, tm})
				pause.RUnlock()
			}
			mu.Lock()
			edits, resubmits = append(edits, ed...), append(resubmits, re...)
			t.merge(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return edits, resubmits, time.Since(start)
}

func latenciesMs(xs []reqSample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x.Latency) / 1e6
	}
	return out
}

func (s *serveEdit) Measure(e *env) (*outcome, error) {
	out := &outcome{E2E: make(map[string]float64)}
	cpu0, err := s.srv.cpuNow()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	cal := calibrator{self: e.Self}
	edits, resubmits, wall := s.loop(e, &out.tally, e.Seconds, &cal, nil, 0)
	out.Cal = cal.samples
	genCPU := selfCPU() - gen0
	cpu1, err := s.srv.cpuNow()
	if err != nil {
		return nil, err
	}
	s.verify(e, &out.tally)
	rss := s.srv.stop()
	s.srv = nil

	ed, re := latenciesMs(edits), latenciesMs(resubmits)
	printSamples(e.Out, "edit latency", "ms", ed)
	printSamples(e.Out, "resubmit latency", "ms", re)
	n := len(ed) + len(re)
	fmt.Fprintf(e.Out, "  req_per_s %.3f (%d requests in %.3f s, closed loop, %d clients)\n", float64(n)/wall.Seconds(), n, wall.Seconds(), len(s.projects))
	if len(ed) == 0 {
		return out, nil
	}
	out.E2E["wall_s"] = median(ed) / 1e3
	out.E2E["tail_wall_s"] = percentile(ed, 90) / 1e3
	out.E2E["alt_wall_s"] = median(re) / 1e3
	out.E2E["cpu_s"] = (cpu1 - cpu0) / float64(len(ed))
	out.E2E["peak_rss_mb"] = rss
	fmt.Fprintf(e.Out, "  resubmit p90 %.3f ms\n", percentile(re, 90))
	fmt.Fprintf(e.Out, "generator_cpu_share %.4f\n", genCPU/wall.Seconds())
	return out, nil
}

// verify holds what the server said against references it did not
// produce: the batch CLI on the pristine and on the final edited sources
// (the edits move no reported line, so both must print the served
// reports), and the generator's ground truth.
func (s *serveEdit) verify(e *env, t *tally) {
	for _, p := range s.projects {
		fmt.Fprintf(e.Out, "project %s: %s, %d edits\n", p.ID, p.Gen, p.Edits)
		for _, v := range []struct {
			what  string
			units []minic.NamedSource
		}{{"pristine", p.Gen.Units}, {"edited", p.Units}} {
			dir := filepath.Join(e.Work, "serve", p.ID, v.what)
			files, err := writeUnits(dir, v.units)
			if err != nil {
				t.fail("%v", err)
				continue
			}
			res, err := runCLI(dir, e.Pinpoint, cliArgs(e.Nproc, files)...)
			os.RemoveAll(dir)
			t.Attempted++
			if err != nil {
				t.fail("%s %s: CLI reference run: %v", p.ID, v.what, err)
				continue
			}
			ref, err := compactJSON(res.Stdout)
			if err != nil || !bytes.Equal(ref, p.Reports) {
				t.wrong(1, "%s: served reports differ from the batch CLI's on the %s sources", p.ID, v.what)
			}
			if v.what == "pristine" {
				verifyCLI(e, t, p.ID, res.Stdout, &p.Gen.Truth)
			}
		}
	}
}

// timingPhases are the top-level phases of the server's timing block;
// they partition its totalNs.
var timingPhases = []struct {
	name string
	ns   func(server.TimingJSON) int64
}{
	{"decode", func(t server.TimingJSON) int64 { return t.DecodeNs }},
	{"queue_wait", func(t server.TimingJSON) int64 { return t.QueueWaitNs }},
	{"session_wait", func(t server.TimingJSON) int64 { return t.SessionWaitNs }},
	{"build", func(t server.TimingJSON) int64 { return t.BuildNs }},
	{"detect", func(t server.TimingJSON) int64 { return t.DetectNs }},
	{"other", func(t server.TimingJSON) int64 { return t.OtherNs }},
}

// medianMs is the median of one timing phase over the samples, in ms.
func medianMs(xs []reqSample, ns func(server.TimingJSON) int64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = float64(ns(x.Timing)) / 1e6
	}
	return median(v)
}

// Trace runs the loop against the live server with a span per request, reads the server's own timing block for the server
// rows, and then walks the same path in process — Session.Update on an
// edit and on a no-op, the tenant manager, the handler without a socket —
// for the rows the server does not report.
func (s *serveEdit) Trace(e *env, tr *tracer) (map[string]float64, *tally, error) {
	t := &tally{}
	l := layerSet{}
	root := tr.begin(0, "workload", "serve-edit")
	defer tr.end(root)
	edits, resubmits, wall := s.loop(e, t, e.Seconds/3, nil, tr, root)
	s.verify(e, t)
	all := append(append([]reqSample(nil), edits...), resubmits...)
	if len(all) == 0 {
		return nil, t, fmt.Errorf("no request completed")
	}
	l["harness.trace_overhead_share"] = tr.overheadShare(wall)
	for _, ph := range timingPhases {
		l["server."+ph.name+"_ms"] = medianMs(all, ph.ns)
	}
	gaps := make([]float64, len(all))
	for i, x := range all {
		gaps[i] = float64(int64(x.Latency)-x.Timing.TotalNs) / float64(x.Latency)
	}
	l["server.gap_share"] = median(gaps)
	l["server.request_mb"] = float64(len(s.projects[0].body())) / (1 << 20)
	for _, c := range []struct {
		name string
		xs   []reqSample
	}{{"edit", edits}, {"resubmit", resubmits}} {
		fmt.Fprintf(e.Out, "  %-8s n=%d client %.3f ms =", c.name, len(c.xs), median(latenciesMs(c.xs)))
		for _, ph := range timingPhases {
			fmt.Fprintf(e.Out, " %s %.3f +", ph.name, medianMs(c.xs, ph.ns))
		}
		fmt.Fprintln(e.Out, " gap (medians, ms)")
	}

	if err := s.traceSession(e, tr, root, t, l); err != nil {
		return nil, t, err
	}
	if err := s.traceHandler(e, tr, root, t, l); err != nil {
		return nil, t, err
	}
	if err := probeTenant(e, tr, root, l, s.projects[0].Gen.Units); err != nil {
		return nil, t, err
	}
	return l, t, nil
}

// traceSession replays one client's cycle on a core.Session held by the
// benchmark: cold Update, then edits and no-op Updates, each followed by
// CheckAll, at one worker.
func (s *serveEdit) traceSession(e *env, tr *tracer, parent int, t *tally, l layerSet) error {
	g := s.projects[0].Gen
	units := append([]minic.NamedSource(nil), g.Units...)
	check := func(a *core.Analysis, op string) ([]byte, detect.Results) {
		sp := tr.begin(parent, op, "")
		res := a.CheckAll(checkers.All(), detect.Options{Workers: 1})
		tr.end(sp)
		return reportsJSON(res.Reports), res
	}
	update := func(sess *core.Session, op string) (*core.Analysis, time.Duration, error) {
		sp := tr.begin(parent, op, "")
		t0 := time.Now()
		a, err := sess.Update(units)
		d := time.Since(t0)
		tr.end(sp)
		return a, d, err
	}

	sp := tr.begin(parent, "minic.parse", "")
	prog, err := minic.ParseProgram(units)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(parent, "minic.hash", "")
	hashAll(units, prog)
	tr.end(sp)
	l["minic.hash_s"] = tr.busy("minic.hash")

	sp = tr.begin(parent, "core.NewSession", "")
	sess := core.NewSession(core.BuildOptions{Workers: 1})
	tr.end(sp)
	a, d, err := update(sess, "core.update.cold")
	if err != nil {
		return err
	}
	l["core.build_s"] = d.Seconds()
	l.addTimings(a.Timings)
	l.setSizes(a.Sizes, a.PTAStats)
	ref, res := check(a, "detect.checkall")
	var cold detectTotals
	cold.add(res)
	l.setDetect(cold, res.Wall.Seconds())
	t.Attempted++
	verifyCLI(e, t, "session", ref, &g.Truth)

	var editS, noopS, recheckS, hitShare []float64
	for i := 0; i < max(e.Sizes.MinRounds, 5); i++ {
		if _, err := applyEdit(units, i); err != nil {
			return err
		}
		a, d, err := update(sess, "core.update.edit")
		if err != nil {
			return err
		}
		t.Attempted++
		if a.Artifacts.Invalidated != 1 || a.Artifacts.Misses != 0 {
			t.wrong(1, "edit %d dirtied %d functions (and %d new), want exactly 1", i, a.Artifacts.Invalidated, a.Artifacts.Misses)
		}
		editS = append(editS, d.Seconds())
		hitShare = append(hitShare, share(a.Artifacts.Hits, a.Sizes.Functions))
		if got, _ := check(a, "detect.checkall.edit"); !bytes.Equal(got, ref) {
			t.wrong(1, "reports changed after edit %d", i)
		}
		a, d, err = update(sess, "core.update.noop")
		if err != nil {
			return err
		}
		noopS = append(noopS, d.Seconds())
		got, res := check(a, "detect.recheck")
		recheckS = append(recheckS, res.Wall.Seconds())
		if !bytes.Equal(got, ref) {
			t.wrong(1, "reports changed on a no-op update after edit %d", i)
		}
	}
	l["core.update_edit_s"] = median(editS)
	l["core.update_noop_s"] = median(noopS)
	l["core.artifact_hit_share"] = median(hitShare)
	l["detect.recheck_s"] = median(recheckS)
	return nil
}

// traceHandler times the whole handler with no socket in the way: the
// cold request, then byte-identical resubmits.
func (s *serveEdit) traceHandler(e *env, tr *tracer, parent int, t *tally, l layerSet) error {
	h := server.New(server.Config{Workers: e.Nproc, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
	p, err := newProject("inproc", s.projects[0].Gen)
	if err != nil {
		return err
	}
	body := p.body()
	var ms []float64
	for i := 0; i < 1+max(e.Sizes.MinRounds, 5); i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		sp := tr.begin(parent, "server.handler", map[bool]string{true: "cold", false: "resubmit"}[i == 0])
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		tr.end(sp)
		t.Attempted++
		if rec.Code != http.StatusOK {
			t.fail("in-process handler: status %d", rec.Code)
			continue
		}
		if i > 0 {
			ms = append(ms, float64(d)/1e6)
		}
	}
	l["server.handler_ms"] = median(ms)
	return nil
}

// probeTenant prices the tenant layer alone: acquiring a resident
// project, and taking one back in after eviction to a disk store.
func probeTenant(e *env, tr *tracer, parent int, l layerSet, units []minic.NamedSource) error {
	ctx := context.Background()
	m := tenant.NewManager(tenant.Config{Build: core.BuildOptions{Workers: 1}})
	var us []float64
	for i := 0; i < e.Sizes.ProbeN; i++ {
		t0 := time.Now()
		h, err := m.Acquire(ctx, "resident")
		if err != nil {
			return err
		}
		h.Release()
		us = append(us, float64(time.Since(t0))/1e3)
	}
	l["tenant.acquire_us"] = median(us)

	dir := filepath.Join(e.Work, "tenant-store")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		return err
	}
	defer st.Close()
	m = tenant.NewManager(tenant.Config{MaxResident: 1, Build: core.BuildOptions{Workers: 1, Store: st}})
	admit := func(project string, build bool) error {
		h, err := m.Acquire(ctx, project)
		if err != nil {
			return err
		}
		defer h.Release()
		if build {
			_, err = h.Session().Update(units)
		}
		return err
	}
	if err := admit("a", true); err != nil {
		return err
	}
	sp := tr.begin(parent, "tenant.readmit", "evict a, admit b, re-admit a and warm-load")
	t0 := time.Now()
	if err := admit("b", false); err != nil { // evicts a, persisting it first
		return err
	}
	if err := admit("a", true); err != nil { // evicts b; a warm-loads from the store
		return err
	}
	l["tenant.readmit_ms"] = float64(time.Since(t0)) / 1e6
	tr.end(sp)
	return nil
}
