package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func unitsJSON(t *testing.T) []UnitJSON {
	t.Helper()
	var units []UnitJSON
	for _, u := range exampleUnits(t) {
		units = append(units, UnitJSON{Name: u.Name, Src: u.Src})
	}
	return units
}

// Every /v1/analyze response carries a timing breakdown whose top-level
// phases partition the total exactly and whose sub-phases stay within
// their parents.
func TestAnalyzeTimingBreakdown(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ar, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Units: unitsJSON(t)})

	tm := ar.Timing
	if tm.TotalNs <= 0 {
		t.Fatalf("timing.totalNs = %d, want > 0", tm.TotalNs)
	}
	if tm.BuildNs <= 0 || tm.DetectNs <= 0 {
		t.Errorf("buildNs=%d detectNs=%d, want both > 0", tm.BuildNs, tm.DetectNs)
	}
	sum := tm.DecodeNs + tm.QueueWaitNs + tm.SessionWaitNs + tm.BuildNs + tm.DetectNs + tm.OtherNs
	if sum != tm.TotalNs {
		t.Errorf("top-level phases sum to %d, total is %d", sum, tm.TotalNs)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"decodeNs", tm.DecodeNs}, {"queueWaitNs", tm.QueueWaitNs},
		{"sessionWaitNs", tm.SessionWaitNs}, {"parseNs", tm.ParseNs},
		{"storeLoadNs", tm.StoreLoadNs}, {"storeSaveNs", tm.StoreSaveNs},
		{"smtNs", tm.SMTNs}, {"otherNs", tm.OtherNs},
	} {
		if f.v < 0 {
			t.Errorf("timing.%s = %d, want >= 0", f.name, f.v)
		}
	}
	if sub := tm.ParseNs + tm.StoreLoadNs + tm.StoreSaveNs; sub > tm.BuildNs {
		t.Errorf("build sub-phases (%d) exceed buildNs (%d)", sub, tm.BuildNs)
	}
	if tm.SMTNs > tm.DetectNs {
		t.Errorf("smtNs (%d) exceeds detectNs (%d)", tm.SMTNs, tm.DetectNs)
	}
}

// The timing phases surface as one labeled summary family on /metrics,
// plus the queue-depth and in-flight gauges.
func TestMetricsPhaseFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postAnalyze(t, ts.URL, AnalyzeRequest{Units: unitsJSON(t)})

	body := getMetrics(t, ts.URL)

	if n := strings.Count(body, "# TYPE pinpoint_server_phase_ns summary"); n != 1 {
		t.Errorf("TYPE pinpoint_server_phase_ns emitted %d times", n)
	}
	for _, phase := range []string{
		"decode", "queue_wait", "session_wait", "build", "parse",
		"store_load", "store_save", "detect", "smt", "other",
	} {
		series := fmt.Sprintf("pinpoint_server_phase_ns_count{phase=%q,tenant=\"default\"} ", phase)
		if !strings.Contains(body, series) {
			t.Errorf("missing phase series %s", series)
		}
	}
	for _, gauge := range []string{"pinpoint_server_queue_depth", "pinpoint_server_inflight"} {
		if !strings.Contains(body, "# TYPE "+gauge+" gauge") {
			t.Errorf("missing gauge %s", gauge)
		}
	}
}

// Under per-tenant locks the timing partition must stay exact for every
// tenant: each response's top-level phases sum to its total, and each
// request's phases land in its own tenant's metric series — never a
// shared or mislabeled one.
func TestTimingPartitionPerTenant(t *testing.T) {
	rec := obs.New()
	_, ts := newTestServer(t, Config{Rec: rec, MaxInFlight: -1})
	units := unitsJSON(t)

	reqs := map[string]int{"": 2, "alpha": 3, "beta": 1}
	for project, n := range reqs {
		for i := 0; i < n; i++ {
			ar, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Project: project, Units: units})
			tm := ar.Timing
			sum := tm.DecodeNs + tm.QueueWaitNs + tm.SessionWaitNs + tm.BuildNs + tm.DetectNs + tm.OtherNs
			if sum != tm.TotalNs {
				t.Errorf("project %q: phases sum to %d, total is %d", project, sum, tm.TotalNs)
			}
			if tm.SessionWaitNs < 0 {
				t.Errorf("project %q: sessionWaitNs = %d", project, tm.SessionWaitNs)
			}
		}
	}

	snap := rec.Snapshot()
	for project, n := range reqs {
		tenantLabel := project
		if tenantLabel == "" {
			tenantLabel = "default"
		}
		for _, phase := range []string{"session_wait", "build", "detect"} {
			name := obs.Labeled("server.phase_ns", "phase", phase, "tenant", tenantLabel)
			h, ok := snap.Histograms[name]
			if !ok {
				t.Errorf("missing per-tenant histogram %s", name)
				continue
			}
			if h.Count != int64(n) {
				t.Errorf("%s count = %d, want %d (one per request)", name, h.Count, n)
			}
		}
	}
}

// Concurrent /metrics scrapes during analyze load must be race-free and
// observe monotone phase counts. Run with -race this exercises the
// registry's lock discipline under the exact serve-mode access pattern.
func TestMetricsConcurrentScrape(t *testing.T) {
	rec := obs.New()
	_, ts := newTestServer(t, Config{Rec: rec, MaxInFlight: -1})
	units := unitsJSON(t)

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	workers := runtime.GOMAXPROCS(0)
	rounds := 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				postAnalyze(t, ts.URL, AnalyzeRequest{Units: units, Checkers: []string{"null-deref"}})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				scrape()
			}
		}()
	}
	wg.Wait()

	// After the load drains, the build-phase count equals the number of
	// successful analyzes and every phase family reports the same count —
	// one observation per request per phase.
	wantObs := int64(workers * rounds)
	snap := rec.Snapshot()
	for _, phase := range []string{"decode", "queue_wait", "session_wait", "build", "detect", "smt", "other"} {
		name := obs.Labeled("server.phase_ns", "phase", phase, "tenant", "default")
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("missing histogram %s", name)
			continue
		}
		if h.Count != wantObs {
			t.Errorf("%s count = %d, want %d", name, h.Count, wantObs)
		}
	}
	if g := snap.Gauges["server.inflight"]; g != 0 {
		t.Errorf("server.inflight = %d after load drained, want 0", g)
	}
	if g := snap.Gauges["server.queue_depth"]; g != 0 {
		t.Errorf("server.queue_depth = %d after load drained, want 0", g)
	}
}

// Encoding the response happens after the timing it carries is sealed, so
// it is reported beside it: one observation of the encode phase in the
// request's tenant's series, and an encode_ns field on the handler's log
// line. (Driven without a socket: the client of a real one has its reply
// before the handler has measured writing it.)
func TestEncodePhase(t *testing.T) {
	rec := obs.New()
	var logs bytes.Buffer
	s := New(Config{Rec: rec, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	body, err := json.Marshal(AnalyzeRequest{Project: "alpha", Units: unitsJSON(t)})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	name := obs.Labeled("server.phase_ns", "phase", "encode", "tenant", "alpha")
	if h := rec.Snapshot().Histograms[name]; h.Count != 1 || h.Sum <= 0 {
		t.Errorf("%s: %d observations summing to %d ns, want one above 0", name, h.Count, h.Sum)
	}
	if !strings.Contains(logs.String(), `"encode_ns":`) {
		t.Errorf("no encode_ns on the analyze log line:\n%s", logs.String())
	}
}

// The units a request unescapes are those whose bytes differ from what its
// tenant's last request sent: all of them at first, none on a resubmit, one
// after a one-unit edit, and all of them for another project and for a
// project whose tenant was evicted, the memo going with it. Each request's
// count is on its log line, and the sum is server.units_unescaped.
func TestUnitsUnescaped(t *testing.T) {
	rec := obs.New()
	var logs bytes.Buffer
	s := New(Config{Rec: rec, MaxTenants: 1, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	units := unitsJSON(t)
	edited := append([]UnitJSON(nil), units...)
	edited[0].Src += "\nvoid unescaped_probe() { }\n"
	n := len(units)
	total := 0
	for i, step := range []struct {
		project string
		units   []UnitJSON
		want    int
	}{{"alpha", units, n}, {"alpha", units, 0}, {"alpha", edited, 1}, {"alpha", edited, 0}, {"beta", edited, n}, {"alpha", units, n}} {
		body, err := json.Marshal(AnalyzeRequest{Project: step.project, Units: step.units})
		if err != nil {
			t.Fatal(err)
		}
		logs.Reset()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
		if field := fmt.Sprintf(`"units_unescaped":%d,`, step.want); !strings.Contains(logs.String(), field) {
			t.Errorf("request %d: no %s on the analyze log line:\n%s", i, field, logs.String())
		}
		total += step.want
		if got := rec.Snapshot().Counters["server.units_unescaped"]; got != int64(total) {
			t.Errorf("request %d: server.units_unescaped = %d, want %d", i, got, total)
		}
	}
}

// TestPhaseSumsMatchTiming: what a scraper bills a tenant from /v1/metrics is
// what the tenant's clients were told. After a few requests over two
// projects, the _sum and _count of server.phase_ns{phase,tenant} equal the
// sums of the responses' timing, and neither project absorbs the other's.
func TestPhaseSumsMatchTiming(t *testing.T) {
	rec := obs.New()
	_, ts := newTestServer(t, Config{Rec: rec})
	units := unitsJSON(t)

	type sums struct{ build, detect, smt, n int64 }
	want := map[string]*sums{"alpha": {}, "beta": {}}
	for i := 0; i < 3; i++ {
		for p, w := range want {
			ar, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Project: p, Units: units[:1+i%2]})
			w.build += ar.Timing.BuildNs
			w.detect += ar.Timing.DetectNs
			w.smt += ar.Timing.SMTNs
			w.n++
		}
	}

	snap := rec.Snapshot()
	body := getMetrics(t, ts.URL)
	for p, w := range want {
		for _, ph := range []struct {
			phase string
			sum   int64
		}{{"build", w.build}, {"detect", w.detect}, {"smt", w.smt}} {
			name := obs.Labeled("server.phase_ns", "phase", ph.phase, "tenant", p)
			if h := snap.Histograms[name]; h.Sum != ph.sum || h.Count != w.n {
				t.Errorf("%s: sum %d over %d requests, the responses say %d over %d", name, h.Sum, h.Count, ph.sum, w.n)
			}
			for _, line := range []string{
				fmt.Sprintf("pinpoint_server_phase_ns_sum{phase=%q,tenant=%q} %d\n", ph.phase, p, ph.sum),
				fmt.Sprintf("pinpoint_server_phase_ns_count{phase=%q,tenant=%q} %d\n", ph.phase, p, w.n),
			} {
				if !strings.Contains(body, line) {
					t.Errorf("/v1/metrics lacks %q", line)
				}
			}
		}
	}
}

// TestMetricsHasProcessSeries: a server with no option set exports the
// runtime's health, read at the scrape, and a GC cycle is observed by the
// one scrape that follows it.
func TestMetricsHasProcessSeries(t *testing.T) {
	rec := obs.New()
	_, ts := newTestServer(t, Config{Rec: rec})
	runtime.GC()
	body := getMetrics(t, ts.URL)
	for _, want := range []string{
		"# TYPE pinpoint_process_goroutines gauge",
		"# TYPE pinpoint_process_heap_bytes gauge",
		"# TYPE pinpoint_process_gc_pause_ns summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/metrics lacks %q", want)
		}
	}
	if rec.Gauge("process.goroutines").Value() <= 0 || rec.Gauge("process.heap_bytes").Value() <= 0 {
		t.Error("process gauges not positive after a scrape")
	}

	// Every completed cycle is one observation, however many scrapes see it.
	var before, after runtime.MemStats
	pauses := rec.Histogram("process.gc_pause_ns")
	runtime.ReadMemStats(&before)
	seen := pauses.Count()
	runtime.GC()
	for i := 0; i < 3; i++ {
		getMetrics(t, ts.URL)
	}
	runtime.ReadMemStats(&after)
	got, cycles := pauses.Count()-seen, int64(after.NumGC-before.NumGC)
	if got < 1 || got > cycles {
		t.Errorf("three scrapes after a forced GC observed %d pauses; the runtime completed %d cycles", got, cycles)
	}
}
