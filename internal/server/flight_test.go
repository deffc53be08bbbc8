package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tenant"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestTimeseriesEndpoint: under load the ring buffer accumulates multiple
// distinct timestamps for server.phase_ns, the since filter trims, and
// capacity is bounded.
func TestTimeseriesEndpoint(t *testing.T) {
	units := exampleUnits(t)
	s, ts := newTestServer(t, Config{
		TSInterval:  2 * time.Millisecond,
		TSRetention: time.Second,
	})
	s.sampler.Start()
	defer s.sampler.Stop()

	req := AnalyzeRequest{Units: unitsToJSON(units)}
	postAnalyze(t, ts.URL, req)
	// Let several ticks elapse with the phase histograms populated, with
	// a second request in between so the count series moves.
	time.Sleep(10 * time.Millisecond)
	postAnalyze(t, ts.URL, req)

	var d struct {
		Enabled bool `json:"enabled"`
		obs.QueryResult
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/debug/timeseries?metric=server.phase_ns", &d)
		if !d.Enabled {
			t.Fatal("timeseries reports disabled with TSInterval set")
		}
		if len(d.Series) > 0 && len(d.Series[0].Points) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no series with >=2 points for server.phase_ns: %+v", d.QueryResult)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The acceptance bar: >=2 distinct timestamps on a phase_ns series.
	seen := map[int64]bool{}
	for _, p := range d.Series[0].Points {
		seen[p.T] = true
	}
	if len(seen) < 2 {
		t.Fatalf("want >=2 distinct timestamps, got %d", len(seen))
	}
	for _, sr := range d.Series {
		if sr.Base != "server.phase_ns" {
			t.Errorf("metric filter leaked series %q", sr.Name)
		}
		if len(sr.Points) > d.Capacity {
			t.Errorf("series %s %s exceeds ring capacity: %d > %d", sr.Name, sr.Field, len(sr.Points), d.Capacity)
		}
	}

	// since as a trailing window: zero-width window keeps at most the
	// newest point per series.
	var recent struct {
		obs.QueryResult
	}
	getJSON(t, ts.URL+"/v1/debug/timeseries?metric=server.phase_ns&since=1ms", &recent)
	for _, sr := range recent.Series {
		if len(sr.Points) > len(d.Series[0].Points) {
			t.Errorf("since filter did not trim series %s", sr.Name)
		}
	}

	// Bad since is a 400, not a 500.
	resp, err := http.Get(ts.URL + "/v1/debug/timeseries?since=yesterday-ish")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since: status %d, want 400", resp.StatusCode)
	}
}

// TestTimeseriesDisabled: without TSInterval the endpoint answers
// {"enabled":false} and the server runs no sampler goroutine.
func TestTimeseriesDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if s.sampler != nil {
		t.Fatal("sampler exists without TSInterval")
	}
	var d struct {
		Enabled bool              `json:"enabled"`
		Series  []json.RawMessage `json:"series"`
	}
	getJSON(t, ts.URL+"/v1/debug/timeseries", &d)
	if d.Enabled || len(d.Series) != 0 {
		t.Fatalf("disabled recorder leaked data: %+v", d)
	}
}

// TestCostAttribution is the two-tenant acceptance check: each project's
// reported phase CPU matches the sum of its own responses' timing
// partitions to >=95%, and does not absorb the other tenant's time.
func TestCostAttribution(t *testing.T) {
	units := exampleUnits(t)
	_, ts := newTestServer(t, Config{})

	sums := map[string]*tenant.CostDelta{"alpha": {}, "beta": {}}
	counts := map[string]int64{}
	for i := 0; i < 3; i++ {
		for _, p := range []string{"alpha", "beta"} {
			ar, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Project: p, Units: unitsToJSON(units)})
			sums[p].BuildNs += ar.Timing.BuildNs
			sums[p].DetectNs += ar.Timing.DetectNs
			sums[p].SMTNs += ar.Timing.SMTNs
			counts[p]++
		}
	}

	var rep tenant.CostReport
	getJSON(t, ts.URL+"/v1/debug/costs", &rep)
	byProject := map[string]tenant.CostSnapshot{}
	for _, c := range rep.Tenants {
		byProject[c.Project] = c
	}
	for p, want := range sums {
		got, ok := byProject[p]
		if !ok {
			t.Fatalf("project %s missing from cost report", p)
		}
		if got.Requests != counts[p] {
			t.Errorf("%s requests = %d, want %d", p, got.Requests, counts[p])
		}
		// The ledger is fed the exact response timings, so equality should
		// hold; accept >=95% to stay robust to future rounding.
		wantCPU := want.BuildNs + want.DetectNs
		if got.CPUNs < wantCPU*95/100 || got.CPUNs > wantCPU*105/100 {
			t.Errorf("%s attributed CPU %d not within 5%% of client-visible %d", p, got.CPUNs, wantCPU)
		}
		if got.SMTNs != want.SMTNs {
			t.Errorf("%s SMTNs = %d, want %d", p, got.SMTNs, want.SMTNs)
		}
	}
	if rep.TotalCPUNs <= 0 {
		t.Error("TotalCPUNs not positive")
	}
	if len(rep.Tenants) >= 2 && rep.Tenants[0].CPUNs < rep.Tenants[1].CPUNs {
		t.Error("cost report not ranked by CPU descending")
	}
}

// TestSLOBurnRate: a 1ns target makes every request a violation; the burn
// rate over the ring buffer must be finite and >1 (budget burning faster
// than allowed), and both gauges appear on /metrics.
func TestSLOBurnRate(t *testing.T) {
	units := exampleUnits(t)
	rec := obs.New()
	s, ts := newTestServer(t, Config{
		Rec:           rec,
		TSInterval:    5 * time.Millisecond,
		TSRetention:   time.Second,
		SLOTarget:     time.Nanosecond,
		SLOQuantile:   0.5,
		SLOFastWindow: 50 * time.Millisecond,
		SLOSlowWindow: 500 * time.Millisecond,
	})
	if s.slo == nil {
		t.Fatal("slo tracker not constructed")
	}

	s.sampler.SampleNow() // baseline before any requests
	req := AnalyzeRequest{Units: unitsToJSON(units)}
	postAnalyze(t, ts.URL, req)
	postAnalyze(t, ts.URL, req)
	time.Sleep(2 * time.Millisecond)
	s.sampler.SampleNow() // second point: delta requests=2, violations=2

	var d sloDebug
	getJSON(t, ts.URL+"/v1/debug/slo", &d)
	if !d.Enabled {
		t.Fatal("slo reports disabled")
	}
	if d.TargetNs != 1 || d.Quantile != 0.5 {
		t.Errorf("objective = %d ns @ %g, want 1 @ 0.5", d.TargetNs, d.Quantile)
	}
	if d.Requests < 2 || d.Violations != d.Requests {
		t.Errorf("requests=%d violations=%d, want all violating", d.Requests, d.Violations)
	}
	if len(d.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(d.Windows))
	}
	for _, w := range d.Windows {
		// 100% violations at quantile 0.5 → burn = 1/0.5 = 2.
		if w.BurnRate <= 1 || w.BurnRate != w.BurnRate /* NaN */ {
			t.Errorf("window %s burn = %g, want finite > 1", w.Label, w.BurnRate)
		}
		if w.ViolationRate != 1 {
			t.Errorf("window %s violation rate = %g, want 1", w.Label, w.ViolationRate)
		}
	}

	// The burn gauges land on /metrics after the onSample hook.
	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`pinpoint_server_slo_burn_rate{window="fast"} 2`,
		`pinpoint_server_slo_burn_rate{window="slow"} 2`,
		"pinpoint_server_slo_requests ",
		"pinpoint_server_slo_violations ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSLODisabledKeepsMetricsClean: without SLOTarget and TSInterval, the
// exposition carries no slo_*, process_*, or burn series — byte-identical
// to the pre-flight-recorder server.
func TestSLODisabledKeepsMetricsClean(t *testing.T) {
	units := exampleUnits(t)
	_, ts := newTestServer(t, Config{})
	postAnalyze(t, ts.URL, AnalyzeRequest{Units: unitsToJSON(units)})
	body := scrapeMetrics(t, ts.URL)
	for _, banned := range []string{"slo", "pinpoint_process_", "burn"} {
		if strings.Contains(body, banned) {
			t.Errorf("disabled flight recorder leaked %q into /metrics", banned)
		}
	}
	var d sloDebug
	getJSON(t, ts.URL+"/v1/debug/slo", &d)
	if d.Enabled {
		t.Error("slo debug reports enabled without a target")
	}
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSanitizeTraceID covers the header boundary: well-formed IDs echo
// back, hostile ones are replaced with a freshly minted hex ID.
func TestSanitizeTraceID(t *testing.T) {
	cases := []struct {
		in   string
		keep bool
	}{
		{"abc-123-DEF", true},
		{strings.Repeat("a", 64), true},
		{"", false},
		{strings.Repeat("a", 65), false},
		{"has space", false},
		{"semi;colon", false},
		{"new\nline", false},
		{"under_score", false},
	}
	for _, c := range cases {
		got := sanitizeTraceID(c.in)
		if c.keep && got != c.in {
			t.Errorf("sanitizeTraceID(%q) = %q, want kept", c.in, got)
		}
		if !c.keep && got != "" {
			t.Errorf("sanitizeTraceID(%q) = %q, want rejected", c.in, got)
		}
	}

	_, ts := newTestServer(t, Config{})
	check := func(header, wantEcho string) {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/v1/health", nil)
		if header != "" {
			req.Header.Set("X-Trace-Id", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Trace-Id")
		if wantEcho != "" {
			if got != wantEcho {
				t.Errorf("X-Trace-Id echo = %q, want %q", got, wantEcho)
			}
			return
		}
		// A minted replacement: 16 hex characters, not the hostile input.
		if len(got) != 16 || got == header {
			t.Errorf("minted trace ID = %q, want fresh 16-hex", got)
		}
	}
	check("good-id-42", "good-id-42")
	check("bad id; DROP TABLE", "")
	check(strings.Repeat("x", 200), "")
}

// TestFlightRecorderRace drives analyze traffic, /metrics scrapes, the
// sampler, and timeseries/costs/slo reads concurrently; run under -race
// this is the flight recorder's thread-safety proof.
func TestFlightRecorderRace(t *testing.T) {
	units := exampleUnits(t)
	s, ts := newTestServer(t, Config{
		MaxInFlight:   4,
		TSInterval:    time.Millisecond,
		TSRetention:   100 * time.Millisecond,
		SLOTarget:     time.Microsecond,
		SLOFastWindow: 20 * time.Millisecond,
		SLOSlowWindow: 80 * time.Millisecond,
	})
	s.sampler.Start()
	defer s.sampler.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	for _, p := range []string{"alpha", "beta"} {
		p := p
		worker(func() {
			postAnalyze(t, ts.URL, AnalyzeRequest{Project: p, Units: unitsToJSON(units)})
		})
	}
	worker(func() { scrapeMetrics(t, ts.URL) })
	worker(func() {
		var d struct{ Enabled bool }
		getJSON(t, ts.URL+"/v1/debug/timeseries?metric=server.phase_ns&since=50ms", &d)
		var rep tenant.CostReport
		getJSON(t, ts.URL+"/v1/debug/costs", &rep)
		var sd sloDebug
		getJSON(t, ts.URL+"/v1/debug/slo", &sd)
	})
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}
