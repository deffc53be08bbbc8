package server

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/store"
)

// TestV1Aliases is the route-table test: every registered pattern answers
// 200, and every spelling the table dropped (the unversioned aliases, the
// third health spellings, /debug/session, a path per debug section) answers
// 404.
func TestV1Aliases(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status := func(method, path string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// A first analysis, so /v1/debug has a session to describe.
	postAnalyze(t, ts.URL, AnalyzeRequest{Units: unitsToJSON(exampleUnits(t))})

	debug := []string{"tenants", "inflight", "store", "timeseries", "costs", "slo"}
	served := []string{"/v1/health", "/v1/ready", "/v1/metrics", "/v1/debug"}
	dropped := []string{
		"/healthz", "/readyz", "/metrics", "/v1/healthz", "/v1/readyz",
		"/debug/session", "/v1/debug/session",
	}
	for _, d := range debug {
		dropped = append(dropped, "/v1/debug/"+d, "/debug/"+d)
	}
	for _, path := range served {
		if got := status("GET", path); got != http.StatusOK {
			t.Errorf("GET %s: %d, want 200", path, got)
		}
	}
	for _, path := range dropped {
		if got := status("GET", path); got != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, got)
		}
	}
	if got := status("POST", "/analyze"); got != http.StatusNotFound {
		t.Errorf("POST /analyze: %d, want 404", got)
	}
}

// TestServeStoreWarmRestart drives the persistent store through the HTTP
// surface: a second server process on the same store directory answers its
// first request from warm-loaded artifacts, with identical reports, and
// /v1/debug's store section reports its occupancy.
func TestServeStoreWarmRestart(t *testing.T) {
	units := unitsToJSON(exampleUnits(t))
	dir := t.TempDir()

	st1, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Store: st1})
	first, _ := postAnalyze(t, ts1.URL, AnalyzeRequest{Units: units})
	if first.Stats.ArtifactStoreHits != 0 {
		t.Fatalf("cold server store-loaded %d artifacts; want 0", first.Stats.ArtifactStoreHits)
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, ts2 := newTestServer(t, Config{Store: st2})
	second, _ := postAnalyze(t, ts2.URL, AnalyzeRequest{Units: units})

	if second.Stats.ArtifactStoreHits == 0 || second.Stats.ArtifactMisses != 0 {
		t.Fatalf("restarted server did not warm-load: %+v", second.Stats)
	}
	fb, _ := json.Marshal(first.Reports)
	sb, _ := json.Marshal(second.Reports)
	if string(fb) != string(sb) {
		t.Fatalf("restarted server reports differ:\n%s\n%s", sb, fb)
	}

	d := getDebug(t, ts2.URL).Store
	if !d.Persistent {
		t.Fatal("/v1/debug reports no persistent store")
	}
	if d.Stats.Records == 0 || d.Stats.DiskBytes == 0 {
		t.Fatalf("/v1/debug reports an empty store: %+v", d.Stats)
	}
	if d.ArtifactStoreHits != second.Stats.ArtifactStoreHits {
		t.Fatalf("debug store hits %d != response stats %d", d.ArtifactStoreHits, second.Stats.ArtifactStoreHits)
	}
}
