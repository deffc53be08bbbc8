package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestTenantIsolation: two projects posting different programs get
// independent sessions — each one's reports come from its own program,
// and neither invalidates the other's sticky cache.
func TestTenantIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	units := unitsJSON(t)

	full, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Project: "alpha", Units: units})
	one, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Project: "beta", Units: units[:1]})
	if full.Stats.Functions <= one.Stats.Functions {
		t.Fatalf("alpha (%d fns) not larger than beta (%d fns); projects share a session?",
			full.Stats.Functions, one.Stats.Functions)
	}
	if full.Project != "alpha" || one.Project != "beta" {
		t.Fatalf("responses echo projects %q/%q, want alpha/beta", full.Project, one.Project)
	}

	// Re-posting alpha's program is a full cache hit: beta's smaller
	// program didn't evict alpha's artifacts the way a shared session
	// would have.
	again, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Project: "alpha", Units: units})
	if again.Stats.ArtifactMisses != 0 || again.Stats.ArtifactHits == 0 {
		t.Fatalf("alpha repeat rebuilt artifacts after beta's request: %+v", again.Stats)
	}
}

// TestNoProjectBytesUnchanged: a request without a project field must
// produce a response with no "project" key at all — the single-tenant
// wire format is byte-compatible with the pre-tenant server.
func TestNoProjectBytesUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, err := json.Marshal(AnalyzeRequest{Units: unitsJSON(t)[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(body, []byte("project")) {
		t.Fatalf("marshaled request leaks a project field: %s", body)
	}
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/analyze: %s: %s", resp.Status, raw)
	}
	if bytes.Contains(raw, []byte(`"project"`)) {
		t.Fatalf("response to a project-less request contains a project key:\n%s", raw)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"traceId", "reports", "stats", "timing"} {
		if _, ok := keys[want]; !ok {
			t.Errorf("response lost key %q", want)
		}
	}
}

// TestInvalidProjectRejected: malformed project IDs are a client error,
// not a server one.
func TestInvalidProjectRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := []byte(`{"project":"a/b","units":[{"name":"u.mc","src":"void f() {}"}]}`)
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid project: status %d, want 400", resp.StatusCode)
	}
}

// TestDebugTenants: /v1/debug's tenants section lists every resident project
// with its occupancy.
func TestDebugTenants(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	units := unitsJSON(t)
	postAnalyze(t, ts.URL, AnalyzeRequest{Units: units})
	postAnalyze(t, ts.URL, AnalyzeRequest{Project: "alpha", Units: units[:1]})

	snap := getDebug(t, ts.URL).Tenants
	if snap.Resident != 2 || len(snap.Tenants) != 2 {
		t.Fatalf("resident = %d/%d rows, want 2", snap.Resident, len(snap.Tenants))
	}
	if snap.Tenants[0].Project != "alpha" || snap.Tenants[1].Project != "default" {
		t.Fatalf("rows %q/%q, want alpha,default (sorted)",
			snap.Tenants[0].Project, snap.Tenants[1].Project)
	}
	for _, row := range snap.Tenants {
		if row.Units == 0 || row.Artifacts == 0 || row.Functions == 0 || row.Requests == 0 || row.LastUsedUnixNano == 0 {
			t.Fatalf("empty occupancy row %+v", row)
		}
	}
	if got := snap.Tenants[1].Units; got != len(units) {
		t.Fatalf("default tenant holds %d units, want %d", got, len(units))
	}
}

// TestEvictionThroughHTTP: with MaxTenants=1 and a persistent store,
// admitting a second project evicts the first, and re-requesting the
// first warm-loads from its namespaced store slice with identical
// reports.
func TestEvictionThroughHTTP(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{Store: st, MaxTenants: 1, TenantIdle: -1})
	units := unitsJSON(t)

	first, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Project: "alpha", Units: units})
	postAnalyze(t, ts.URL, AnalyzeRequest{Project: "beta", Units: units[:1]})

	snap := getDebug(t, ts.URL).Tenants
	if snap.Resident != 1 || snap.Evictions == 0 {
		t.Fatalf("snapshot after over-cap admissions: %+v", snap)
	}

	// alpha comes back warm: artifacts load from the store instead of
	// rebuilding, and the reports are identical.
	back, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Project: "alpha", Units: units})
	if back.Stats.ArtifactStoreHits == 0 || back.Stats.ArtifactMisses != 0 {
		t.Fatalf("readmitted alpha did not warm-load: %+v", back.Stats)
	}
	fb, err := json.Marshal(first.Reports)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(back.Reports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, bb) {
		t.Fatalf("readmitted reports differ:\nfirst: %s\nback:  %s", fb, bb)
	}
}

// TestTenantMetricsOnScrape: /metrics carries tenant-labeled phase series
// and the resident gauge after multi-project traffic.
func TestTenantMetricsOnScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	units := unitsJSON(t)
	postAnalyze(t, ts.URL, AnalyzeRequest{Units: units[:1]})
	postAnalyze(t, ts.URL, AnalyzeRequest{Project: "alpha", Units: units[:1]})

	body := getMetrics(t, ts.URL)
	for _, want := range []string{
		`pinpoint_server_phase_ns_count{phase="build",tenant="default"} `,
		`pinpoint_server_phase_ns_count{phase="build",tenant="alpha"} `,
		"# TYPE pinpoint_tenant_resident gauge",
		"pinpoint_tenant_resident 2",
		"pinpoint_tenant_created 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPerProjectStateBounded: what the process holds per project is bounded
// by the resident set, not by the projects it has ever seen. Once the
// resident set is full and has evicted once, admitting more projects leaves
// the registry with the same number of series, none of them an evicted
// project's, and the manager with MaxTenants sessions.
func TestPerProjectStateBounded(t *testing.T) {
	const maxResident = 2
	rec := obs.New()
	s, ts := newTestServer(t, Config{Rec: rec, MaxTenants: maxResident, TenantIdle: -1})
	units := unitsJSON(t)[:1]

	project := func(i int) string { return fmt.Sprintf("proj-%d", i) }
	var steady int
	for i := 0; i < 4*maxResident; i++ {
		postAnalyze(t, ts.URL, AnalyzeRequest{Project: project(i), Units: units})
		if i == maxResident {
			// The default tenant and the first project have been evicted:
			// every series a full house with evictions needs exists.
			steady = len(rec.Registry().Names())
		}
	}

	names := rec.Registry().Names()
	if len(names) != steady {
		t.Errorf("%d series after %d projects, %d when the resident set first filled", len(names), 4*maxResident, steady)
	}
	resident := map[string]bool{project(4*maxResident - 1): true, project(4*maxResident - 2): true}
	for _, name := range names {
		_, labels := obs.SplitLabels(name)
		if i := strings.Index(labels, `tenant="`); i >= 0 {
			p, _, _ := strings.Cut(labels[i+len(`tenant="`):], `"`)
			if !resident[p] {
				t.Errorf("series %s outlives its tenant", name)
			}
		}
	}
	if got := s.tenants.Resident(); got != maxResident {
		t.Errorf("%d resident sessions, want %d", got, maxResident)
	}
	// The default tenant and all but the last maxResident projects.
	if got, want := rec.Counter("tenant.evictions").Value(), int64(3*maxResident+1); got != want {
		t.Errorf("tenant.evictions = %d, want %d", got, want)
	}
}
