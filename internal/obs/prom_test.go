package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the exposition byte-for-byte: family order
// (counters, gauges, summaries), name sort inside each family, name
// sanitization, and HELP escaping.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("detect.tasks").Add(7)
	r.Counter("summary.cache_hits").Add(3)
	r.Gauge("build.functions").Set(12)
	// A hostile name: sanitized in the metric name, escaped in HELP.
	r.Counter("weird name\\with\nstuff").Inc()
	h := r.Histogram("smt.query_ns")
	h.Observe(1000)
	h.Observe(1000)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got := sb.String()
	want := `# HELP pinpoint_detect_tasks detect.tasks
# TYPE pinpoint_detect_tasks counter
pinpoint_detect_tasks 7
# HELP pinpoint_summary_cache_hits summary.cache_hits
# TYPE pinpoint_summary_cache_hits counter
pinpoint_summary_cache_hits 3
# HELP pinpoint_weird_name_with_stuff weird name\\with\nstuff
# TYPE pinpoint_weird_name_with_stuff counter
pinpoint_weird_name_with_stuff 1
# HELP pinpoint_build_functions build.functions
# TYPE pinpoint_build_functions gauge
pinpoint_build_functions 12
# HELP pinpoint_smt_query_ns smt.query_ns
# TYPE pinpoint_smt_query_ns summary
pinpoint_smt_query_ns{quantile="0.5"} 1000
pinpoint_smt_query_ns{quantile="0.95"} 1000
pinpoint_smt_query_ns{quantile="0.99"} 1000
pinpoint_smt_query_ns_sum 2000
pinpoint_smt_query_ns_count 2
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Stability: a second write of the same state is byte-identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatalf("WritePrometheus (second): %v", err)
	}
	if sb2.String() != got {
		t.Error("second exposition of unchanged state differs from the first")
	}
}

// TestPrometheusNilAndEmpty: a nil recorder writes nothing; an empty one
// writes nothing either (no families registered).
func TestPrometheusNilAndEmpty(t *testing.T) {
	var nilRec *Recorder
	var sb strings.Builder
	if err := nilRec.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil recorder: err=%v, wrote %q", err, sb.String())
	}
	if err := New().WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("empty recorder: err=%v, wrote %q", err, sb.String())
	}
}

// TestPrometheusConcurrent scrapes while writers hammer the registry; run
// under -race this pins the lock-consistency of Snapshot/WriteTo.
func TestPrometheusConcurrent(t *testing.T) {
	r := New()
	// Seed each family so the post-load assertions hold even if the writer
	// goroutines are scheduled only after the scrapes finish.
	r.Counter("c.load").Inc()
	r.Gauge("g.load").Set(0)
	r.Histogram("h.load_ns").Observe(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("c.load").Inc()
				r.Gauge("g.load").Set(int64(i))
				r.Histogram("h.load_ns").Observe(int64(i))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus under load: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pinpoint_c_load ", "pinpoint_g_load ", "pinpoint_h_load_ns_count "} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPrometheusMultiLabelFamily pins family grouping for series carrying
// two labels (phase + tenant, the server.phase_ns shape): one HELP/TYPE
// pair for the whole family, series sorted by label block, label keys in
// sorted order regardless of Labeled argument order, and the quantile
// label merged into each summary series' own block.
func TestPrometheusMultiLabelFamily(t *testing.T) {
	r := New()
	// Deliberately reversed argument order on one series: Labeled must
	// canonicalize to the same key order.
	for _, s := range []struct {
		name string
		v    int64
	}{
		{Labeled("server.phase_ns", "phase", "detect", "tenant", "beta"), 400},
		{Labeled("server.phase_ns", "tenant", "alpha", "phase", "detect"), 200},
		{Labeled("server.phase_ns", "phase", "build", "tenant", "alpha"), 100},
	} {
		r.Histogram(s.name).Observe(s.v)
	}
	r.Counter(Labeled("tenant.cost_requests", "tenant", "beta")).Add(2)
	r.Counter(Labeled("tenant.cost_requests", "tenant", "alpha")).Add(1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP pinpoint_tenant_cost_requests tenant.cost_requests
# TYPE pinpoint_tenant_cost_requests counter
pinpoint_tenant_cost_requests{tenant="alpha"} 1
pinpoint_tenant_cost_requests{tenant="beta"} 2
# HELP pinpoint_server_phase_ns server.phase_ns
# TYPE pinpoint_server_phase_ns summary
pinpoint_server_phase_ns{phase="build",tenant="alpha",quantile="0.5"} 100
pinpoint_server_phase_ns{phase="build",tenant="alpha",quantile="0.95"} 100
pinpoint_server_phase_ns{phase="build",tenant="alpha",quantile="0.99"} 100
pinpoint_server_phase_ns_sum{phase="build",tenant="alpha"} 100
pinpoint_server_phase_ns_count{phase="build",tenant="alpha"} 1
pinpoint_server_phase_ns{phase="detect",tenant="alpha",quantile="0.5"} 200
pinpoint_server_phase_ns{phase="detect",tenant="alpha",quantile="0.95"} 200
pinpoint_server_phase_ns{phase="detect",tenant="alpha",quantile="0.99"} 200
pinpoint_server_phase_ns_sum{phase="detect",tenant="alpha"} 200
pinpoint_server_phase_ns_count{phase="detect",tenant="alpha"} 1
pinpoint_server_phase_ns{phase="detect",tenant="beta",quantile="0.5"} 400
pinpoint_server_phase_ns{phase="detect",tenant="beta",quantile="0.95"} 400
pinpoint_server_phase_ns{phase="detect",tenant="beta",quantile="0.99"} 400
pinpoint_server_phase_ns_sum{phase="detect",tenant="beta"} 400
pinpoint_server_phase_ns_count{phase="detect",tenant="beta"} 1
`
	if got != want {
		t.Errorf("multi-label exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
