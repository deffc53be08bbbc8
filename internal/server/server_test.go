package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tenant"
)

// exampleUnits loads the repository's example programs — the same corpus
// the CLI examples and detect's own tests run on.
func exampleUnits(t *testing.T) []minic.NamedSource {
	t.Helper()
	paths, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	sort.Strings(paths)
	var units []minic.NamedSource
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, minic.NamedSource{Name: p, Src: string(data)})
	}
	return units
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	s.ready.Store(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (*AnalyzeResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/analyze: %s: %s", resp.Status, b)
	}
	var ar AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	return &ar, resp
}

// getDebug fetches the /v1/debug document.
func getDebug(t *testing.T, url string) debugDoc {
	t.Helper()
	resp, err := http.Get(url + "/v1/debug")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug: %s", resp.Status)
	}
	var d debugDoc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatalf("GET /v1/debug: decode: %v", err)
	}
	return d
}

// getMetrics scrapes /v1/metrics.
func getMetrics(t *testing.T, url string) string {
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

func unitsToJSON(units []minic.NamedSource) []UnitJSON {
	out := make([]UnitJSON, len(units))
	for i, u := range units {
		out[i] = UnitJSON{Name: u.Name, Src: u.Src}
	}
	return out
}

// TestServeMatchesBatch is the tentpole acceptance check: a served analysis
// answers with the same JSONReport values as `pinpoint -format json` batch
// mode, on cold and warm sessions alike.
func TestServeMatchesBatch(t *testing.T) {
	units := exampleUnits(t)

	a, err := core.BuildFromSource(units, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := a.CheckAll(checkers.All(), detect.Options{})
	batch := make([]detect.JSONReport, 0, len(res.Reports))
	for _, r := range res.Reports {
		batch = append(batch, r.ToJSON())
	}
	want, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	req := AnalyzeRequest{Units: unitsToJSON(units)}
	for round, label := range []string{"cold", "warm"} {
		ar, resp := postAnalyze(t, ts.URL, req)
		got, err := json.Marshal(ar.Reports)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s serve reports differ from batch mode:\nserve: %s\nbatch: %s", label, got, want)
		}
		if ar.TraceID == "" || resp.Header.Get("X-Trace-Id") != ar.TraceID {
			t.Errorf("%s: traceId %q not echoed in X-Trace-Id header %q",
				label, ar.TraceID, resp.Header.Get("X-Trace-Id"))
		}
		if round == 1 && (ar.Stats.ArtifactHits == 0 || ar.Stats.ArtifactMisses+ar.Stats.ArtifactInvalidated != 0) {
			t.Errorf("warm request did not reuse artifacts: %+v", ar.Stats)
		}
	}

	// Witness mode adds provenance without disturbing the base fields.
	req.Witness = true
	ar, _ := postAnalyze(t, ts.URL, req)
	if len(ar.Reports) == 0 {
		t.Fatal("witness request returned no reports")
	}
	for _, r := range ar.Reports {
		if r.Provenance == nil {
			t.Errorf("witness request: report %s:%d has no provenance", r.SourceFile, r.SourceLine)
		}
	}
}

// TestMetricsScrapeDuringAnalyze runs concurrent /v1/metrics, /v1/debug and
// probe scrapes while /analyze requests are in flight — the -race exercise
// for the lock-consistent snapshot path.
func TestMetricsScrapeDuringAnalyze(t *testing.T) {
	units := exampleUnits(t)
	_, ts := newTestServer(t, Config{MaxInFlight: 4, Rec: obs.New()})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	scrape := func(path string, wantType string) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: %s", path, resp.Status)
				return
			}
			if wantType != "" && !strings.HasPrefix(resp.Header.Get("Content-Type"), wantType) {
				t.Errorf("GET %s: content type %q", path, resp.Header.Get("Content-Type"))
				return
			}
			_ = body
		}
	}
	wg.Add(3)
	go scrape("/v1/metrics", "text/plain")
	go scrape("/v1/debug", "application/json")
	go scrape("/v1/health", "text/plain")

	req := AnalyzeRequest{Units: unitsToJSON(units)}
	var aw sync.WaitGroup
	for i := 0; i < 3; i++ {
		aw.Add(1)
		go func() {
			defer aw.Done()
			for j := 0; j < 3; j++ {
				postAnalyze(t, ts.URL, req)
			}
		}()
	}
	aw.Wait()
	close(stop)
	wg.Wait()

	// After the analyses, the exposition must carry non-zero pipeline
	// counters in parseable Prometheus text format.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE pinpoint_detect_reports counter",
		"# TYPE pinpoint_server_requests counter",
		"pinpoint_server_request_ns_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	var reports float64
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "pinpoint_detect_reports ") {
			fmt.Sscanf(line, "pinpoint_detect_reports %f", &reports)
		}
	}
	if reports == 0 {
		t.Error("pinpoint_detect_reports is zero after analyses")
	}
}

// TestDebugSessionOccupancy pins the default tenant's row in /v1/debug's
// tenants section against the session's real stores.
func TestDebugSessionOccupancy(t *testing.T) {
	units := exampleUnits(t)
	_, ts := newTestServer(t, Config{})
	postAnalyze(t, ts.URL, AnalyzeRequest{Units: unitsToJSON(units)})

	snap := getDebug(t, ts.URL).Tenants
	if len(snap.Tenants) != 1 || snap.Tenants[0].Project != store.DefaultProject {
		t.Fatalf("tenants = %+v, want the default tenant's row only", snap.Tenants)
	}
	d := snap.Tenants[0]
	if d.Units != len(units) {
		t.Errorf("units = %d, want %d", d.Units, len(units))
	}
	if d.Artifacts == 0 || d.Functions == 0 {
		t.Errorf("empty occupancy after analyze: %+v", d)
	}
	if d.LastUpdate.Misses == 0 {
		t.Errorf("cold analyze reported no artifact misses: %+v", d)
	}
	if d.ReplayTable == 0 {
		t.Errorf("no task result held for replay after analyze: %+v", d)
	}
}

// TestCountersArePerRequest pins the per-request meaning of the detection
// counters on a long-lived session: the flow-cache lookups reported are the
// request's own (they used to be the sticky tables' lifetime totals, re-added
// to the registry on every request), and a byte-identical resubmit replays
// every task and looks nothing up.
func TestCountersArePerRequest(t *testing.T) {
	units := exampleUnits(t)
	s, ts := newTestServer(t, Config{})
	req := AnalyzeRequest{Units: unitsToJSON(units)}

	first, _ := postAnalyze(t, ts.URL, req)
	if first.Stats.SummaryCacheMisses == 0 || first.Stats.DetectTasks == 0 {
		t.Fatalf("cold request did no detection work: %+v", first.Stats)
	}
	if first.Stats.DetectTasksReplayed != 0 {
		t.Errorf("cold request replayed %d tasks", first.Stats.DetectTasksReplayed)
	}
	for i := 0; i < 3; i++ {
		again, _ := postAnalyze(t, ts.URL, req)
		st := again.Stats
		if st.SummaryCacheHits != 0 || st.SummaryCacheMisses != 0 {
			t.Errorf("resubmit %d: %d hits, %d misses charged to a request that looked nothing up",
				i, st.SummaryCacheHits, st.SummaryCacheMisses)
		}
		if st.DetectTasks != first.Stats.DetectTasks || st.DetectTasksReplayed != st.DetectTasks {
			t.Errorf("resubmit %d: %d of %d tasks replayed, want all %d",
				i, st.DetectTasksReplayed, st.DetectTasks, first.Stats.DetectTasks)
		}
		if st.SMTQueries != first.Stats.SMTQueries || st.Reports != first.Stats.Reports {
			t.Errorf("resubmit %d: effort counters moved: %+v vs %+v", i, st, first.Stats)
		}
		if again.Timing.SMTNs != 0 {
			t.Errorf("resubmit %d: %d ns of solving reported, but nothing was solved", i, again.Timing.SMTNs)
		}
	}
	snap := s.rec.Snapshot()
	if got, want := snap.Counters["summary.cache_hits"], int64(first.Stats.SummaryCacheHits); got != want {
		t.Errorf("summary.cache_hits = %d after four requests, want the first request's %d", got, want)
	}
	if got, want := snap.Counters["summary.cache_misses"], int64(first.Stats.SummaryCacheMisses); got != want {
		t.Errorf("summary.cache_misses = %d after four requests, want the first request's %d", got, want)
	}
	if got, want := snap.Counters["detect.tasks_replayed"], int64(3*first.Stats.DetectTasks); got != want {
		t.Errorf("detect.tasks_replayed = %d, want %d", got, want)
	}
}

type analyzeErrorCase struct {
	name, body string
	want       int
	msg        string // what the error the body gets begins with
}

// analyzeErrorCases is the status of every way a request body can be wrong,
// and of the oddities that are accepted: the decoder stops at the end of the
// object, and knows nothing of Content-Length. TestAnalyzeErrors posts them
// with a body cap of 8 KiB; FuzzDecodeRequest starts from them.
func analyzeErrorCases() []analyzeErrorCase {
	one := `{"units":[{"name":"a.mc","src":"void f() { }"}]}`
	return append([]analyzeErrorCase{
		{"malformed body", "{", http.StatusBadRequest, "bad request body: unexpected EOF"},
		{"empty body", "", http.StatusBadRequest, "bad request body: unexpected EOF"},
		{"not an object", `[1,2]`, http.StatusBadRequest, "bad request body: json: '[' where a request object should start"},
		{"null", `null`, http.StatusBadRequest, "no translation units"},
		{"empty units", `{"units":[]}`, http.StatusBadRequest, "no translation units"},
		{"null units", `{"units":null}`, http.StatusBadRequest, "no translation units"},
		{"unnamed unit", `{"units":[{"src":"void f() { }"}]}`, http.StatusBadRequest, "unit 0 has no name"},
		{"unknown checker", `{"units":[{"name":"a.mc","src":""}],"checkers":["nope"]}`, http.StatusBadRequest, `unknown checker "nope" (known: `},
		{"unknown field", `{"units":[{"name":"a.mc","src":""}],"colour":1}`, http.StatusBadRequest, `bad request body: json: unknown field "colour"`},
		{"unknown field in a unit", `{"units":[{"name":"a.mc","src":"","lang":"c"}]}`, http.StatusBadRequest, `bad request body: json: unknown field "lang"`},
		{"wrong type", `{"units":[{"name":"a.mc","src":7}]}`, http.StatusBadRequest, "bad request body: json: '7' where a string should start"},
		{"truncated in a unit", one[:len(one)-8], http.StatusBadRequest, "bad request body: unexpected EOF"},
		{"truncated after the units", one[:len(one)-1], http.StatusBadRequest, "bad request body: unexpected EOF"},
		{"body over the cap", `{"units":[{"name":"a.mc","src":"` + strings.Repeat(" ", 9<<10) + `"}]}`, http.StatusBadRequest, "bad request body: http: request body too large"},
		{"parse error", `{"units":[{"name":"a.mc","src":"int f( {"}]}`, http.StatusUnprocessableEntity, "parse: parsing a.mc: a.mc:1:8: expected type, found '{'"},
		{"every field", `{"project":"p","units":[{"name":"a.mc","src":"void f() { }"}],"checkers":["all"],"witness":true,"workers":1,"maxCallDepth":3}`, http.StatusOK, ""},
		{"field names in another case", `{"UNITS":[{"Name":"a.mc","SRC":"void f() { }"}],"Witness":true}`, http.StatusOK, ""},
		{"a field twice: the last one counts", `{"units":[{"name":"a.mc","src":"int f( {"}],"units":[{"name":"a.mc","src":"void f() { }"}]}`, http.StatusOK, ""},
		{"trailing bytes after the object", one + ` trailing }{`, http.StatusOK, ""},
		{"trailing bytes over the cap", one + strings.Repeat(" ", 9<<10), http.StatusOK, ""},
		{"a field name that only folds to units", `{"unitſ":[{"name":"a.mc","ſrc":"void f() { }"}]}`, http.StatusOK, ""},
	}, sourceErrorCases()...)
}

// unitA begins a body whose one unit, a.mc, has the source that follows.
const unitA = `{"units":[{"name":"a.mc","src":"`

// sourceErrorCases are bodies, each beginning with unitA, whose one error is
// in the source: a source is only delimited as the body is read, and
// unescaped, which finds the error, once it is known to have changed.
func sourceErrorCases() []analyzeErrorCase {
	return []analyzeErrorCase{
		{"a control character in a source", unitA + "void f() {\x01}\"}]}", http.StatusBadRequest, `bad request body: json: invalid character '\x01' in string literal`},
		{"an unknown escape in a source", unitA + `void f() { \q }"}]}`, http.StatusBadRequest, "bad request body: json: invalid escape in string literal"},
		{"a short \\u escape in a source", unitA + `\u12"}]}`, http.StatusBadRequest, "bad request body: json: invalid escape in string literal"},
		{"a body that ends on a backslash", unitA + `void f() { }\`, http.StatusBadRequest, "bad request body: unexpected EOF"},
	}
}

// postError posts body and returns the status and the error it got.
func postError(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct{ Error string }
	json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error
}

// TestAnalyzeErrors pins the error statuses and messages: malformed body,
// empty unit set, unknown checker, and parse errors (which must leave the
// session usable); and that a source with an error is never recorded as
// the tenant's last sent.
func TestAnalyzeErrors(t *testing.T) {
	units := exampleUnits(t)
	s, ts := newTestServer(t, Config{})
	s.maxBody = 8 << 10

	good, err := json.Marshal(AnalyzeRequest{Units: unitsToJSON(units)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range analyzeErrorCases() {
		status, msg := postError(t, ts.URL, tc.body)
		if status != tc.want || !strings.HasPrefix(msg, tc.msg) {
			t.Errorf("%s: status %d, %q; want %d, %q", tc.name, status, msg, tc.want, tc.msg)
		}
		// The request decoder against the one it stands in for.
		var got, ref AnalyzeRequest
		gotErr := decodeRequest(strings.NewReader(tc.body), &got, new(tenant.Sent))
		dec := json.NewDecoder(strings.NewReader(tc.body))
		dec.DisallowUnknownFields()
		refErr := dec.Decode(&ref)
		if (gotErr == nil) != (refErr == nil) {
			t.Errorf("%s: decodeRequest: %v; json.Decoder: %v", tc.name, gotErr, refErr)
		} else if gotErr == nil && !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: decodeRequest read %+v, json.Decoder %+v", tc.name, got, ref)
		}
	}

	// A source with an error, sent in place of one the project's last
	// request sent, is found after its tenant is acquired: the body fails
	// the same way, again when it is sent again, and the good body after it
	// is all hits with the same reports.
	first, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Project: "memo", Units: unitsToJSON(units)})
	rest, err := json.Marshal(unitsToJSON(units[1:]))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range sourceErrorCases() {
		body := `{"project":"memo","units":` + string(rest[:len(rest)-1]) +
			`,{"name":"` + units[0].Name + `","src":"` + strings.TrimPrefix(tc.body, unitA)
		for try := 0; try < 2; try++ {
			if status, msg := postError(t, ts.URL, body); status != tc.want || msg != tc.msg {
				t.Errorf("%s, in place of a unit sent before (try %d): status %d, %q; want %d, %q", tc.name, try, status, msg, tc.want, tc.msg)
			}
		}
		again, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Project: "memo", Units: unitsToJSON(units)})
		if st := again.Stats; st.ArtifactMisses != 0 || st.ArtifactHits != first.Stats.Functions {
			t.Errorf("%s: the good body after it: %d hits, %d misses; want %d hits", tc.name, st.ArtifactHits, st.ArtifactMisses, first.Stats.Functions)
		}
		if !reflect.DeepEqual(again.Reports, first.Reports) {
			t.Errorf("%s: the good body after it reports otherwise than the first", tc.name)
		}
	}

	// Content-Length absent: a body of unknown length goes out chunked.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", io.MultiReader(bytes.NewReader(good)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("chunked body: status %d, want 200", resp.StatusCode)
	}
	// Content-Length wrong, which takes a client that does not check: one
	// that announces less than it sends is cut short; one that announces
	// more and hangs up is not found out, the object being complete.
	for _, tc := range []struct {
		name     string
		announce int
		want     int
	}{{"short", len(good) - 10, http.StatusBadRequest}, {"long", len(good) + 10, http.StatusOK}} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", tc.announce, good)
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("Content-Length too %s: %v", tc.name, err)
		}
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("Content-Length too %s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// The failed updates must not have corrupted the session.
	postAnalyze(t, ts.URL, AnalyzeRequest{Units: unitsToJSON(units)})
}

// TestGracefulShutdown starts a real listener, verifies readiness flips,
// and checks the server drains cleanly.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Logger: quietLogger()})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, 5*time.Second) }()

	// Wait for the listener to come up.
	var base string
	for i := 0; i < 100; i++ {
		if a := s.Addr(); a != nil {
			base = "http://" + a.String()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if base == "" {
		t.Fatal("server did not bind")
	}
	resp, err := http.Get(base + "/v1/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/ready before shutdown: %s", resp.Status)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
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
