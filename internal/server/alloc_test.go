package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// A pooled body buffer is replaced with room to spare, so the body of a
// program that grew by a line since the last request fits in it.
func TestBodyBufferHeadroom(t *testing.T) {
	var mem []byte
	const size = 400 << 10
	fit(&mem, size)
	if cap(mem) < size {
		t.Fatalf("a buffer fit for %d bytes holds %d", size, cap(mem))
	}
	held := unsafe.SliceData(mem[:1])
	for _, grown := range []int64{size, size + int64(len("\tseed = seed + 1;\n")), size + 16<<10} {
		fit(&mem, grown)
		if unsafe.SliceData(mem[:1]) != held {
			t.Errorf("a body of %d bytes after one of %d replaced the buffer", grown, size)
		}
	}
}

// discard is a ResponseWriter that keeps the status and nothing of the body.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(status int)      { d.status = status }

// The budget of a served edit: what the whole handler allocates for a
// driver edit, and for the identical resubmit after it, on the 20k-line
// ladder (a 0.4 MB body, 377 reports), beyond the request it is handed.
// Measured values plus 15 %, the least of five edits on one P, as
// TestUpdateEditBudget takes its own. A request allocates what the session's
// Update and the CheckAll after it do (TestUpdateEditBudget), the edited
// unit's strings, and little else: the body is read into a pooled buffer
// that has room for a program that grows, and the reports are the run's
// encoding, made once per list and copied into a pooled response buffer.
// (Before, they allocated 698.2 KiB and 85.6 KiB: a fresh body buffer
// whenever the body grew, a []detect.JSONReport per request, and a copy of
// the report list per edit.) Neither may encode a report anew.
const (
	measuredServedEditBytes     = 156.5 * (1 << 10)
	measuredServedResubmitBytes = 22 << 10
)

func TestServedEditAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	if testing.Short() {
		t.Skip("builds the 20k-line ladder")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(Config{Workers: 1, Logger: quietLogger()})
	s.ready.Store(true)
	h := s.Handler()
	_, units := ladderBody(t, 600)
	// serve answers one request and returns what handling it allocated and
	// the reports it encoded anew.
	serve := func(what string, body []byte) (size uint64, encoded int64) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		w := &discard{h: make(http.Header)}
		before := s.rec.Snapshot().Counters["detect.reports_encoded"]
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&m1)
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", what, w.status)
		}
		return m1.TotalAlloc - m0.TotalAlloc, s.rec.Snapshot().Counters["detect.reports_encoded"] - before
	}
	body := unitsBody(t, units)
	if _, encoded := serve("first request", body); encoded == 0 {
		t.Fatal("the first request encoded no report")
	}
	least := [2]uint64{^uint64(0), ^uint64(0)}
	for i := 0; i < 5; i++ {
		at := strings.LastIndex(units[i].Src, "\nvoid drive_")
		cut := at + 1 + strings.IndexByte(units[i].Src[at+1:], '\n') + 1
		units[i].Src = units[i].Src[:cut] + "\tseed = seed + 1;\n" + units[i].Src[cut:]
		body = unitsBody(t, units)
		for k, what := range []string{"driver edit", "resubmit"} {
			size, encoded := serve(what, body)
			if encoded != 0 {
				t.Errorf("%s %d encoded %d reports anew, want 0", what, i, encoded)
			}
			least[k] = min(least[k], size)
		}
	}
	for k, row := range []struct {
		what   string
		budget float64
	}{{"driver edit", measuredServedEditBytes}, {"resubmit", measuredServedResubmitBytes}} {
		t.Logf("per %s: %.1f KiB, budget %.0f KiB, body %d KiB", row.what, float64(least[k])/1024, row.budget*1.15/1024, len(body)>>10)
		if float64(least[k]) > row.budget*1.15 {
			t.Errorf("a %s allocated %d KiB, budget %.0f KiB", row.what, least[k]>>10, row.budget*1.15/1024)
		}
	}
}
