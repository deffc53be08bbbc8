package obs

import "testing"

func TestProcessSampler(t *testing.T) {
	rec := New()
	var p ProcessSampler
	p.Sample(rec)
	if rec.Gauge("process.goroutines").Value() <= 0 {
		t.Error("process.goroutines not positive")
	}
	if rec.Gauge("process.heap_bytes").Value() <= 0 {
		t.Error("process.heap_bytes not positive")
	}
	// Nil recorder is a no-op.
	p.Sample(nil)
}
