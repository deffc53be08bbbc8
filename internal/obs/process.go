package obs

import (
	"runtime"
	"sync"
)

// Process self-metrics, read from the runtime into the ordinary registry so
// they ride the same exposition as the app metrics:
//
//	process.goroutines   gauge      runtime.NumGoroutine
//	process.heap_bytes   gauge      MemStats.HeapAlloc
//	process.gc_pause_ns  histogram  one observation per completed GC cycle

// ProcessSampler carries the between-samples state needed to turn the
// runtime's cumulative GC bookkeeping into per-cycle observations. The zero
// value is ready to use and safe for concurrent use.
type ProcessSampler struct {
	mu        sync.Mutex
	lastNumGC uint32
}

// Sample reads the runtime's current state into rec. ReadMemStats briefly
// stops the world, so callers sample when someone looks (the server does at
// each /v1/metrics scrape), not per request.
func (p *ProcessSampler) Sample(rec *Recorder) {
	if rec == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rec.Gauge("process.goroutines").Set(int64(runtime.NumGoroutine()))
	rec.Gauge("process.heap_bytes").Set(int64(m.HeapAlloc))
	h := rec.Histogram("process.gc_pause_ns")
	n := m.NumGC - p.lastNumGC
	if n > uint32(len(m.PauseNs)) {
		// More cycles than the runtime's pause ring retains; the overwritten
		// ones are lost. Observe what survived.
		n = uint32(len(m.PauseNs))
	}
	// Cycle k's pause is at PauseNs[(k+255)%256]; i counts cycles from 0.
	for i := m.NumGC - n; i < m.NumGC; i++ {
		h.Observe(int64(m.PauseNs[i%256]))
	}
	p.lastNumGC = m.NumGC
}
