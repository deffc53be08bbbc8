package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrent-safe, get-or-create store of named metrics.
// Lookups take a read lock; the metrics themselves are lock-free atomics,
// so hot paths should hoist the lookup out of loops and hammer the metric
// directly.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.RLock()
	c := g.counters[name]
	g.mu.RUnlock()
	if c != nil {
		return c
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if c = g.counters[name]; c == nil {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (g *Registry) Gauge(name string) *Gauge {
	if g == nil {
		return nil
	}
	g.mu.RLock()
	v := g.gauges[name]
	g.mu.RUnlock()
	if v != nil {
		return v
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if v = g.gauges[name]; v == nil {
		v = &Gauge{}
		g.gauges[name] = v
	}
	return v
}

// Histogram returns the named histogram, creating it on first use.
func (g *Registry) Histogram(name string) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.RLock()
	h := g.hists[name]
	g.mu.RUnlock()
	if h != nil {
		return h
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if h = g.hists[name]; h == nil {
		h = &Histogram{}
		h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64
		g.hists[name] = h
	}
	return h
}

// DropHistogram removes the named histogram, so that a series whose subject is
// gone (an evicted tenant's) stops being exported. A holder of the histogram
// may still observe into it; nothing reads it again.
func (g *Registry) DropHistogram(name string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	delete(g.hists, name)
	g.mu.Unlock()
}

// Counter is a monotonically accumulating int64 (atomic; nil-safe).
type Counter struct{ v atomic.Int64 }

// Add accumulates delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc accumulates one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins int64 (atomic; nil-safe).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Snapshot is a deterministic (sorted-key) copy of a registry's metrics,
// shaped for JSON export.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric. Maps marshal with sorted keys, so the JSON
// form is deterministic given deterministic metric values.
func (g *Registry) Snapshot() Snapshot {
	if g == nil {
		return Snapshot{}
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := Snapshot{}
	if len(g.counters) > 0 {
		s.Counters = make(map[string]int64, len(g.counters))
		for name, c := range g.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(g.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(g.gauges))
		for name, v := range g.gauges {
			s.Gauges[name] = v.Value()
		}
	}
	if len(g.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(g.hists))
		for name, h := range g.hists {
			hs := h.Snapshot()
			hs.Unit = UnitOf(name)
			s.Histograms[name] = hs
		}
	}
	return s
}

// Names lists every registered metric name, sorted, primarily for tests.
func (g *Registry) Names() []string {
	if g == nil {
		return nil
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for n := range g.counters {
		out = append(out, n)
	}
	for n := range g.gauges {
		out = append(out, n)
	}
	for n := range g.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
