package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span that
// caused it (0 = none); spans of one workload share its root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      string `json:"op"`
	Name    string `json:"name,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, which is how the untraced side of the overhead
// comparison runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, op, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// busy sums the durations of every span with the given op, in seconds.
func (t *tracer) busy(op string) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans {
		if s.Op == op {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other or stick out of the parent; only the union inside the parent
// counts.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].StartNs < ch[j].StartNs })
		var covered int64
		cursor := s.StartNs
		for _, c := range ch {
			lo, hi := max(c.StartNs, cursor), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// selfByOp sums self time per op, in seconds.
func selfByOp(spans []span) map[string]float64 {
	out := make(map[string]float64)
	self := selfTimes(spans)
	for _, s := range spans {
		out[s.Op] += float64(self[s.ID]) / 1e9
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// overheadShare is what tracing cost the traced run: spans recorded times
// the measured cost of recording one, over the wall time they were
// recorded in. Timing the same work with and without spans and
// subtracting would be the direct way, but on a shared VM two runs of
// the same two seconds differ by ±10% and the spans cost a fraction of a
// percent, so the difference is noise of either sign; the product is
// exact to within the cost measurement.
func (t *tracer) overheadShare(wall time.Duration) float64 {
	if t == nil || wall <= 0 {
		return 0
	}
	return float64(len(t.spans)) * spanCost().Seconds() / wall.Seconds()
}

// spanCost times one begin/end pair on a scratch tracer (best of three
// batches, so a preemption does not count).
func spanCost() time.Duration {
	const n = 20000
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		scratch := newTracer()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			scratch.end(scratch.begin(0, "probe", "name"))
		}
		if d := time.Since(t0) / n; d < best {
			best = d
		}
	}
	return best
}
