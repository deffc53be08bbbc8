// Package obs is the observability layer of the Pinpoint pipeline: a
// dependency-free metrics registry (counters, gauges, latency histograms),
// hierarchical phase timers, and a span recorder whose buffer exports as
// Chrome trace-event JSON (loadable in chrome://tracing or Perfetto).
//
// The central type is Recorder. One Recorder observes one analysis run; the
// pipeline threads a *Recorder through core.BuildOptions and detect.Options
// and every stage records into it. Two invariants make it safe to wire
// unconditionally:
//
//   - a nil *Recorder is valid everywhere: every method on it (and on the
//     nil metrics it hands out) is a cheap no-op, so disabled observability
//     costs one nil check per call site and allocates nothing;
//   - recording never influences the analysis: metrics and trace events are
//     write-only from the pipeline's point of view, so reports are
//     byte-identical with observability on or off (asserted by the
//     determinism tests in internal/detect).
//
// Conventions: metric names are dot-separated hierarchies with an _ns
// suffix for nanosecond quantities ("phase.parse_ns", "smt.query_ns").
// Trace track 0 ("pipeline") carries the hierarchical phase spans; tracks
// 1..N ("worker N") carry per-function build spans, per-task detection
// spans, and per-query SMT spans.
package obs

import (
	"time"
)

// Recorder is the per-run observability hub: a metrics registry plus an
// optional trace buffer.
type Recorder struct {
	reg   *Registry
	trace *traceBuffer
	t0    time.Time
	now   func() time.Time
}

// New returns a Recorder that collects metrics but no trace events.
func New() *Recorder { return newWithClock(false, time.Now) }

// NewTracing returns a Recorder that collects metrics and trace events.
func NewTracing() *Recorder { return newWithClock(true, time.Now) }

// newWithClock builds a Recorder on an explicit clock (tests pin it).
func newWithClock(tracing bool, now func() time.Time) *Recorder {
	r := &Recorder{reg: NewRegistry(), t0: now(), now: now}
	if tracing {
		r.trace = newTraceBuffer()
	}
	return r
}

// Tracing reports whether trace events are being collected. Callers use it
// to skip building span names and args on hot paths.
func (r *Recorder) Tracing() bool { return r != nil && r.trace != nil }

// Registry returns the underlying metrics registry (nil for a nil
// Recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Counter returns the named counter (nil, and safe to use, for a nil
// Recorder).
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(name)
}

// Gauge returns the named gauge.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(name)
}

// Histogram returns the named histogram.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(name)
}

// Arg is one key/value annotation on a trace event.
type Arg struct {
	Key string
	Val string
}

// Span is an open interval being recorded. End closes it. The zero Span is
// valid and End on it is a no-op, so callers can thread spans through
// without nil checks.
type Span struct {
	r     *Recorder
	name  string
	tid   int
	start time.Time
	args  []Arg
	phase bool
}

// Phase opens a hierarchical phase span on the pipeline track (tid 0).
// Besides the trace event, the phase's duration accumulates in the counter
// "phase.<name>_ns", so the stage breakdown is available from the registry
// even without tracing. Nested phases use slash-separated names
// ("detect/prepare"); nesting on the shared track renders hierarchically in
// trace viewers.
func (r *Recorder) Phase(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, tid: 0, start: r.now(), phase: true}
}

// Span opens a span on an arbitrary track; workers use tid = worker+1.
// Hot paths should guard calls with Tracing() to avoid building names and
// args that would be dropped.
func (r *Recorder) Span(tid int, name string, args ...Arg) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, tid: tid, start: r.now(), args: args}
}

// End closes the span, emitting its trace event (when tracing) and, for
// phases, accumulating the duration counter.
func (s Span) End() {
	if s.r == nil {
		return
	}
	d := s.r.now().Sub(s.start)
	if s.phase {
		s.r.reg.Counter("phase." + s.name + "_ns").Add(int64(d))
	}
	s.r.event(s.tid, s.name, s.start, d, s.args)
}

// Event records a complete span after the fact, from an explicit start time
// and duration. It is the allocation-light path for callers that already
// measured the interval themselves.
func (r *Recorder) Event(tid int, name string, start time.Time, dur time.Duration, args ...Arg) {
	if r == nil {
		return
	}
	r.event(tid, name, start, dur, args)
}

func (r *Recorder) event(tid int, name string, start time.Time, dur time.Duration, args []Arg) {
	if r.trace == nil {
		return
	}
	r.trace.add(traceEvent{
		Name: name,
		Tid:  tid,
		Ts:   start.Sub(r.t0).Microseconds(),
		Dur:  dur.Microseconds(),
		Args: args,
	})
}

// Snapshot returns a deterministic copy of every metric (zero value for a
// nil Recorder).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return r.reg.Snapshot()
}
