package server

import (
	"time"

	"repro/internal/obs"
)

// SLO burn-rate tracking. The objective is a latency target — "the SLOQuantile
// fraction of analyze requests finish within SLOTarget" — and the burn rate
// measures how fast the error budget (the allowed 1-SLOQuantile violation
// fraction) is being spent:
//
//	burn = (violations/requests over window) / (1 - quantile)
//
// A burn of 1 spends the budget exactly as fast as the objective allows;
// above 1 the deployment is on track to blow the objective. Two windows in
// the Google SRE style: a fast window (default 5m) that pages quickly on
// sharp regressions, and a slow window (default 1h) that catches sustained
// low-grade burn. Both are computed from the flight recorder's ring buffer
// (CounterDelta over the cumulative request/violation counters), so SLO
// tracking requires the sampler and costs nothing per request beyond two
// counter increments.

// Default SLO evaluation parameters (Config fields override).
const (
	DefaultSLOQuantile   = 0.95
	DefaultSLOFastWindow = 5 * time.Minute
	DefaultSLOSlowWindow = time.Hour
)

const (
	sloRequestsMetric   = "server.slo_requests"
	sloViolationsMetric = "server.slo_violations"
)

// sloTracker evaluates one latency objective over the flight recorder.
type sloTracker struct {
	target   time.Duration
	quantile float64
	fast     time.Duration
	slow     time.Duration
	sampler  *obs.Sampler

	// Hoisted handles: the request path hits these per analyze request.
	requests   *obs.Counter
	violations *obs.Counter
	burnFast   *obs.FloatGauge
	burnSlow   *obs.FloatGauge
}

// newSLOTracker builds a tracker, or nil (a no-op everywhere) when no
// target is configured.
func newSLOTracker(rec *obs.Recorder, sampler *obs.Sampler, cfg Config) *sloTracker {
	if cfg.SLOTarget <= 0 || rec == nil {
		return nil
	}
	q := cfg.SLOQuantile
	if q <= 0 || q >= 1 {
		q = DefaultSLOQuantile
	}
	fast, slow := cfg.SLOFastWindow, cfg.SLOSlowWindow
	if fast <= 0 {
		fast = DefaultSLOFastWindow
	}
	if slow <= 0 {
		slow = DefaultSLOSlowWindow
	}
	t := &sloTracker{
		target:     cfg.SLOTarget,
		quantile:   q,
		fast:       fast,
		slow:       slow,
		sampler:    sampler,
		requests:   rec.Counter(sloRequestsMetric),
		violations: rec.Counter(sloViolationsMetric),
		burnFast:   rec.FloatGauge(obs.Labeled("server.slo_burn_rate", "window", "fast")),
		burnSlow:   rec.FloatGauge(obs.Labeled("server.slo_burn_rate", "window", "slow")),
	}
	sampler.OnSample(t.onSample)
	return t
}

// observe folds one completed analyze request into the objective. Nil-safe:
// with no SLO configured the request path records nothing, keeping /v1/metrics
// byte-identical to the SLO-less server.
func (t *sloTracker) observe(d time.Duration) {
	if t == nil {
		return
	}
	t.requests.Inc()
	if d > t.target {
		t.violations.Inc()
	}
}

// onSample recomputes both burn-rate gauges from the ring buffer. Runs as a
// sampler hook, outside the sampler lock, so gauge writes land in the
// registry normally (and are themselves sampled next tick).
func (t *sloTracker) onSample(time.Time) {
	fast, _ := t.burnOver(t.fast)
	slow, _ := t.burnOver(t.slow)
	t.burnFast.Set(fast)
	t.burnSlow.Set(slow)
}

// burnOver computes the burn rate over one trailing window. Always finite:
// zero requests burn nothing, and the budget divisor is the configured
// quantile's complement (quantile < 1 by construction).
func (t *sloTracker) burnOver(window time.Duration) (burn float64, w sloWindow) {
	w.Window = window
	req, span, ok := t.sampler.CounterDelta(sloRequestsMetric, window)
	if !ok {
		return 0, w
	}
	viol, _, _ := t.sampler.CounterDelta(sloViolationsMetric, window)
	w.SpanNs = span.Nanoseconds()
	w.Requests = int64(req)
	w.Violations = int64(viol)
	if req <= 0 {
		return 0, w
	}
	w.ViolationRate = viol / req
	w.BurnRate = w.ViolationRate / (1 - t.quantile)
	return w.BurnRate, w
}

// sloWindow is one window's evaluation in the GET /v1/debug/slo payload.
type sloWindow struct {
	// Label is "fast" or "slow"; Window the configured width and SpanNs the
	// span the ring buffer actually covered (shorter early in the process's
	// life).
	Label    string        `json:"window"`
	Window   time.Duration `json:"-"`
	WindowNs int64         `json:"windowNs"`
	SpanNs   int64         `json:"spanNs"`
	// Requests and Violations are the deltas over the span.
	Requests      int64   `json:"requests"`
	Violations    int64   `json:"violations"`
	ViolationRate float64 `json:"violationRate"`
	BurnRate      float64 `json:"burnRate"`
}

// sloDebug is the GET /v1/debug/slo schema.
type sloDebug struct {
	Enabled bool `json:"enabled"`
	// TargetNs and Quantile state the objective: the Quantile fraction of
	// analyze requests must finish within TargetNs.
	TargetNs int64   `json:"targetNs,omitempty"`
	Quantile float64 `json:"quantile,omitempty"`
	// Requests and Violations are cumulative since process start.
	Requests   int64       `json:"requests,omitempty"`
	Violations int64       `json:"violations,omitempty"`
	Windows    []sloWindow `json:"windows,omitempty"`
}

func (t *sloTracker) debug() sloDebug {
	if t == nil {
		return sloDebug{}
	}
	d := sloDebug{
		Enabled:    true,
		TargetNs:   t.target.Nanoseconds(),
		Quantile:   t.quantile,
		Requests:   t.requests.Value(),
		Violations: t.violations.Value(),
	}
	for _, wcfg := range []struct {
		label  string
		window time.Duration
	}{{"fast", t.fast}, {"slow", t.slow}} {
		_, w := t.burnOver(wcfg.window)
		w.Label = wcfg.label
		w.WindowNs = wcfg.window.Nanoseconds()
		d.Windows = append(d.Windows, w)
	}
	return d
}
