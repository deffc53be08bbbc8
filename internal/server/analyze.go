package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/checkers"
	"repro/internal/conc"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// AnalyzeRequest is the POST /v1/analyze body: the full set of translation
// units (the session diffs them against the previous request, so unchanged
// functions are served from the artifact store) plus detection options.
type AnalyzeRequest struct {
	// Project routes the request to a per-project session (see
	// internal/tenant): requests for different projects analyze
	// concurrently, same-project requests serialize on that project's
	// session. Absent or empty means the "default" tenant — the exact
	// behavior of the pre-tenant server. IDs are 1..64 bytes of
	// [A-Za-z0-9._-].
	Project string `json:"project,omitempty"`
	// Units is the complete program, one entry per translation unit.
	Units []UnitJSON `json:"units"`
	// Checkers selects detectors by registry name or alias; empty or
	// ["all"] runs every registered checker.
	Checkers []string `json:"checkers,omitempty"`
	// Witness enables per-report provenance capture
	// (detect.Options.Witness).
	Witness bool `json:"witness,omitempty"`
	// Workers overrides the server's default worker-pool size for this
	// request (conc.Workers semantics). Nil keeps the server default.
	Workers *int `json:"workers,omitempty"`
	// MaxCallDepth overrides the demand-driven search's call-depth bound;
	// 0 keeps the engine default.
	MaxCallDepth int `json:"maxCallDepth,omitempty"`
}

// UnitJSON is one named translation unit.
type UnitJSON struct {
	Name string `json:"name"`
	Src  string `json:"src"`
}

// AnalyzeResponse is the POST /v1/analyze reply. Reports uses the exact
// detect.JSONReport schema of `pinpoint -format json`, so batch and served
// analyses of the same program are byte-identical report-for-report. The
// server leaves it empty and writes the detection run's own encoding
// (detect.Results.AppendJSON) in its place.
type AnalyzeResponse struct {
	TraceID string `json:"traceId"`
	// Project echoes the request's project field. Omitted when the
	// request didn't set one, so single-tenant response bodies stay
	// byte-identical to the pre-tenant server's.
	Project string              `json:"project,omitempty"`
	Reports []detect.JSONReport `json:"reports"`
	Stats   AnalyzeStats        `json:"stats"`
	Timing  TimingJSON          `json:"timing"`
	// results is the detection run whose reports are sent.
	results *detect.Results
	// unitsUnescaped counts the units whose bytes differed from those the
	// tenant's last request sent; it is logged, not sent.
	unitsUnescaped int
}

// TimingJSON attributes one request's server-side wall clock to phases.
// The top-level phases partition TotalNs exactly:
//
//	TotalNs = DecodeNs + QueueWaitNs + SessionWaitNs + BuildNs + DetectNs + OtherNs
//
// with OtherNs computed as the remainder (checker resolution, report
// marshaling, response assembly). ParseNs/StoreLoadNs/StoreSaveNs are
// slices of BuildNs, so they refine their parent without double counting in
// the sum; SMTNs is solver time summed over the detection workers, which
// exceeds its share of the DetectNs wall when several of them solve at once.
// The same phases feed the server.phase_ns{phase=...} histograms on /v1/metrics.
type TimingJSON struct {
	// TotalNs is wall time inside the analyze handler, from the first
	// byte of body decoding to the assembled response.
	TotalNs int64 `json:"totalNs"`
	// DecodeNs is request-body JSON decoding: reading and scanning the
	// body, and turning the units it holds into strings, which unescapes
	// only those whose bytes differ from what the tenant's last request
	// sent.
	DecodeNs int64 `json:"decodeNs"`
	// QueueWaitNs is admission-gate queueing (saturated server backlog).
	QueueWaitNs int64 `json:"queueWaitNs"`
	// SessionWaitNs is tenant acquisition: resolving (or admitting) the
	// project's tenant, and contention on its single-writer session lock. Only same-project requests contend.
	SessionWaitNs int64 `json:"sessionWaitNs"`
	// BuildNs is Session.Update: parse, diff, rebuild, persist.
	BuildNs int64 `json:"buildNs"`
	// ParseNs is the parse slice of BuildNs.
	ParseNs int64 `json:"parseNs"`
	// StoreLoadNs is the persistent-store warm-load slice of BuildNs.
	StoreLoadNs int64 `json:"storeLoadNs"`
	// StoreSaveNs is the persistent-store persist slice of BuildNs.
	StoreSaveNs int64 `json:"storeSaveNs"`
	// DetectNs is CheckAll: demand-driven search plus SMT.
	DetectNs int64 `json:"detectNs"`
	// SMTNs is the time this request's detection tasks spent deciding
	// feasibility (encode + prefilter + solve), summed over the workers —
	// a CPU-side total, not a slice of the DetectNs wall. Replayed tasks
	// solve nothing and add nothing.
	SMTNs int64 `json:"smtNs"`
	// OtherNs is TotalNs minus every top-level phase.
	OtherNs int64 `json:"otherNs"`
}

// AnalyzeStats summarizes the request's work: what the incremental store
// reused, how large the program is, and where the wall-clock went.
type AnalyzeStats struct {
	Functions           int `json:"functions"`
	ArtifactHits        int `json:"artifactHits"`
	ArtifactMisses      int `json:"artifactMisses"`
	ArtifactInvalidated int `json:"artifactInvalidated"`
	// ArtifactStoreHits counts the artifacts warm-loaded from the
	// persistent store rather than found in memory — nonzero only on the
	// first request after a restart with a populated -store-dir.
	ArtifactStoreHits int `json:"artifactStoreHits"`
	// FunctionsVisited counts the functions the build looked at (see
	// core.ArtifactStats.Visited): all of them on a first request or after
	// an edit that moves a program-level table, otherwise those of the
	// re-parsed units and those that can reach an edited function.
	FunctionsVisited int `json:"functionsVisited"`
	// UnitsParsed counts the translation units the build parsed (see
	// core.ArtifactStats.UnitsParsed): those whose bytes the session did not
	// know — none on a restart with unchanged sources and a populated
	// -store-dir.
	UnitsParsed int   `json:"unitsParsed"`
	Reports     int   `json:"reports"`
	Workers     int   `json:"workers"`
	BuildNs     int64 `json:"buildNs"`
	DetectNs    int64 `json:"detectNs"`
	GateWaitNs  int64 `json:"gateWaitNs"`
	// DetectTasks is the number of tasks the request's detection comprised —
	// one per source and group of checkers that share its walk (with every
	// checker requested, use-after-free and double-free are one group);
	// DetectTasksReplayed of them reused the results recorded by an earlier
	// request instead of searching again. The effort counters below cover
	// both kinds, each checker counting as if it had run alone.
	DetectTasks         int `json:"detectTasks"`
	DetectTasksReplayed int `json:"detectTasksReplayed"`
	SMTQueries          int `json:"smtQueries"`
	SMTSolved           int `json:"smtSolved"`
	SMTPrefilterUnsat   int `json:"smtPrefilterUnsat"`
	// SummaryCacheMisses counts this request's local-flow walks, one per
	// expansion (zero when every task was replayed).
	SummaryCacheMisses int `json:"summaryCacheMisses"`
}

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	ri := reqInfo(r)
	ctx := r.Context()
	if d := s.requestTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	resp, phases, err := s.analyze(ctx, r, ri)
	if err != nil {
		status := http.StatusInternalServerError
		var he *httpError
		switch {
		case errors.As(err, &he):
			status = he.status
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusServiceUnavailable
		case errors.Is(err, context.Canceled):
			// Client went away; the status is never seen but keeps the
			// log honest.
			status = 499
		}
		ri.Log.Warn("analyze failed", "status", status, "err", err.Error())
		writeJSON(w, status, map[string]string{"error": err.Error(), "traceId": ri.TraceID})
		return
	}
	// Encoding the response cannot be in the timing it carries: it has a
	// phase series and a log field of its own.
	encodeStart := time.Now()
	writeAnalyzeResponse(w, resp)
	encodeNs := time.Since(encodeStart).Nanoseconds()
	phases[phaseEncode].Observe(encodeNs)
	ri.Log.Info("analyze done",
		"functions", resp.Stats.Functions,
		"reports", resp.Stats.Reports,
		"artifact_hits", resp.Stats.ArtifactHits,
		"artifact_misses", resp.Stats.ArtifactMisses,
		"units_unescaped", resp.unitsUnescaped,
		"build_ns", resp.Stats.BuildNs,
		"detect_ns", resp.Stats.DetectNs,
		"encode_ns", encodeNs)
}

// analyze serves one request. Beside the response it returns the tenant's
// phase histograms, for the phase that follows it: encoding.
func (s *Server) analyze(ctx context.Context, r *http.Request, ri *requestInfo) (*AnalyzeResponse, []*obs.Histogram, error) {
	reqStart := time.Now()
	size := r.ContentLength
	if size > s.maxBody {
		size = 0 // the reader below cuts it short
	}
	body := openBody(http.MaxBytesReader(nil, r.Body, s.maxBody), size)
	defer body.release()
	var req AnalyzeRequest
	if err := body.decode(&req); err != nil {
		return nil, nil, &httpError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
	decodeNs := time.Since(reqStart)
	if len(body.units) == 0 {
		return nil, nil, &httpError{http.StatusBadRequest, "no translation units"}
	}
	specs, err := resolveCheckers(req.Checkers)
	if err != nil {
		return nil, nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	for i, u := range body.units {
		if len(body.bytes(u.name)) == 0 {
			return nil, nil, &httpError{http.StatusBadRequest, fmt.Sprintf("unit %d has no name", i)}
		}
	}
	workers := s.cfg.Workers
	if req.Workers != nil {
		workers = *req.Workers
	}

	// Admission: wait for a gate slot under the request deadline, so a
	// saturated server sheds queued load instead of accumulating it.
	gateStart := time.Now()
	s.rec.Gauge("server.queue_depth").Add(1)
	err = s.gate.Enter(ctx)
	s.rec.Gauge("server.queue_depth").Add(-1)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, nil, &httpError{http.StatusServiceUnavailable, "server saturated: deadline expired waiting for an analysis slot"}
		}
		return nil, nil, err
	}
	defer s.gate.Leave()
	gateWait := time.Since(gateStart)

	// Each tenant's session is single-writer; Acquire resolves (or admits)
	// the project's tenant and waits for its gate and lock under the
	// request deadline. The elapsed time is exactly the session-wait
	// phase, so the timing partition stays exact per tenant.
	lockStart := time.Now()
	h, err := s.tenants.Acquire(ctx, req.Project)
	sessionWait := time.Since(lockStart)
	if err != nil {
		switch {
		case errors.Is(err, tenant.ErrResidentLimit):
			return nil, nil, &httpError{http.StatusServiceUnavailable, err.Error()}
		case errors.Is(err, context.DeadlineExceeded):
			return nil, nil, &httpError{http.StatusServiceUnavailable, "server saturated: deadline expired waiting for the project's session"}
		case errors.Is(err, context.Canceled):
			return nil, nil, err
		default:
			// The remaining Acquire failure is a malformed project ID.
			return nil, nil, &httpError{http.StatusBadRequest, err.Error()}
		}
	}
	defer h.Release()
	sess := h.Session()

	// The units become strings only now, under the tenant's lock, so that
	// the units its last request sent alike are handed the sources recorded
	// for them and only the others are unescaped; that is the other half of
	// decoding, and the buffer is done with. An error in a source is found
	// here, and the request is at fault.
	stringsStart := time.Now()
	units, unescaped, err := body.sources(sess, h.Sent())
	decodeNs += time.Since(stringsStart)
	if err != nil {
		return nil, nil, &httpError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
	s.unitsUnescaped.Add(int64(unescaped))

	buildStart := time.Now()
	a, err := sess.Update(units)
	if err != nil {
		// A parse/lowering error leaves the session untouched (Update's
		// commit-on-success contract), so the request is at fault.
		return nil, nil, &httpError{http.StatusUnprocessableEntity, err.Error()}
	}
	buildNs := time.Since(buildStart)
	if a.Artifacts.StoreHits > 0 {
		// The greppable restart marker: the persistent store served
		// artifacts that would otherwise have been rebuilt.
		ri.Log.Info("store warm load",
			"artifact_store_hits", a.Artifacts.StoreHits,
			"artifact_hits", a.Artifacts.Hits,
			"artifact_misses", a.Artifacts.Misses,
			"units_from_facts", a.Artifacts.UnitsLoaded,
			"units_parsed", a.Artifacts.UnitsParsed)
	}

	detectStart := time.Now()
	res := a.CheckAll(specs, detect.Options{
		MaxCallDepth: req.MaxCallDepth,
		Workers:      workers,
		Witness:      req.Witness,
		Obs:          s.rec,
	})
	detectNs := time.Since(detectStart)

	stats := AnalyzeStats{
		Functions:           a.Sizes.Functions,
		ArtifactHits:        a.Artifacts.Hits,
		ArtifactMisses:      a.Artifacts.Misses,
		ArtifactInvalidated: a.Artifacts.Invalidated,
		ArtifactStoreHits:   a.Artifacts.StoreHits,
		FunctionsVisited:    a.Artifacts.Visited,
		UnitsParsed:         a.Artifacts.UnitsParsed,
		Reports:             len(res.Reports),
		Workers:             conc.Workers(workers),
		BuildNs:             buildNs.Nanoseconds(),
		DetectNs:            detectNs.Nanoseconds(),
		GateWaitNs:          gateWait.Nanoseconds(),
		DetectTasks:         res.TasksRun + res.TasksReplayed,
		DetectTasksReplayed: res.TasksReplayed,
		SummaryCacheMisses:  res.SummaryMisses,
	}
	var smtNs int64
	for _, cs := range res.Checkers {
		stats.SMTQueries += cs.Stats.SMTQueries
		stats.SMTSolved += cs.Stats.SMTSolved
		stats.SMTPrefilterUnsat += cs.Stats.SMTPrefilterUnsat
		smtNs += int64(cs.Stats.SMTTime)
	}

	timing := TimingJSON{
		DecodeNs:      decodeNs.Nanoseconds(),
		QueueWaitNs:   gateWait.Nanoseconds(),
		SessionWaitNs: sessionWait.Nanoseconds(),
		BuildNs:       buildNs.Nanoseconds(),
		ParseNs:       a.Timings.Parse.Nanoseconds(),
		StoreLoadNs:   a.Timings.StoreLoad.Nanoseconds(),
		StoreSaveNs:   a.Timings.StoreSave.Nanoseconds(),
		DetectNs:      detectNs.Nanoseconds(),
		SMTNs:         smtNs,
	}
	timing.TotalNs = time.Since(reqStart).Nanoseconds()
	timing.OtherNs = timing.TotalNs - timing.DecodeNs - timing.QueueWaitNs -
		timing.SessionWaitNs - timing.BuildNs - timing.DetectNs
	phases := h.Histograms(phaseSeries)
	observePhases(phases, timing)
	return &AnalyzeResponse{TraceID: ri.TraceID, Project: req.Project, Stats: stats, Timing: timing, results: &res, unitsUnescaped: unescaped}, phases, nil
}

// phaseNames are the values of server.phase_ns's phase label: TimingJSON's
// fields in order, then the encoding that follows it.
var phaseNames = [...]string{
	"decode", "queue_wait", "session_wait", "build", "parse",
	"store_load", "store_save", "detect", "smt", "other", "encode",
}

const phaseEncode = len(phaseNames) - 1

// phaseSeries names one tenant's server.phase_ns histograms, in phaseNames
// order: one series per (phase, tenant) pair, so per-project latency is
// scrapeable. The tenant manager drops them when it evicts the tenant.
func phaseSeries(project string) []string {
	names := make([]string, len(phaseNames))
	for i, phase := range phaseNames {
		names[i] = obs.Labeled("server.phase_ns", "phase", phase, "tenant", project)
	}
	return names
}

// observePhases feeds one request's timing breakdown into its tenant's
// histograms.
func observePhases(h []*obs.Histogram, t TimingJSON) {
	for i, ns := range [...]int64{
		t.DecodeNs, t.QueueWaitNs, t.SessionWaitNs, t.BuildNs, t.ParseNs,
		t.StoreLoadNs, t.StoreSaveNs, t.DetectNs, t.SMTNs, t.OtherNs,
	} {
		h[i].Observe(ns)
	}
}

// resolveCheckers maps request names to fresh checker specs. Empty and
// ["all"] mean every registered checker.
func resolveCheckers(names []string) ([]*checkers.Spec, error) {
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		return checkers.All(), nil
	}
	specs := make([]*checkers.Spec, 0, len(names))
	for _, n := range names {
		sp, ok := checkers.ByName(strings.TrimSpace(n))
		if !ok {
			return nil, fmt.Errorf("unknown checker %q (known: %s)", n, strings.Join(checkers.Names(), ", "))
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// responseBufs lends writeAnalyzeResponse the buffers it encodes into.
var responseBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeAnalyzeResponse writes resp as writeJSON would, byte for byte, with
// its reports — the bulk of it — copied from the detection run's encoding
// into a pooled buffer instead of encoded by reflection.
func writeAnalyzeResponse(w http.ResponseWriter, resp *AnalyzeResponse) {
	bp := responseBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"traceId":`...)
	b = appendJSONValue(b, resp.TraceID)
	if resp.Project != "" {
		b = appendJSONValue(append(b, `,"project":`...), resp.Project)
	}
	b = resp.results.AppendJSON(append(b, `,"reports":`...))
	b = appendJSONValue(append(b, `,"stats":`...), resp.Stats)
	b = appendJSONValue(append(b, `,"timing":`...), resp.Timing)
	b = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= 4<<20 { // a buffer that large served an outlier: let it go
		*bp = b
		responseBufs.Put(bp)
	}
}

// appendJSONValue appends what encoding/json's Marshal writes for v, which
// is a string or a struct of numbers: it cannot fail.
func appendJSONValue(dst []byte, v any) []byte {
	b, _ := json.Marshal(v)
	return append(dst, b...)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
