// Package server exposes the analysis pipeline as a long-lived HTTP
// service: persistent core.Sessions answer POST /v1/analyze requests so
// repeated analyses of an evolving program reuse the incremental artifact
// store and the sticky detection caches, while the process's live metrics
// are scraped from GET /v1/metrics in Prometheus text format.
//
// The service is multi-tenant: a tenant.Manager maps the request's
// `project` field (absent = "default") to an independently locked session,
// so different projects build and detect concurrently while same-project
// requests keep serialized, sticky-cache-identical semantics —
// core.Session.Update is not safe for concurrent use. A global conc.Gate
// still bounds how many requests may even be queued, so overload turns
// into fast 429/timeout responses and backpressure rather than unbounded
// memory growth. Every request gets a trace ID that is threaded through
// its structured log lines, its response body and header, and (when
// tracing) the detection scheduler's task spans.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Config parameterizes a Server. The zero value is usable: it listens on a
// random localhost port, admits GOMAXPROCS concurrent requests, applies a
// 2-minute per-request deadline, and logs text lines to stderr.
type Config struct {
	// Addr is the listen address ("host:port"). Empty means
	// "127.0.0.1:0" (a random localhost port; see Server.Addr).
	Addr string
	// MaxInFlight bounds concurrently admitted /v1/analyze requests,
	// normalized by conc.Workers (0/1 = one at a time, negative =
	// GOMAXPROCS). Requests beyond the bound wait on the gate until their
	// deadline expires.
	MaxInFlight int
	// RequestTimeout is the per-request deadline covering both gate
	// admission and analysis. Zero means 2 minutes; negative disables the
	// deadline.
	RequestTimeout time.Duration
	// Workers is the default build/detection worker-pool size for
	// requests that don't set their own (conc.Workers semantics).
	Workers int
	// Logger receives the structured request log. Nil means a text
	// handler on stderr at Info level.
	Logger *slog.Logger
	// Rec is the process-wide metrics recorder backing /v1/metrics. Nil
	// means a fresh non-tracing recorder.
	Rec *obs.Recorder
	// Store, when non-nil and persistent, backs the sessions' artifacts
	// (see internal/store): a restarted server
	// pointed at the same store directory warm-loads instead of cold
	// building. Non-default tenants get a per-project namespaced view of
	// this store (store.Namespaced), so one physical store serves every
	// project without key collisions. The caller owns the store and closes
	// it after Serve returns. Nil keeps the historical in-memory-only
	// behavior.
	Store store.Store
	// MaxTenants caps concurrently resident per-project sessions
	// (tenant.Config.MaxResident semantics: 0 = 64, negative = unlimited).
	// Admitting a project beyond the cap evicts the least-recently-used
	// idle tenant, persisting it first when a store is configured.
	MaxTenants int
	// TenantIdle is the age past which an idle tenant's session is evicted
	// (0 = 15 minutes, negative disables idle eviction).
	TenantIdle time.Duration
}

// Server is the analysis service. Create with New, then Serve or
// ListenAndServe.
type Server struct {
	cfg  Config
	log  *slog.Logger
	rec  *obs.Recorder
	gate *conc.Gate

	// proc reads the process.* runtime metrics into rec at each scrape.
	proc obs.ProcessSampler

	// tenants maps project IDs to independently locked sessions; see
	// internal/tenant for the lock hierarchy and eviction policy.
	tenants *tenant.Manager

	ready  atomic.Bool
	reqSeq atomic.Uint64
	// maxBody caps an analyze request's body, in bytes.
	maxBody int64

	inMu     sync.Mutex
	inflight map[uint64]*inflightEntry

	// The server.* metrics track records, each looked up by name once: the
	// gauge and the units_unescaped counter in New, the others at the first
	// finished request and the first error, which is when /v1/metrics has
	// always begun to list them.
	inflightGauge   *obs.Gauge
	unitsUnescaped  *obs.Counter
	finished, erred sync.Once
	requests        *obs.Counter
	requestNs       *obs.Histogram
	errors          *obs.Counter

	addrMu sync.Mutex
	addr   net.Addr
}

type inflightEntry struct {
	TraceID string
	Method  string
	Path    string
	Start   time.Time
}

// New builds a Server from cfg. The default tenant's session is created
// eagerly so the first /v1/analyze request behaves exactly like every later
// one.
func New(cfg Config) *Server {
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	rec := cfg.Rec
	if rec == nil {
		rec = obs.New()
	}
	return &Server{
		cfg:  cfg,
		log:  log,
		rec:  rec,
		gate: conc.NewGate(cfg.MaxInFlight),
		tenants: tenant.NewManager(tenant.Config{
			MaxResident: cfg.MaxTenants,
			IdleTTL:     cfg.TenantIdle,
			Build:       core.BuildOptions{Workers: cfg.Workers, Obs: rec, Store: cfg.Store},
			Obs:         rec,
		}),
		inflight:       make(map[uint64]*inflightEntry),
		inflightGauge:  rec.Gauge("server.inflight"),
		unitsUnescaped: rec.Counter("server.units_unescaped"),
		maxBody:        64 << 20,
	}
}

// Handler returns the service's route table: every handler is registered
// once, under /v1/. Useful for tests (httptest.NewServer) and for
// embedding under a larger mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/health", s.handleHealthz)
	mux.HandleFunc("GET /v1/ready", s.handleReadyz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/debug", s.handleDebug)
	return s.track(mux)
}

// ListenAndServe binds cfg.Addr and serves until ctx is canceled, then
// shuts down gracefully (in-flight requests get gracePeriod to finish).
func (s *Server) ListenAndServe(ctx context.Context, gracePeriod time.Duration) error {
	addr := s.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, gracePeriod)
}

// Serve runs the service on an existing listener until ctx is canceled.
func (s *Server) Serve(ctx context.Context, ln net.Listener, gracePeriod time.Duration) error {
	s.addrMu.Lock()
	s.addr = ln.Addr()
	s.addrMu.Unlock()

	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.ready.Store(true)
	s.log.Info("serving", "addr", ln.Addr().String(),
		"max_in_flight", s.gate.Limit(), "request_timeout", s.requestTimeout().String(),
		"max_tenants", s.tenants.Snapshot().MaxResident)

	// Idle janitor: Acquire sweeps lazily, but a server with no traffic
	// should still release evictable sessions, so sweep on a timer too.
	if ttl := time.Duration(s.tenants.Snapshot().IdleTTLNs); ttl > 0 {
		tick := ttl / 4
		if tick < time.Second {
			tick = time.Second
		}
		if tick > time.Minute {
			tick = time.Minute
		}
		janitor := time.NewTicker(tick)
		defer janitor.Stop()
		jctx, jcancel := context.WithCancel(ctx)
		defer jcancel()
		go func() {
			for {
				select {
				case <-jctx.Done():
					return
				case <-janitor.C:
					if n := s.tenants.SweepIdle(); n > 0 {
						s.log.Info("evicted idle tenants", "count", n)
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		s.ready.Store(false)
		s.log.Info("shutting down", "grace", gracePeriod.String())
		sctx, cancel := context.WithTimeout(context.Background(), gracePeriod)
		defer cancel()
		err := hs.Shutdown(sctx)
		<-errc // Serve has returned http.ErrServerClosed
		return err
	case err := <-errc:
		s.ready.Store(false)
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// Addr reports the bound listen address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	return s.addr
}

func (s *Server) requestTimeout() time.Duration {
	switch {
	case s.cfg.RequestTimeout == 0:
		return 2 * time.Minute
	case s.cfg.RequestTimeout < 0:
		return 0
	default:
		return s.cfg.RequestTimeout
	}
}

// newTraceID mints a random 64-bit hex trace ID.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a process-unique (if not globally unique) ID; the
		// ID only correlates logs, so uniqueness is best-effort.
		return "trace-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeTraceID vets an inbound X-Trace-Id: 1..64 bytes of
// [A-Za-z0-9-], or "" (mint a fresh one). The ID is echoed into response
// headers and structured logs, so anything else — header injection
// attempts, log-splitting newlines, unbounded junk — is discarded rather
// than propagated.
func sanitizeTraceID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '-':
		default:
			return ""
		}
	}
	return id
}

// track wraps the mux with per-request bookkeeping: a trace ID (minted or
// taken from a well-formed X-Trace-Id header), request-scoped structured
// logs, the in-flight table behind /v1/debug, and the server.* metrics.
func (s *Server) track(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID := sanitizeTraceID(r.Header.Get("X-Trace-Id"))
		if traceID == "" {
			traceID = newTraceID()
		}
		id := s.reqSeq.Add(1)
		start := time.Now()
		s.inMu.Lock()
		s.inflight[id] = &inflightEntry{
			TraceID: traceID, Method: r.Method, Path: r.URL.Path, Start: start,
		}
		s.inMu.Unlock()
		s.inflightGauge.Add(1)
		defer func() {
			s.inflightGauge.Add(-1)
			s.inMu.Lock()
			delete(s.inflight, id)
			s.inMu.Unlock()
		}()

		log := s.log.With("trace_id", traceID, "method", r.Method, "path", r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sw.Header().Set("X-Trace-Id", traceID)

		ctx := withRequestInfo(r.Context(), &requestInfo{TraceID: traceID, Log: log})
		next.ServeHTTP(sw, r.WithContext(ctx))

		d := time.Since(start)
		s.finished.Do(func() {
			s.requests, s.requestNs = s.rec.Counter("server.requests"), s.rec.Histogram("server.request_ns")
		})
		s.requests.Inc()
		if sw.status >= 400 {
			s.erred.Do(func() { s.errors = s.rec.Counter("server.errors") })
			s.errors.Inc()
		}
		s.requestNs.Observe(int64(d))
		// /v1/metrics and health probes would drown the request log; keep
		// Info for the endpoints that do work.
		lvl := slog.LevelInfo
		if r.URL.Path != "/v1/analyze" {
			lvl = slog.LevelDebug
		}
		log.Log(r.Context(), lvl, "request done", "status", sw.status, "dur", d.String())
	})
}

// requestInfo carries per-request context down to handlers.
type requestInfo struct {
	TraceID string
	Log     *slog.Logger
}

type ctxKey struct{}

func withRequestInfo(ctx context.Context, ri *requestInfo) context.Context {
	return context.WithValue(ctx, ctxKey{}, ri)
}

func reqInfo(r *http.Request) *requestInfo {
	if ri, ok := r.Context().Value(ctxKey{}).(*requestInfo); ok {
		return ri
	}
	return &requestInfo{TraceID: "", Log: slog.New(slog.NewTextHandler(os.Stderr, nil))}
}

// statusWriter records the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// snapshotInflight renders the in-flight table sorted by start time.
func (s *Server) snapshotInflight() []inflightJSON {
	now := time.Now()
	s.inMu.Lock()
	out := make([]inflightJSON, 0, len(s.inflight))
	for _, e := range s.inflight {
		out = append(out, inflightJSON{
			TraceID:   e.TraceID,
			Method:    e.Method,
			Path:      e.Path,
			ElapsedNs: now.Sub(e.Start).Nanoseconds(),
		})
	}
	s.inMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ElapsedNs > out[j].ElapsedNs })
	return out
}

type inflightJSON struct {
	TraceID   string `json:"traceId"`
	Method    string `json:"method"`
	Path      string `json:"path"`
	ElapsedNs int64  `json:"elapsedNs"`
}
