package server

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tenant"
)

// handleHealthz is the liveness probe: the process is up and the mux is
// answering. Always 200 while the listener is alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is the readiness probe: 200 while the server accepts work,
// 503 once graceful shutdown has begun (load balancers drain on this).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

// handleMetrics exposes the recorder in Prometheus text format, with the
// process.* runtime metrics read at the scrape. The snapshot is
// lock-consistent, so a scrape racing an in-flight analysis sees a coherent
// view.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.proc.Sample(s.rec)
	if err := s.rec.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is log.
		reqInfo(r).Log.Warn("metrics write failed", "err", err.Error())
	}
}

// debugDoc is the GET /v1/debug schema: what the process holds right now,
// one section per holder.
type debugDoc struct {
	// Tenants is the resident set: per-tenant occupancy and last-use
	// clocks, and the eviction count.
	Tenants tenant.Snapshot `json:"tenants"`
	// Inflight is the admission gate and the requests being served.
	Inflight inflightDebug `json:"inflight"`
	// Store is the persistent store's occupancy.
	Store storeDebug `json:"store"`
}

// storeDebug says whether a persistent store backs the sessions, its record
// traffic and on-disk occupancy, and the last compaction. Counters are
// cumulative since the store was opened.
type storeDebug struct {
	// Persistent is true when a store is configured (-store-dir); the server
	// runs memory-only otherwise, and every other field is zero.
	Persistent bool        `json:"persistent"`
	Stats      store.Stats `json:"stats"`
	// ArtifactStoreHits is the number of artifacts the default session's last
	// Update warm-loaded from the store instead of rebuilding.
	ArtifactStoreHits int `json:"artifactStoreHits"`
}

type inflightDebug struct {
	Limit    int            `json:"limit"`
	InFlight int            `json:"inFlight"`
	Requests []inflightJSON `json:"requests"`
}

func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	d := debugDoc{
		Tenants: s.tenants.Snapshot(),
		Inflight: inflightDebug{
			Limit:    s.gate.Limit(),
			InFlight: s.gate.InFlight(),
			Requests: s.snapshotInflight(),
		},
	}
	if st := s.cfg.Store; st != nil {
		d.Store.Persistent = true
		d.Store.Stats = st.Stat()
		s.tenants.View(store.DefaultProject, func(sess *core.Session) {
			d.Store.ArtifactStoreHits = sess.ArtifactStats().StoreHits
		})
	}
	writeJSON(w, http.StatusOK, d)
}
