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

// handleMetrics exposes the recorder in Prometheus text format. The
// snapshot is lock-consistent, so a scrape racing an in-flight analysis
// sees a coherent view.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.rec.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is log.
		reqInfo(r).Log.Warn("metrics write failed", "err", err.Error())
	}
}

// tenantsDebug is the GET /v1/debug/tenants schema: the tenant.Snapshot
// (resident set, per-tenant occupancy and last-use clocks, eviction
// counters).
type tenantsDebug = tenant.Snapshot

func (s *Server) handleDebugTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, tenantsDebug(s.tenants.Snapshot()))
}

// storeDebug is the GET /v1/debug/store schema: whether a persistent
// store backs the session, its record traffic and on-disk occupancy, and the
// last compaction. Counters are cumulative since the store was opened.
type storeDebug struct {
	// Persistent is true when a store is configured (-store-dir); the server
	// runs memory-only otherwise, and every other field is zero.
	Persistent bool        `json:"persistent"`
	Stats      store.Stats `json:"stats"`
	// ArtifactStoreHits is the number of artifacts the session's last
	// Update warm-loaded from the store instead of rebuilding.
	ArtifactStoreHits int `json:"artifactStoreHits"`
}

func (s *Server) handleDebugStore(w http.ResponseWriter, r *http.Request) {
	var d storeDebug
	if st := s.cfg.Store; st != nil {
		d.Persistent = true
		d.Stats = st.Stat()
		s.tenants.View(store.DefaultProject, func(sess *core.Session) {
			d.ArtifactStoreHits = sess.ArtifactStats().StoreHits
		})
	}
	writeJSON(w, http.StatusOK, d)
}

// inflightDebug is the GET /v1/debug/inflight schema.
type inflightDebug struct {
	Limit    int            `json:"limit"`
	InFlight int            `json:"inFlight"`
	Requests []inflightJSON `json:"requests"`
}

func (s *Server) handleDebugInflight(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, inflightDebug{
		Limit:    s.gate.Limit(),
		InFlight: s.gate.InFlight(),
		Requests: s.snapshotInflight(),
	})
}
