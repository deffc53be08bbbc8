package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/tenant"
)

// Flight-recorder debug endpoints: the in-process time-series rings
// (/v1/debug/timeseries), the per-tenant cost ledgers (/v1/debug/costs), and the
// SLO evaluation (/v1/debug/slo). All three are read-only JSON views over
// state the request path maintains anyway.

// timeseriesDebug is the GET /v1/debug/timeseries schema: obs.QueryResult
// plus the enabled flag (a disabled flight recorder answers
// {"enabled":false} rather than 404, so probes need no route knowledge).
type timeseriesDebug struct {
	Enabled bool `json:"enabled"`
	obs.QueryResult
}

// handleDebugTimeseries serves the ring buffers. Query parameters:
//
//	metric  exact base name ("server.phase_ns") or full labeled series
//	        name; empty returns every series
//	since   only points at or after this instant — RFC 3339, a Unix
//	        seconds integer, or a trailing-window duration ("5m" = the
//	        last five minutes)
func (s *Server) handleDebugTimeseries(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		writeJSON(w, http.StatusOK, timeseriesDebug{})
		return
	}
	var since time.Time
	if raw := r.URL.Query().Get("since"); raw != "" {
		var err error
		since, err = parseSince(raw, time.Now())
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": "bad since parameter: " + err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, timeseriesDebug{
		Enabled:     true,
		QueryResult: s.sampler.Query(r.URL.Query().Get("metric"), since),
	})
}

// parseSince accepts the three spellings of a time bound: a duration
// ("5m", trailing window ending now), RFC 3339, or Unix seconds.
func parseSince(raw string, now time.Time) (time.Time, error) {
	if d, err := time.ParseDuration(raw); err == nil {
		if d < 0 {
			d = -d
		}
		return now.Add(-d), nil
	}
	if ts, err := time.Parse(time.RFC3339, raw); err == nil {
		return ts, nil
	}
	if unix, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return time.Unix(unix, 0), nil
	}
	return time.Time{}, fmt.Errorf("%q is not a duration, RFC 3339 time, or Unix seconds", raw)
}

// costsDebug is the GET /v1/debug/costs schema: tenant.CostReport, ranked
// by attributed CPU. Always available — cost metering has no flag.
type costsDebug = tenant.CostReport

func (s *Server) handleDebugCosts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, costsDebug(s.tenants.Costs()))
}

// handleDebugSLO serves the SLO evaluation; {"enabled":false} when no
// -slo-target is configured.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.debug())
}
