// Package pinpoint is the front door to the analysis toolkit: one Config
// struct covering the build pipeline, the detection engine, the persistent
// store, and the HTTP service, where previously each layer grew its own
// options type ad hoc (core.BuildOptions, detect.Options, server.Config).
// The CLI, the server, and tests all construct the same Config and derive
// the per-layer options from it, so a knob added here shows up everywhere
// at once and cross-layer settings (worker counts, the metrics recorder,
// the store) cannot drift apart between layers.
//
// Usage:
//
//	rt, err := pinpoint.Open(pinpoint.Config{Workers: -1, StoreDir: dir})
//	defer rt.Close()
//	sess := rt.NewSession()
//	a, err := sess.Update(units)
//	res := a.CheckAll(checkers.All(), rt.DetectOptions())
//
// The per-layer options types remain for callers that need a single layer,
// but new configuration should start here.
package pinpoint

import (
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/pta"
	"repro/internal/server"
	"repro/internal/store"
)

// Config is the unified configuration. The zero value gives the historical
// defaults of every layer: in-memory caches only, sequential build and
// detection, paper-default detection bounds, no metrics recording.
type Config struct {
	// Workers is the worker-pool size for both the per-function build
	// stages and detection (conc.Workers semantics: 0/1 = sequential,
	// negative = GOMAXPROCS). The server also uses it as the per-request
	// default.
	Workers int
	// Obs, when non-nil, receives metrics and (when tracing) spans from
	// every layer; it also backs the server's /metrics endpoint and the
	// disk store's counters.
	Obs *obs.Recorder

	// PTA tunes the local points-to analysis (ablations).
	PTA pta.Options
	// DisableConnectors skips the connector transformation (ablation).
	DisableConnectors bool

	// StoreDir, when non-empty, persists per-function artifacts and SMT
	// verdicts in a DiskStore under this directory: a restarted process
	// pointed at the same directory warm-loads instead of rebuilding.
	// Empty keeps the historical in-memory-only behavior.
	StoreDir string
	// StoreMaxBytes bounds the DiskStore's in-memory residency layer
	// (decoded-record cache). 0 selects the store default; negative
	// disables the bound.
	StoreMaxBytes int64
	// Store overrides StoreDir with an already-open store. The caller
	// keeps ownership: Runtime.Close does not close it.
	Store store.Store

	// MaxCallDepth bounds function instances per path (0 = paper default).
	MaxCallDepth int
	// DisablePathSensitivity reports every candidate unchecked (ablation).
	DisablePathSensitivity bool
	// DisableLinearFilter sends every candidate to the solver (ablation).
	DisableLinearFilter bool
	// Witness enables per-report provenance capture.
	Witness bool

	// Addr is the service listen address (server.Config.Addr).
	Addr string
	// MaxInFlight bounds concurrently admitted analysis requests.
	MaxInFlight int
	// RequestTimeout is the per-request deadline (0 = server default,
	// negative = disabled).
	RequestTimeout time.Duration
	// MaxTenants caps concurrently resident per-project sessions
	// (0 = server default of 64, negative = unlimited); beyond the cap
	// the least-recently-used idle tenant is evicted, persisting first
	// when a store is configured.
	MaxTenants int
	// TenantIdle is the age past which an idle tenant's session is
	// evicted (0 = server default of 15m, negative = disabled).
	TenantIdle time.Duration
	// TenantMaxInFlight bounds concurrently admitted requests per tenant
	// under the global MaxInFlight gate (0 = no per-tenant bound).
	TenantMaxInFlight int
	// TSInterval enables the server's flight recorder: metrics snapshot
	// into in-process ring buffers every interval (0 = disabled, unless
	// SLOTarget forces it on; see server.Config.TSInterval).
	TSInterval time.Duration
	// TSRetention is the ring buffers' covered time span (0 = 10m).
	TSRetention time.Duration
	// SLOTarget sets the analyze-latency objective evaluated over the
	// flight recorder (0 = SLO tracking off).
	SLOTarget time.Duration
	// SLOQuantile is the objective's quantile (0 = 0.95).
	SLOQuantile float64
	// SLOFastWindow and SLOSlowWindow are the burn-rate windows
	// (0 = 5m / 1h).
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	// Logger receives the service's structured request log.
	Logger *slog.Logger
}

// Runtime is an opened Config: the store (if any) is live and every layer's
// options can be derived from it. Close releases what Open acquired.
type Runtime struct {
	cfg   Config
	st    store.Store
	owned bool
}

// Open validates cfg and opens its store. With neither StoreDir nor Store
// set it cannot fail and acquires nothing.
func Open(cfg Config) (*Runtime, error) {
	rt := &Runtime{cfg: cfg, st: cfg.Store}
	if rt.st == nil && cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.DiskOptions{
			MaxResidentBytes: cfg.StoreMaxBytes,
			Obs:              cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		rt.st = st
		rt.owned = true
	}
	return rt, nil
}

// Close releases the store if Open acquired it. A store passed in via
// Config.Store stays open — its owner closes it.
func (rt *Runtime) Close() error {
	if rt.owned && rt.st != nil {
		st := rt.st
		rt.st = nil
		rt.owned = false
		return st.Close()
	}
	return nil
}

// Store reports the runtime's store: Config.Store, the DiskStore opened
// from Config.StoreDir, or nil.
func (rt *Runtime) Store() store.Store { return rt.st }

// BuildOptions derives the build-pipeline options.
func (rt *Runtime) BuildOptions() core.BuildOptions {
	return core.BuildOptions{
		PTA:               rt.cfg.PTA,
		DisableConnectors: rt.cfg.DisableConnectors,
		Workers:           rt.cfg.Workers,
		Obs:               rt.cfg.Obs,
		Store:             rt.st,
	}
}

// DetectOptions derives the detection-engine options.
func (rt *Runtime) DetectOptions() detect.Options {
	return detect.Options{
		MaxCallDepth:           rt.cfg.MaxCallDepth,
		DisablePathSensitivity: rt.cfg.DisablePathSensitivity,
		DisableLinearFilter:    rt.cfg.DisableLinearFilter,
		Workers:                rt.cfg.Workers,
		Witness:                rt.cfg.Witness,
		Obs:                    rt.cfg.Obs,
	}
}

// ServerConfig derives the HTTP-service configuration.
func (rt *Runtime) ServerConfig() server.Config {
	return server.Config{
		Addr:              rt.cfg.Addr,
		MaxInFlight:       rt.cfg.MaxInFlight,
		RequestTimeout:    rt.cfg.RequestTimeout,
		Workers:           rt.cfg.Workers,
		Logger:            rt.cfg.Logger,
		Rec:               rt.cfg.Obs,
		Store:             rt.st,
		MaxTenants:        rt.cfg.MaxTenants,
		TenantIdle:        rt.cfg.TenantIdle,
		TenantMaxInFlight: rt.cfg.TenantMaxInFlight,
		TSInterval:        rt.cfg.TSInterval,
		TSRetention:       rt.cfg.TSRetention,
		SLOTarget:         rt.cfg.SLOTarget,
		SLOQuantile:       rt.cfg.SLOQuantile,
		SLOFastWindow:     rt.cfg.SLOFastWindow,
		SLOSlowWindow:     rt.cfg.SLOSlowWindow,
	}
}

// NewSession creates an incremental build session from the runtime's
// build options (store-backed when the runtime has a persistent store).
func (rt *Runtime) NewSession() *core.Session {
	return core.NewSession(rt.BuildOptions())
}

// NewServer creates the analysis service from the runtime's configuration.
func (rt *Runtime) NewServer() *server.Server {
	return server.New(rt.ServerConfig())
}
