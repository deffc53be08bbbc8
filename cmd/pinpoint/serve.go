package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// runServe implements `pinpoint serve`: the analysis pipeline behind a
// persistent HTTP service (see internal/server for the endpoint surface).
func runServe(args []string) {
	fs := flag.NewFlagSet("pinpoint serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7345", "listen address")
	workers := fs.Int("workers", -1, "default build/detection worker-pool size (0/1 = sequential, negative = all CPUs)")
	maxInflight := fs.Int("max-inflight", -1, "max concurrently admitted /v1/analyze requests (0/1 = one at a time, negative = all CPUs)")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request deadline covering queueing and analysis (<=0 disables)")
	grace := fs.Duration("grace", 15*time.Second, "graceful-shutdown drain period for in-flight requests")
	logJSON := fs.Bool("log-json", false, "emit the structured request log as JSON lines instead of text")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	storeDir := fs.String("store-dir", "", "persist build artifacts in this directory; a restarted server warm-loads instead of cold building (empty = memory only)")
	maxTenants := fs.Int("max-tenants", 0, "max concurrently resident per-project sessions; beyond this the least-recently-used idle project is evicted, persisting to the store first (0 = 64, negative = unlimited)")
	tenantIdle := fs.Duration("tenant-idle", 0, "evict a project's session after this much idle time (0 = 15m, negative = never)")
	tenantInflight := fs.Int("tenant-inflight", 0, "max concurrently admitted requests per project under -max-inflight (0 = no per-project bound)")
	tsInterval := fs.Duration("ts-interval", 0, "flight recorder sampling interval: snapshot every metric into in-process ring buffers served by /v1/debug/timeseries (0 = off; auto-enabled at 10s when -slo-target is set)")
	tsRetention := fs.Duration("ts-retention", 0, "time span the flight recorder's ring buffers cover (0 = 10m)")
	sloTarget := fs.Duration("slo-target", 0, "analyze-latency objective: the -slo-p fraction of requests must finish within this duration; burn rates at /v1/debug/slo (0 = SLO tracking off)")
	sloP := fs.Float64("slo-p", 0, "SLO quantile (0 = 0.95)")
	sloFast := fs.Duration("slo-fast", 0, "fast burn-rate window (0 = 5m)")
	sloSlow := fs.Duration("slo-slow", 0, "slow burn-rate window (0 = 1h)")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "pinpoint serve: positional arguments are not accepted; programs are POSTed to /v1/analyze")
		os.Exit(2)
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	} else {
		handler = slog.NewTextHandler(os.Stderr, hopts)
	}

	timeout := *reqTimeout
	if timeout <= 0 {
		timeout = -1 // Config: negative disables, zero means default.
	}
	rec := obs.New()
	st, closeStore := openStore(*storeDir, rec)
	defer func() {
		if err := closeStore(); err != nil {
			fmt.Fprintln(os.Stderr, "pinpoint serve: store close:", err)
		}
	}()
	srv := server.New(server.Config{
		Addr:              *addr,
		MaxInFlight:       *maxInflight,
		RequestTimeout:    timeout,
		Workers:           *workers,
		Logger:            slog.New(handler),
		Rec:               rec,
		Store:             st,
		MaxTenants:        *maxTenants,
		TenantIdle:        *tenantIdle,
		TenantMaxInFlight: *tenantInflight,
		TSInterval:        *tsInterval,
		TSRetention:       *tsRetention,
		SLOTarget:         *sloTarget,
		SLOQuantile:       *sloP,
		SLOFastWindow:     *sloFast,
		SLOSlowWindow:     *sloSlow,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx, *grace); err != nil {
		fatal(err)
	}
}
