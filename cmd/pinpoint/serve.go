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

// serveOptions is the `pinpoint serve` command line.
type serveOptions struct {
	addr        string
	workers     int
	maxInflight int
	reqTimeout  time.Duration
	grace       time.Duration
	logJSON     bool
	logLevel    string
	storeDir    string
	maxTenants  int
	tenantIdle  time.Duration
}

// serveFlags defines the serve command's flags on fs.
func serveFlags(fs *flag.FlagSet) *serveOptions {
	o := &serveOptions{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7345", "listen address")
	fs.IntVar(&o.workers, "workers", -1, "default build/detection worker-pool size (0/1 = sequential, negative = all CPUs)")
	fs.IntVar(&o.maxInflight, "max-inflight", -1, "max concurrently admitted /v1/analyze requests (0/1 = one at a time, negative = all CPUs)")
	fs.DurationVar(&o.reqTimeout, "request-timeout", 2*time.Minute, "per-request deadline covering queueing and analysis (<=0 disables)")
	fs.DurationVar(&o.grace, "grace", 15*time.Second, "graceful-shutdown drain period for in-flight requests")
	fs.BoolVar(&o.logJSON, "log-json", false, "emit the structured request log as JSON lines instead of text")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	fs.StringVar(&o.storeDir, "store-dir", "", "persist build artifacts in this directory; a restarted server warm-loads instead of cold building (empty = memory only)")
	fs.IntVar(&o.maxTenants, "max-tenants", 0, "max concurrently resident per-project sessions; beyond this the least-recently-used idle project is evicted, persisting to the store first (0 = 64, negative = unlimited)")
	fs.DurationVar(&o.tenantIdle, "tenant-idle", 0, "evict a project's session after this much idle time (0 = 15m, negative = never)")
	return o
}

// runServe implements `pinpoint serve`: the analysis pipeline behind a
// persistent HTTP service (see internal/server for the endpoint surface).
func runServe(args []string) {
	fs := flag.NewFlagSet("pinpoint serve", flag.ExitOnError)
	o := serveFlags(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "pinpoint serve: positional arguments are not accepted; programs are POSTed to /v1/analyze")
		os.Exit(2)
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(o.logLevel)); err != nil {
		fatal(fmt.Errorf("bad -log-level %q: %w", o.logLevel, err))
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	var handler slog.Handler
	if o.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	} else {
		handler = slog.NewTextHandler(os.Stderr, hopts)
	}

	timeout := o.reqTimeout
	if timeout <= 0 {
		timeout = -1 // Config: negative disables, zero means default.
	}
	rec := obs.New()
	st, closeStore := openStore(o.storeDir, rec)
	defer func() {
		if err := closeStore(); err != nil {
			fmt.Fprintln(os.Stderr, "pinpoint serve: store close:", err)
		}
	}()
	srv := server.New(server.Config{
		Addr:           o.addr,
		MaxInFlight:    o.maxInflight,
		RequestTimeout: timeout,
		Workers:        o.workers,
		Logger:         slog.New(handler),
		Rec:            rec,
		Store:          st,
		MaxTenants:     o.maxTenants,
		TenantIdle:     o.tenantIdle,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx, o.grace); err != nil {
		fatal(err)
	}
}
