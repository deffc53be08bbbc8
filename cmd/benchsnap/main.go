// Command benchsnap runs the detection worker-scaling benchmark and the
// incremental-rebuild benchmark on synthetic workload subjects and writes
// the results as JSON snapshots (BENCH_detect.json and
// BENCH_incremental.json by default) for CI trend tracking.
//
// Usage:
//
//	benchsnap [-out BENCH_detect.json] [-scale N] [-workers 1,2,4]
//	          [-inc-out BENCH_incremental.json] [-inc-scale N]
//	          [-store-out BENCH_store.json] [-store-scale N]
//	          [-serve-out BENCH_serve.json] [-serve-scale N]
//	          [-build-out BENCH_build.json] [-build-scale N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/loadgen"
	"repro/internal/workload"
)

type snapshotRow struct {
	Workers int     `json:"workers"`
	WallNs  int64   `json:"wall_ns"`
	Speedup float64 `json:"speedup"`
}

type snapshot struct {
	Subject    string        `json:"subject"`
	Lines      int           `json:"lines"`
	Reports    int           `json:"reports"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Rows       []snapshotRow `json:"rows"`
}

type storeSnapshot struct {
	Subject       string  `json:"subject"`
	Lines         int     `json:"lines"`
	Functions     int     `json:"functions"`
	Units         int     `json:"units"`
	ColdNs        int64   `json:"cold_ns"`
	WarmRestartNs int64   `json:"warm_restart_ns"`
	WarmLoadNs    int64   `json:"warm_load_ns"`
	WarmParseNs   int64   `json:"warm_parse_ns"`
	WarmPersistNs int64   `json:"warm_persist_ns"`
	Speedup       float64 `json:"speedup"`
	StoreHits     int     `json:"store_hits"`
	Records       int     `json:"records"`
	DiskBytes     int64   `json:"disk_bytes"`
	ResidentBytes int64   `json:"resident_bytes"`
}

type serveScenarioSnap struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors"`
	// Tenants is the number of distinct server-side tenants the
	// scenario drove (the multi-tenant scenarios use one per group).
	Tenants     int               `json:"tenants"`
	Throughput  float64           `json:"throughput"`
	LatencyNs   loadgen.LatencyNs `json:"latency_ns"`
	PhaseMeanNs map[string]int64  `json:"phase_mean_ns"`
	GapMean     float64           `json:"gap_mean"`
	GapP50      float64           `json:"gap_p50"`
	GapMax      float64           `json:"gap_max"`
}

type serveSnapshot struct {
	Subject    string              `json:"subject"`
	Lines      int                 `json:"lines"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	MaxGapP50  float64             `json:"max_gap_p50"`
	Scenarios  []serveScenarioSnap `json:"scenarios"`
}

type buildSnapshot struct {
	Subject    string        `json:"subject"`
	Lines      int           `json:"lines"`
	Functions  int           `json:"functions"`
	Units      int           `json:"units"`
	Reports    int           `json:"reports"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Equivalent bool          `json:"equivalent"`
	Rows       []snapshotRow `json:"rows"`
}

type incSnapshot struct {
	Subject     string  `json:"subject"`
	Lines       int     `json:"lines"`
	Functions   int     `json:"functions"`
	Units       int     `json:"units"`
	ColdNs      int64   `json:"cold_ns"`
	WarmNs      int64   `json:"warm_ns"`
	Speedup     float64 `json:"speedup"`
	Hits        int     `json:"artifact_hits"`
	Misses      int     `json:"artifact_misses"`
	Invalidated int     `json:"artifact_invalidated"`
}

func main() {
	out := flag.String("out", "BENCH_detect.json", "output file for the JSON snapshot")
	scale := flag.Int("scale", 3, "workload scale factor (bigger = more functions)")
	workersFlag := flag.String("workers", "", "comma-separated worker counts (default 1,2,4,...,GOMAXPROCS)")
	incOut := flag.String("inc-out", "BENCH_incremental.json", "output file for the incremental-rebuild snapshot (empty disables)")
	incScale := flag.Int("inc-scale", 30, "workload scale factor for the incremental benchmark")
	storeOut := flag.String("store-out", "BENCH_store.json", "output file for the persistent-store warm-restart snapshot (empty disables)")
	storeScale := flag.Int("store-scale", 30, "workload scale factor for the store warm-restart benchmark")
	serveOut := flag.String("serve-out", "BENCH_serve.json", "output file for the service-latency snapshot (empty disables)")
	serveScale := flag.Int("serve-scale", 30, "workload scale factor for the service-latency benchmark")
	buildOut := flag.String("build-out", "BENCH_build.json", "output file for the cold-build worker-scaling snapshot (empty disables)")
	buildScale := flag.Int("build-scale", 30, "workload scale factor for the build-scaling benchmark")
	flag.Parse()

	counts, err := parseWorkers(*workersFlag)
	if err != nil {
		fatal(err)
	}

	subj := workload.Subject{
		Name: "bench-detect", Origin: "synthetic", PaperKLoC: 60,
		TrueBugs: 6, OpaqueTraps: 4,
	}
	sc, err := bench.MeasureDetectScaling(subj, *scale, counts)
	if err != nil {
		fatal(err)
	}

	snap := snapshot{
		Subject:    sc.Subject,
		Lines:      sc.Lines,
		Reports:    sc.Reports,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, r := range sc.Rows {
		snap.Rows = append(snap.Rows, snapshotRow{
			Workers: r.Workers, WallNs: int64(r.Wall), Speedup: r.Speedup,
		})
		fmt.Printf("workers=%-3d wall=%-14s speedup=%.2fx\n", r.Workers, r.Wall, r.Speedup)
	}

	writeJSON(*out, snap)

	if *incOut != "" {
		inc, err := bench.MeasureIncremental(subj, *incScale)
		if err != nil {
			fatal(err)
		}
		isnap := incSnapshot{
			Subject:     inc.Subject,
			Lines:       inc.Lines,
			Functions:   inc.Functions,
			Units:       inc.Units,
			ColdNs:      int64(inc.Cold),
			WarmNs:      int64(inc.Warm),
			Speedup:     inc.Speedup,
			Hits:        inc.Artifacts.Hits,
			Misses:      inc.Artifacts.Misses,
			Invalidated: inc.Artifacts.Invalidated,
		}
		fmt.Printf("incremental: cold=%-14s warm=%-14s speedup=%.2fx (artifacts: %d hits, %d misses, %d invalidated)\n",
			inc.Cold, inc.Warm, inc.Speedup, inc.Artifacts.Hits, inc.Artifacts.Misses, inc.Artifacts.Invalidated)
		writeJSON(*incOut, isnap)
	}

	if *storeOut != "" {
		sr, err := bench.MeasureStore(subj, *storeScale)
		if err != nil {
			fatal(err)
		}
		stsnap := storeSnapshot{
			Subject:       sr.Subject,
			Lines:         sr.Lines,
			Functions:     sr.Functions,
			Units:         sr.Units,
			ColdNs:        int64(sr.Cold),
			WarmRestartNs: int64(sr.WarmRestart),
			WarmLoadNs:    int64(sr.WarmLoad),
			WarmParseNs:   int64(sr.WarmParse),
			WarmPersistNs: int64(sr.WarmPersist),
			Speedup:       sr.Speedup,
			StoreHits:     sr.StoreHits,
			Records:       sr.Stats.Records,
			DiskBytes:     sr.Stats.DiskBytes,
			ResidentBytes: sr.Stats.ResidentBytes,
		}
		fmt.Printf("store: cold=%-14s warm-restart=%-14s speedup=%.2fx (load=%s parse=%s persist=%s; %d artifacts store-loaded; %d records, %d KiB on disk)\n",
			sr.Cold, sr.WarmRestart, sr.Speedup, sr.WarmLoad, sr.WarmParse, sr.WarmPersist, sr.StoreHits, sr.Stats.Records, sr.Stats.DiskBytes/1024)
		writeJSON(*storeOut, stsnap)
	}

	if *serveOut != "" {
		sv, err := bench.MeasureServe(subj, *serveScale)
		if err != nil {
			fatal(err)
		}
		vsnap := serveSnapshot{
			Subject:    sv.Subject,
			Lines:      sv.Lines,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			MaxGapP50:  sv.MaxGapP50,
		}
		for _, sc := range sv.Scenarios {
			vsnap.Scenarios = append(vsnap.Scenarios, serveScenarioSnap{
				Name:        sc.Name,
				Requests:    sc.Requests,
				Errors:      sc.Errors,
				Tenants:     sc.Tenants,
				Throughput:  sc.Throughput,
				LatencyNs:   sc.Latency,
				PhaseMeanNs: sc.PhaseMeanNs,
				GapMean:     sc.Gap.Mean,
				GapP50:      sc.Gap.P50,
				GapMax:      sc.Gap.Max,
			})
			fmt.Printf("serve %-6s %d req (%d errors) %.1f req/s; p50/p95/p99 %s/%s/%s; gap p50 %.1f%%\n",
				sc.Name, sc.Requests, sc.Errors, sc.Throughput,
				time.Duration(sc.Latency.P50), time.Duration(sc.Latency.P95),
				time.Duration(sc.Latency.P99), 100*sc.Gap.P50)
		}
		var serialTP, tenantTP float64
		for _, sc := range sv.Scenarios {
			switch sc.Name {
			case "tenants-serial":
				serialTP = sc.Throughput
			case "tenants":
				tenantTP = sc.Throughput
			}
		}
		if serialTP > 0 && tenantTP > 0 {
			fmt.Printf("serve tenants: cross-tenant aggregate throughput %.2fx the serialized baseline (%.1f vs %.1f req/s)\n",
				tenantTP/serialTP, tenantTP, serialTP)
		}
		if sv.MaxGapP50 > bench.GapBudget {
			fmt.Printf("serve: WARNING: median attribution gap %.1f%% exceeds the %.0f%% budget\n",
				100*sv.MaxGapP50, 100*bench.GapBudget)
		}
		writeJSON(*serveOut, vsnap)
	}

	if *buildOut != "" {
		bs, err := bench.MeasureBuild(subj, *buildScale, counts, 3)
		if err != nil {
			fatal(err)
		}
		bsnap := buildSnapshot{
			Subject:    bs.Subject,
			Lines:      bs.Lines,
			Functions:  bs.Functions,
			Units:      bs.Units,
			Reports:    bs.Reports,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Equivalent: bs.Equivalent,
		}
		for _, r := range bs.Rows {
			bsnap.Rows = append(bsnap.Rows, snapshotRow{
				Workers: r.Workers, WallNs: int64(r.Wall), Speedup: r.Speedup,
			})
			fmt.Printf("build workers=%-3d wall=%-14s speedup=%.2fx\n", r.Workers, r.Wall, r.Speedup)
		}
		writeJSON(*buildOut, bsnap)
	}
}

func writeJSON(path string, v any) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// parseWorkers turns "1,2,4" into worker counts; empty selects the
// standard ladder {1, 2, GOMAXPROCS}, deduplicated and sorted (so a
// single-core machine measures just workers=1).
func parseWorkers(s string) ([]int, error) {
	if s == "" {
		counts := []int{1}
		max := runtime.GOMAXPROCS(0)
		if max >= 2 {
			counts = append(counts, 2)
		}
		if max > 2 {
			counts = append(counts, max)
		}
		return counts, nil
	}
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsnap:", err)
	os.Exit(1)
}
