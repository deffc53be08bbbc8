// Command benchmark is the repository's one performance yardstick: four
// workloads at paper scale, end-to-end metrics taken from untraced runs of
// the real binaries, and a per-module ledger from a separate traced run.
// See README.md in this directory; BENCHMARK.json at the repository root
// names the workloads, the metrics and their regression bounds.
//
// It is started through run.sh, which builds it; the driver's contract is
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Without --workload all four
// run in turn (the full report), -repeat N runs that set N times and
// compares the sets against the bounds, and -smoke shrinks every input so
// the whole thing fits in a unit test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// env is what every workload needs to know about this run.
type env struct {
	Root     string // checkout root: holds go.mod, cmd/pinpoint, BENCHMARK.json
	Pinpoint string // the built CLI
	Self     string // this binary, re-run as the juliet-cold child
	Work     string // scratch directory of this run, removed at exit
	Nproc    int
	Seed     int64
	Seconds  float64 // measured time per workload
	Traced   bool    // this run fills the per-layer ledger, not the end-to-end metrics
	Sizes    sizes
	Spec     *benchSpec
	Out      io.Writer // the human-readable report
}

// outcome is one workload's untraced result.
type outcome struct {
	tally
	E2E map[string]float64 // raw: times in measured seconds
	Cal []float64          // calibration kernel timings taken during the run
}

// calibrated names the end-to-end metrics reported in calibrated seconds
// (see calib.go): all the times. Set-up is analysis too (warm-up runs and
// passes, cold requests) and happens seconds before the samples the
// run's factor comes from. Memory is reported as measured.
var calibrated = map[string]bool{"wall_s": true, "tail_wall_s": true, "alt_wall_s": true, "cpu_s": true, "setup_s": true}

// benchWorkload is one of the four benchmark workloads. Setup is timed and may
// run several times in one process (each but the last followed by
// Teardown); Measure is the untraced end-to-end run; Trace is the
// separate traced run that fills the per-layer ledger.
type benchWorkload interface {
	Name() string
	Setup(e *env) error
	Teardown()
	Measure(e *env) (*outcome, error)
	Trace(e *env, tr *tracer) (map[string]float64, *tally, error)
}

func workloads() []benchWorkload {
	return []benchWorkload{&batchLadder{}, &julietCold{}, &serveEdit{}, &restartStore{}}
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-juliet-child" {
		os.Exit(julietChildMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "-cal-child" {
		os.Exit(calChildMain())
	}
	var (
		name      = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all four, full report)")
		seed      = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", -1, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.json; 0 = untraced end-to-end metrics")
		repeat    = flag.Int("repeat", 1, "run the selected set this many times and compare end-to-end metrics between sets against their bounds")
		smoke     = flag.Bool("smoke", false, "tiny inputs and fixed small counts: exercises every code path in seconds, numbers mean nothing")
		root      = flag.String("root", ".", "repository checkout root")
		outDir    = flag.String("out", "", "directory for trace-<workload>.json (default <root>/.bench_build/out)")
		writeLock = flag.Bool("write-lock", false, "print the inputs.lock content for seed 1 and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *writeLock {
		printLock(os.Stdout)
		return
	}
	if err := checkHygiene(); err != nil {
		fatalf("%v", err)
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	spec, err := loadSpec(filepath.Join(rootAbs, "BENCHMARK.json"))
	if err != nil {
		fatalf("%v", err)
	}
	buildDir := filepath.Join(rootAbs, ".bench_build")
	if *outDir == "" {
		*outDir = filepath.Join(buildDir, "out")
	}
	e := &env{Root: rootAbs, Nproc: runtime.NumCPU(), Seed: *seed, Seconds: *seconds, Sizes: fullSizes, Spec: spec, Out: os.Stdout}
	if *smoke {
		e.Sizes = smokeSizes
		e.Seconds = 0
	} else if e.Seconds < 0 {
		e.Seconds = float64(spec.RunSeconds)
	}
	if e.Self, err = os.Executable(); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fatalf("%v", err)
	}
	if e.Work, err = os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-"); err != nil {
		fatalf("%v", err)
	}
	e.Traced = *trace == 1
	code := run(e, buildDir, *outDir, *name, *repeat)
	os.RemoveAll(e.Work)
	os.Exit(code)
}

func run(e *env, buildDir, outDir, only string, repeat int) int {
	var selected []benchWorkload
	for _, w := range workloads() {
		if only == "" || only == w.Name() {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", only)
		return 2
	}
	t0 := time.Now()
	var err error
	if e.Pinpoint, err = buildPinpoint(e.Root, filepath.Join(buildDir, "bin")); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	printHeader(e, time.Since(t0))

	ok := true
	var sets []map[string]map[string]float64 // set → workload → metric → value
	for rep := 0; rep < repeat; rep++ {
		set := make(map[string]map[string]float64)
		for _, w := range selected {
			line, err := runWorkload(e, w, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name(), err)
				return 2
			}
			ok = ok && line.Correct
			set[w.Name()] = make(map[string]float64)
			for k, v := range line.Metrics {
				set[w.Name()][k] = v.Value
			}
			data, _ := json.Marshal(line) // plain numbers and strings: cannot fail
			fmt.Fprintf(e.Out, "%s\n", data)
		}
		sets = append(sets, set)
	}
	if repeat > 1 && !e.Traced {
		ok = compareSets(e, sets) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload sets the workload up (several times, keeping the last),
// runs it traced or untraced, and assembles the contract line.
func runWorkload(e *env, w benchWorkload, outDir string) (*resultLine, error) {
	traced := e.Traced
	fmt.Fprintf(e.Out, "\n== %s (%s, seed %d, %.0f s) ==\n", w.Name(), map[bool]string{false: "untraced", true: "traced"}[traced], e.Seed, e.Seconds)
	reps := e.Sizes.SetupReps
	if traced {
		reps = 1
	}
	defer w.Teardown()
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.Teardown()
		}
		t0 := time.Now()
		if err := w.Setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	settle()

	line := &resultLine{Metrics: make(map[string]metricValue)}
	var t *tally
	if traced {
		tr := newTracer()
		layers, tl, err := w.Trace(e, tr)
		if err != nil {
			return nil, err
		}
		t = tl
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, "trace-"+w.Name()+".json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(e.Out, "trace: %d spans in %s\n", len(tr.spans), path)
		printSelf(e.Out, tr.spans)
		// Every per-layer metric is printed on every workload; a layer
		// the workload never enters reads 0, which is the finding.
		for _, m := range e.Spec.PerLayer {
			line.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
			delete(layers, m.Name)
		}
		for k := range layers {
			return nil, fmt.Errorf("traced run produced %q, which BENCHMARK.json does not list", k)
		}
		printMetrics(e.Out, e.Spec.PerLayer, line.Metrics, true)
	} else {
		out, err := w.Measure(e)
		if err != nil {
			return nil, err
		}
		t = &out.tally
		out.E2E["setup_s"] = median(setups)
		factor := speedFactor(out.Cal)
		if len(out.Cal) > 0 {
			fmt.Fprintf(e.Out, "machine speed factor %.4f (calibration kernel median %.3f ms over %d samples, nominal %.0f ms)\n",
				factor, median(out.Cal)*1e3, len(out.Cal), calNominal.Seconds()*1e3)
		} else {
			fmt.Fprintf(e.Out, "not calibrated: times are as measured\n")
		}
		for _, m := range e.Spec.EndToEnd {
			v, ok := out.E2E[m.Name]
			if !ok {
				return nil, fmt.Errorf("no value for end-to-end metric %q", m.Name)
			}
			if calibrated[m.Name] && len(out.Cal) > 0 {
				fmt.Fprintf(e.Out, "raw %-12s %14.6g %s as measured\n", m.Name, v, m.Unit)
				v /= factor
			}
			line.Metrics[m.Name] = metricValue{v, m.Unit}
		}
		fmt.Fprintf(e.Out, "setup_s: n=%d %s\n", len(setups), fmtSamples(setups))
		printMetrics(e.Out, e.Spec.EndToEnd, line.Metrics, false)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(e.Out, "note: %s\n", n)
	}
	line.Attempted, line.Failed = t.Attempted, t.Failed
	line.Correct = t.Failed == 0 && t.Wrong == 0 && t.Attempted > 0
	fmt.Fprintf(e.Out, "attempted=%d failed=%d failed_share=%.4f wrong_verdicts=%d\n",
		t.Attempted, t.Failed, float64(t.Failed)/float64(max(t.Attempted, 1)), t.Wrong)
	return line, nil
}

// settle returns freed memory to the OS between in-process repetitions so
// one repetition's garbage is not the next one's GC pressure.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// compareSets prints, per workload and end-to-end metric, how far the
// later sets' values are from the first set's, beside the bound, and
// reports whether all stayed inside. Run-to-run spread is what the bounds
// in BENCHMARK.json are fixed from.
func compareSets(e *env, sets []map[string]map[string]float64) bool {
	ok := true
	fmt.Fprintf(e.Out, "\n== repeatability: %d sets ==\n", len(sets))
	var names []string
	for n := range sets[0] {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wn := range names {
		for _, m := range e.Spec.EndToEnd {
			base := sets[0][wn][m.Name]
			worst := 0.0
			for _, s := range sets[1:] {
				if d := math.Abs(s[wn][m.Name]-base) / base; d > worst {
					worst = d
				}
			}
			verdict := "ok"
			if worst > m.Bound {
				verdict = "OUTSIDE BOUND"
				ok = false
			}
			fmt.Fprintf(e.Out, "%-14s %-12s first=%-12.6g rel_diff=%6.2f%%  bound=%5.1f%%  %s\n", wn, m.Name, base, 100*worst, 100*m.Bound, verdict)
		}
	}
	return ok
}

// checkHygiene refuses environments that would silently change what is
// measured: an instrumented build is several times slower.
func checkHygiene() error {
	for _, f := range strings.Fields(os.Getenv("GOFLAGS")) {
		if strings.HasPrefix(f, "-race") || strings.HasPrefix(f, "-cover") {
			return fmt.Errorf("GOFLAGS contains %q: the benchmark builds and measures uninstrumented binaries only", f)
		}
	}
	return nil
}

// buildPinpoint builds cmd/pinpoint once into binDir, without -race. The
// toolchain's cache makes this a no-op after the first run in a checkout.
func buildPinpoint(root, binDir string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "pinpoint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pinpoint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pinpoint: %v\n%s", err, out)
	}
	return bin, nil
}

func printHeader(e *env, build time.Duration) {
	fmt.Fprintf(e.Out, "pinpoint benchmark: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q commit=%s seed=%d seconds=%.0f traced=%v build_s=%.3f\n",
		e.Nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), commit(e.Root), e.Seed, e.Seconds, e.Traced, build.Seconds())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the measured source: git's HEAD where there is a
// repository, "unversioned" in the driver's plain checkout.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	// Look for a repository in the checkout only, not in what contains it.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unversioned"
	}
	return strings.TrimSpace(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
