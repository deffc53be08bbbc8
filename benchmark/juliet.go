package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/pta"
	"repro/internal/workload"
)

// julietCold is the opposite use of the same modules as batch-ladder:
// 1,421 tiny programs instead of one big one, each built and checked
// from nothing, so per-call fixed cost and real SMT solving dominate and
// search does not. The passes run in a child (this binary, re-executed)
// so peak RSS and the CPU clock belong to the analysis alone.
type julietCold struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	stdin  io.WriteCloser
	stdout *bufio.Reader
}

func (j *julietCold) Name() string { return "juliet-cold" }

const tracedJulietSeconds = 4

// julietResult is what the child prints when its passes are done.
type julietResult struct {
	Digest   string
	Cases    int
	PassWall []float64 // s per pass over all cases
	PassCPU  []float64 // process CPU clock per pass
	CaseMed  float64   // s, median single-case latency over all passes
	Cal      []float64 // calibration kernel timings, one before each pass
	Missed   []string  // cases with no use-after-free/double-free report
	Errors   []string
	// Traced child only.
	Layers layerSet // per pass
	Spans  []span
}

// Setup launches the child and returns once it has generated the suite
// and finished its warm-up passes.
func (j *julietCold) Setup(e *env) error {
	seconds := e.Seconds
	if e.Traced {
		// A few traced passes say all there is to say; every further one
		// only adds 2,843 spans to ship to the parent.
		seconds = min(seconds, tracedJulietSeconds)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	j.cancel = cancel
	j.cmd = command(ctx, "", e.Self, "-juliet-child",
		"-seed", strconv.FormatInt(e.Seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
		"-cases", strconv.Itoa(e.Sizes.JulietCases),
		"-warm", strconv.Itoa(e.Sizes.JulietWarm),
		"-min-passes", strconv.Itoa(e.Sizes.MinRounds),
		"-traced="+strconv.FormatBool(e.Traced))
	j.cmd.Stderr = os.Stderr
	var err error
	if j.stdin, err = j.cmd.StdinPipe(); err != nil {
		return err
	}
	out, err := j.cmd.StdoutPipe()
	if err != nil {
		return err
	}
	j.stdout = bufio.NewReaderSize(out, 1<<20)
	if err := j.cmd.Start(); err != nil {
		return err
	}
	line, err := j.stdout.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "READY" {
		return fmt.Errorf("juliet child: expected READY, got %q (%v)", line, err)
	}
	return nil
}

func (j *julietCold) Teardown() {
	if j.cmd == nil {
		return
	}
	j.stdin.Close() // a child still waiting for "go" exits on EOF
	j.cancel()
	_ = j.cmd.Wait()
	j.cmd = nil
}

// finish tells the ready child to run its passes and collects the result
// and the child's rusage.
func (j *julietCold) finish() (*julietResult, procResult, error) {
	var pr procResult
	gen0, t0 := selfCPU(), time.Now()
	if _, err := io.WriteString(j.stdin, "go\n"); err != nil {
		return nil, pr, err
	}
	data, rerr := io.ReadAll(j.stdout)
	werr := j.cmd.Wait()
	pr.Wall, pr.GenCPU = time.Since(t0).Seconds(), selfCPU()-gen0
	pr.CPU, pr.RSSMiB = usage(j.cmd.ProcessState)
	j.stdin.Close()
	j.cancel()
	j.cmd = nil
	if rerr != nil || werr != nil {
		return nil, pr, fmt.Errorf("juliet child: read %v, wait %v", rerr, werr)
	}
	var res julietResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, pr, fmt.Errorf("juliet child result: %w", err)
	}
	return &res, pr, nil
}

func (j *julietCold) Measure(e *env) (*outcome, error) {
	res, pr, err := j.finish()
	if err != nil {
		return nil, err
	}
	out := &outcome{E2E: make(map[string]float64)}
	j.tally(e, &out.tally, res)
	printSamples(e.Out, "pass wall", "s", res.PassWall)
	printSamples(e.Out, "pass cpu", "s", res.PassCPU)
	fmt.Fprintf(e.Out, "  single case latency median %.1f us\n", res.CaseMed*1e6)
	out.Cal = res.Cal
	out.E2E["wall_s"] = median(res.PassWall)
	out.E2E["tail_wall_s"] = percentile(res.PassWall, 80) // ~50 passes in a run: ten beyond
	out.E2E["alt_wall_s"] = res.CaseMed
	out.E2E["cpu_s"] = median(res.PassCPU)
	out.E2E["peak_rss_mb"] = pr.RSSMiB
	fmt.Fprintf(e.Out, "generator_cpu_share %.4f\n", pr.GenCPU/pr.Wall)
	return out, nil
}

// tally counts one operation per case per pass; a case the analyzer does
// not report is a wrong verdict, since every case has exactly one flaw.
func (j *julietCold) tally(e *env, t *tally, res *julietResult) {
	if e.Sizes.JulietCases == 0 {
		if err := checkLock(lockPath(e), e.Seed, "juliet", res.Digest); err != nil {
			t.fail("%v", err)
		}
	}
	fmt.Fprintf(e.Out, "juliet: %d cases x %d passes, sha256 %s, recall %d/%d\n",
		res.Cases, len(res.PassWall), res.Digest, res.Cases*len(res.PassWall)-len(res.Missed), res.Cases*len(res.PassWall))
	t.Attempted += res.Cases * len(res.PassWall)
	for _, m := range res.Missed {
		t.wrong(1, "juliet case %s not reported", m)
	}
	for _, m := range res.Errors {
		t.fail("juliet: %s", m)
	}
}

func (j *julietCold) Trace(e *env, tr *tracer) (map[string]float64, *tally, error) {
	root := tr.begin(0, "workload", "juliet-cold")
	offset := int64(time.Since(tr.t0))
	res, _, err := j.finish()
	tr.end(root)
	if err != nil {
		return nil, nil, err
	}
	t := &tally{}
	j.tally(e, t, res)
	tr.adopt(root, offset, res.Spans)
	l := res.Layers
	var wall float64
	for _, w := range res.PassWall {
		wall += w
	}
	l["harness.trace_overhead_share"] = tr.overheadShare(time.Duration(wall * float64(time.Second)))
	probeSMT(e, tr, root, l)
	probeConc(e, tr, root, l)
	return l, t, nil
}

// adopt appends spans recorded by another process: ids are shifted past
// this tracer's, clocks by offset, and parentless spans hang under parent.
func (t *tracer) adopt(parent int, offset int64, spans []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.StartNs += offset
		s.EndNs += offset
		t.spans = append(t.spans, s)
	}
}

// julietChildMain is the analysed process of juliet-cold.
func julietChildMain(args []string) int {
	fs := flag.NewFlagSet("juliet-child", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "")
	seconds := fs.Float64("seconds", 0, "")
	nCases := fs.Int("cases", 0, "")
	warm := fs.Int("warm", 2, "")
	minPasses := fs.Int("min-passes", 3, "")
	traced := fs.Bool("traced", false, "")
	_ = fs.Parse(args)

	cases := genJuliet(*seed, *nCases)
	res := &julietResult{Digest: julietDigest(cases), Cases: len(cases), Layers: layerSet{}}
	for i := 0; i < *warm; i++ {
		julietPass(cases, nil, nil, nil, nil, nil, nil)
	}
	fmt.Println("READY")
	if line, err := bufio.NewReader(os.Stdin).ReadString('\n'); err != nil || strings.TrimSpace(line) != "go" {
		return 0 // a set-up repetition: the parent only wanted the set-up
	}

	var tr *tracer
	if *traced {
		tr = newTracer()
	}
	var caseLat []float64
	var totals detectTotals
	var sizes core.Sizes // summed over the cases of the last pass
	var ptaStats pta.Stats
	var cal calibrator
	for pace := (rounds{min: *minPasses, seconds: *seconds}); pace.next(); {
		settle()
		cal.sample(1)
		cpu0, t0 := selfCPU(), time.Now()
		sizes, ptaStats = core.Sizes{}, pta.Stats{}
		julietPass(cases, tr, res, &caseLat, &totals, &sizes, &ptaStats)
		res.PassWall, res.PassCPU = append(res.PassWall, time.Since(t0).Seconds()), append(res.PassCPU, selfCPU()-cpu0)
	}
	res.CaseMed = median(caseLat)
	res.Cal = cal.samples
	if tr != nil {
		n := float64(len(res.PassWall))
		res.Spans = tr.spans
		l := res.Layers
		for k := range l { // build-layer clocks were summed over all passes
			l[k] /= n
		}
		build := tr.busy("core.build") / n
		l["core.build_s"] = build
		l["core.fixed_us_per_case"] = build / float64(len(cases)) * 1e6
		totals.scale(len(res.PassWall))
		l.setDetect(totals, tr.busy("detect.checkall")/n)
		l.setSizes(sizes, ptaStats)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "juliet child:", err)
		return 2
	}
	return 0
}

// scale divides the totals by the number of passes they were summed
// over; every pass does identical work, so the counts divide exactly.
func (d *detectTotals) scale(passes int) {
	d.Sources /= passes
	d.Expansions /= passes
	d.Candidates /= passes
	d.LinearFiltered /= passes
	d.SMTQueries /= passes
	d.SMTSolved /= passes
	d.SMTCacheHits /= passes
	d.SMTPrefilterUnsat /= passes
	d.SMTTime /= time.Duration(passes)
	d.Reports /= passes
	d.SummaryHits /= passes
	d.SummaryMisses /= passes
}

// julietPass analyses every case once, each from nothing: a brand-new
// program, so every cache starts empty. On a warm-up pass res is nil and
// nothing is recorded.
func julietPass(cases []workload.JulietCase, tr *tracer, res *julietResult, lat *[]float64, totals *detectTotals, sizes *core.Sizes, ptaStats *pta.Stats) {
	root := tr.begin(0, "juliet.pass", "")
	defer tr.end(root)
	for _, c := range cases {
		t0 := time.Now()
		sp := tr.begin(root, "core.build", c.Name)
		a, err := core.BuildFromSource(c.Units, core.BuildOptions{Workers: 1})
		tr.end(sp)
		if err != nil {
			if res != nil {
				res.Errors = append(res.Errors, c.Name+": "+err.Error())
			}
			continue
		}
		sp = tr.begin(root, "detect.checkall", c.Name)
		out := a.CheckAll(checkers.All(), detect.Options{Workers: 1})
		tr.end(sp)
		if res == nil {
			continue
		}
		*lat = append(*lat, time.Since(t0).Seconds())
		res.Layers.addTimings(a.Timings)
		totals.add(out)
		sizes.Lines += a.Sizes.Lines
		sizes.CondNodes += a.Sizes.CondNodes
		sizes.SEGNodes += a.Sizes.SEGNodes
		sizes.SEGEdges += a.Sizes.SEGEdges
		ptaStats.Add(a.PTAStats)
		if !reportsFlaw(out.Reports) {
			res.Missed = append(res.Missed, c.Name)
		}
	}
}

// reportsFlaw: the case's one flaw is a use-after-free or a double free.
func reportsFlaw(reports []detect.Report) bool {
	for _, r := range reports {
		if r.Checker == "use-after-free" || r.Checker == "double-free" {
			return true
		}
	}
	return false
}
