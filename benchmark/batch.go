package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/workload"
)

// batchLadder is the paper's own experiment: cold whole-program analysis
// by the CLI, a fresh process per repetition, on three sizes of one
// synthetic subject. A fresh process makes GC state identical across
// repetitions and lets rusage give the peak RSS of exactly one analysis.
type batchLadder struct {
	dir   string
	subj  [3]*subject
	dirs  [3]string
	files [3][]string
}

func (b *batchLadder) Name() string { return "batch-ladder" }

func (b *batchLadder) Setup(e *env) error {
	b.dir = filepath.Join(e.Work, "batch")
	for i, r := range e.Sizes.Ladder {
		var err error
		if b.subj[i], err = newSubject(e, r, e.Seed); err != nil {
			return err
		}
		b.dirs[i] = filepath.Join(b.dir, r.Name)
		if b.files[i], err = writeUnits(b.dirs[i], b.subj[i].Units); err != nil {
			return err
		}
	}
	return warmUp(e, b.dirs[0], b.files[0])
}

// warmUp runs the CLI once, untimed by the workload: the binary and the
// inputs are in the page cache before the first timed repetition.
func warmUp(e *env, dir string, files []string) error {
	if _, err := runCLI(dir, e.Pinpoint, cliArgs(e.Nproc, files)...); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	return nil
}

// runCLI is runChild for the batch CLI, whose exit status is 0 (clean) or
// 1 (bugs reported); anything else is an error.
func runCLI(dir, bin string, args ...string) (procResult, error) {
	res, err := runChild(dir, bin, args...)
	if err == nil && res.Exit != 0 && res.Exit != 1 {
		err = fmt.Errorf("exit %d: %s", res.Exit, bytes.TrimSpace(res.Stderr))
	}
	return res, err
}

func (b *batchLadder) Teardown() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// cliArgs is the frozen batch command line.
func cliArgs(workers int, files []string, extra ...string) []string {
	args := append([]string{"-checkers", "all", "-workers", strconv.Itoa(workers), "-format", "json"}, extra...)
	return append(args, files...)
}

// cliSamples collects the repetitions of one CLI invocation.
type cliSamples struct {
	Wall, CPU, RSS []float64
	First          []byte // stdout of the first repetition: the others must equal it
	genCPU, wall   float64
}

// add records one repetition and checks it completed and repeated the
// first repetition's bytes.
func (s *cliSamples) add(t *tally, what string, r procResult, err error) {
	t.Attempted++
	s.genCPU += r.GenCPU
	s.wall += r.Wall
	if err != nil {
		t.fail("%s: %v", what, err)
		return
	}
	s.Wall, s.CPU, s.RSS = append(s.Wall, r.Wall), append(s.CPU, r.CPU), append(s.RSS, r.RSSMiB)
	if s.First == nil {
		s.First = r.Stdout
	} else if !bytes.Equal(s.First, r.Stdout) {
		t.wrong(1, "%s: output differs from the first repetition's", what)
	}
}

func (b *batchLadder) Measure(e *env) (*outcome, error) {
	out := &outcome{E2E: make(map[string]float64)}
	var s [3]cliSamples
	cal := calibrator{self: e.Self}
	for pace := (rounds{min: e.Sizes.MinRounds, seconds: e.Seconds}); pace.next(); {
		for i, r := range e.Sizes.Ladder { // rungs interleaved, so drift hits all alike
			if err := cal.sampleFresh(e.Sizes.CalPerOp); err != nil {
				return nil, err
			}
			res, err := runCLI(b.dirs[i], e.Pinpoint, cliArgs(e.Nproc, b.files[i])...)
			s[i].add(&out.tally, r.Name, res, err)
		}
	}

	// Known answers, outside the timed loop: the ground truth for each
	// rung, and a -workers 1 run that must print the same bytes (not on
	// the top rung, where it would take a fifth of the run's time).
	var genCPU, wall float64
	lines, walls := make([]float64, 3), make([]float64, 3)
	for i, r := range e.Sizes.Ladder {
		genCPU, wall = genCPU+s[i].genCPU, wall+s[i].wall
		lines[i], walls[i] = float64(b.subj[i].Lines), median(s[i].Wall)
		fmt.Fprintln(e.Out, b.subj[i])
		printSamples(e.Out, r.Name+" wall", "s", s[i].Wall)
		printSamples(e.Out, r.Name+" cpu", "s", s[i].CPU)
		printSamples(e.Out, r.Name+" peak_rss", "MiB", s[i].RSS)
		if s[i].First == nil {
			continue
		}
		verifyCLI(e, &out.tally, r.Name, s[i].First, &b.subj[i].Truth)
		if i == len(e.Sizes.Ladder)-1 {
			continue
		}
		res, err := runCLI(b.dirs[i], e.Pinpoint, cliArgs(1, b.files[i])...)
		out.Attempted++
		if err != nil || !bytes.Equal(res.Stdout, s[i].First) {
			out.wrong(1, "%s: -workers 1 output differs from -workers %d (err %v)", r.Name, e.Nproc, err)
		}
	}
	if len(s[0].Wall) == 0 || len(s[2].Wall) == 0 {
		return out, nil // every repetition failed; the tally says so
	}
	top := s[2]
	out.Cal = cal.samples
	out.E2E["wall_s"] = median(top.Wall)
	out.E2E["tail_wall_s"] = percentile(top.Wall, 75)
	out.E2E["alt_wall_s"] = median(s[0].Wall)
	out.E2E["cpu_s"] = median(top.CPU)
	out.E2E["peak_rss_mb"] = median(top.RSS)
	fmt.Fprintf(e.Out, "scaling_exponent %.4f (log-log slope of median wall on lines over %d rungs; 1.0 = linear)\n", logLogSlope(lines, walls), len(lines))
	fmt.Fprintf(e.Out, "generator_cpu_share %.4f (this process's CPU per second of child wall)\n", genCPU/wall)
	return out, nil
}

// verifyCLI holds one `-format json` output against the ground truth.
func verifyCLI(e *env, t *tally, what string, stdout []byte, truth *workload.Truth) {
	v, err := checkTruth(stdout, truth)
	if err != nil {
		t.fail("%s: %v", what, err)
		return
	}
	fmt.Fprintf(e.Out, "  %s verdicts: %s\n", what, v)
	if v.Wrong() > 0 {
		t.wrong(v.Wrong(), "%s: %d verdicts disagree with the ground truth (%s)", what, v.Wrong(), v)
	}
}

// Trace replays the build and detection of the middle rung in process,
// one span per call into a layer; see replay in layers.go.
func (b *batchLadder) Trace(e *env, tr *tracer) (map[string]float64, *tally, error) {
	t := &tally{}
	g, err := newSubject(e, e.Sizes.Trace, e.Seed)
	if err != nil {
		return nil, t, err
	}
	fmt.Fprintf(e.Out, "layer replay on %s\n", g)
	layers, err := traceBuildLayers(e, tr, t, g.Generated)
	return layers, t, err
}
