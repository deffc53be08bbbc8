package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/conc"
	"repro/internal/smt"
)

// probeSMT prices the three stages every SMT query passes through —
// fingerprint, prefilter, solve — on a seeded corpus shaped like path
// conditions: a conjunction of branch literals, implications between
// them, and integer comparisons among a few variables, some of them
// contradictory. Detection decides how many queries exist; this says
// what one costs.
func probeSMT(e *env, tr *tracer, parent int, l layerSet) {
	sp := tr.begin(parent, "smt.probe", "")
	defer tr.end(sp)
	rng := rand.New(rand.NewSource(e.Seed))
	var fp, pre, chk []float64
	unsat := 0
	for q := 0; q < e.Sizes.ProbeN; q++ {
		s := smt.GetSolver()
		tb := s.TB
		// Branch literals keep one polarity per query, as on a real path;
		// what can contradict is the arithmetic the branches guard.
		lits := make([]*smt.Term, 4+rng.Intn(8))
		for i := range lits {
			lits[i] = tb.BoolVar(fmt.Sprintf("c%d@f%d", i, rng.Intn(6)))
			if rng.Intn(2) == 0 {
				lits[i] = tb.Not(lits[i])
			}
		}
		ints := make([]*smt.Term, 3+rng.Intn(3))
		for i := range ints {
			ints[i] = tb.IntVar(fmt.Sprintf("v%d", i))
		}
		lit := func() *smt.Term { return lits[rng.Intn(len(lits))] }
		for n := 6 + rng.Intn(14); n > 0; n-- {
			a, b := ints[rng.Intn(len(ints))], ints[rng.Intn(len(ints))]
			switch rng.Intn(6) {
			case 0, 1:
				s.Assert(lit())
			case 2:
				s.Assert(tb.Implies(lit(), lit()))
			case 3:
				s.Assert(tb.Implies(lit(), tb.Lt(a, b)))
			case 4:
				s.Assert(tb.Or(tb.Not(lit()), tb.Le(a, tb.Add(b, tb.Int(int64(rng.Intn(3)))))))
			default:
				s.Assert(tb.Implies(lit(), tb.Eq(a, tb.Int(int64(rng.Intn(3))))))
			}
		}
		terms := s.Asserted()
		t0 := time.Now()
		smt.Fingerprint(terms)
		t1 := time.Now()
		smt.Prefilter(terms)
		t2 := time.Now()
		verdict := s.Check()
		t3 := time.Now()
		fp, pre, chk = append(fp, us(t1.Sub(t0))), append(pre, us(t2.Sub(t1))), append(chk, us(t3.Sub(t2)))
		if verdict == smt.Unsat {
			unsat++
		}
		smt.PutSolver(s)
	}
	l["smt.fingerprint_us"], l["smt.prefilter_us"], l["smt.check_us"] = median(fp), median(pre), median(chk)
	l["smt.probe_unsat_share"] = share(unsat, e.Sizes.ProbeN)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// probeConc prices the scheduler itself: what one node of a wavefront and
// one item of a ForEach cost when the work in them is nothing. Every tiny
// build pays this set-up, which is why juliet-cold reports it.
func probeConc(e *env, tr *tracer, parent int, l layerSet) {
	sp := tr.begin(parent, "conc.probe", "")
	defer tr.end(sp)
	n := 50 * e.Sizes.ProbeN
	noop := func(w, i int) error { return nil }
	t0 := time.Now()
	_, _ = conc.Wavefront(n, make([][]int, n), e.Nproc, noop) // no dependencies: cannot stall or fail
	l["conc.wavefront_ns_per_node"] = float64(time.Since(t0)) / float64(n)
	t0 = time.Now()
	_ = conc.ForEach(n, e.Nproc, noop)
	l["conc.foreach_ns_per_item"] = float64(time.Since(t0)) / float64(n)
}

// printLock writes inputs.lock: the digest of every input the workloads
// generate at lockSeed.
func printLock(w io.Writer) {
	fmt.Fprintf(w, "# SHA-256 of the inputs internal/workload generates at seed %d. Checked before every run at that seed;\n", lockSeed)
	fmt.Fprintf(w, "# regenerate with `-write-lock` only in a change that means to alter the generator.\n")
	for _, r := range []rung{r1k, r2k, r4k, r20k, r68k, r136k} {
		fmt.Fprintf(w, "%s %s\n", r.Name, ladderDigest(genLadder(r, lockSeed)))
	}
	fmt.Fprintf(w, "juliet %s\n", julietDigest(genJuliet(lockSeed, 0)))
}
