package main

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Calibrated seconds.
//
// On the shared two-core VM this benchmark was written on, memory-bound
// user code speeds up and slows down by 15-25% over minutes. A pure ALU
// loop does not see it; sys time and page faults do not explain it; it
// is worst for small processes, which suggests it depends on which
// physical pages a process is dealt. A run lasts half a minute, so the
// whole run sits in one regime, and ten runs in a row read 20% apart
// (juliet-cold pass wall: 15-21% spread over three sessions; batch-ladder
// 21% in a bad one). No bound under 25% holds against that, and a real
// 10% regression is invisible.
//
// So a run also times a fixed kernel of the benchmark's own — small
// allocations, map inserts and look-ups, hashing: the analyzer's diet —
// many times between the measured operations, never during one. The
// median kernel time over calNominal is the run's machine speed factor,
// and the time metrics are the measured times divided by it: seconds on a
// machine on which the kernel takes calNominal. The kernel is benchmark
// code, so a change to the program under test moves the ratio and a slow
// quarter of an hour on the host does not. Raw seconds are printed beside
// the calibrated ones. Memory is not calibrated.
//
// The kernel has to draw its pages the way the measured operation does.
// juliet-cold's passes run in one long-lived child, so the kernel runs
// in that child between passes, on the same heap: spread over ten runs
// falls from 15% to 2.6%. A CLI run is a fresh process, so the kernel is
// a fresh process too (this binary, -cal-child): spread falls from 7.5%
// to 3.8% on batch-ladder in a quiet session and from 21% in a bad one;
// a kernel in the generator's own process tracks a child's speed half as
// well. serve-edit keeps both cores busy for the whole loop, and a kernel
// beside a request measures the contention and slows the request; so
// every few seconds one client stops the loop and the kernel runs, in
// fresh processes, while the server idles. There the spread comes mostly
// from the latency distribution itself (two clients on two cores: a
// request is fast when it runs alone and slow when it overlaps), so
// calibration is neutral in a quiet session (10.7% against 10.9%) and
// only guards against a slow one.
const calNominal = 20 * time.Millisecond

var calSink byte

// calKernel is the fixed unit of work; about calNominal on a quiet machine.
func calKernel() time.Duration {
	t0 := time.Now()
	m := make(map[int][]byte)
	for i := 0; i < 60000; i++ {
		m[i*7919] = make([]byte, 64)
	}
	h := sha256.New()
	for i := 0; i < 60000; i++ {
		h.Write(m[i*7919])
	}
	calSink += h.Sum(nil)[0]
	return time.Since(t0)
}

// calibrator collects kernel timings over one run, in this process or in
// fresh ones (see above for which and why).
type calibrator struct {
	self    string // this binary, for fresh-process samples
	samples []float64
}

// sample times the kernel n times in this process.
func (c *calibrator) sample(n int) {
	for i := 0; i < n; i++ {
		c.samples = append(c.samples, calKernel().Seconds())
	}
}

// sampleFresh times the kernel in n fresh processes, one after the other.
func (c *calibrator) sampleFresh(n int) error {
	for i := 0; i < n; i++ {
		res, err := runChild("", c.self, "-cal-child")
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(res.Stdout)), 64)
		if err != nil {
			return fmt.Errorf("calibration child printed %q", res.Stdout)
		}
		c.samples = append(c.samples, v)
	}
	return nil
}

// calChildMain is the fresh-process kernel: one timing on stdout.
func calChildMain() int {
	fmt.Println(calKernel().Seconds())
	return 0
}

// factor is how slow the machine ran during the run: above 1 when the
// kernel took longer than nominal.
func speedFactor(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return median(samples) / calNominal.Seconds()
}
