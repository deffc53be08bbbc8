package conc

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWavefrontRespectsDeps runs a random-ish layered DAG at several
// worker counts and asserts every node starts only after all of its
// dependencies completed.
func TestWavefrontRespectsDeps(t *testing.T) {
	const n = 64
	deps := make([][]int, n)
	for i := 2; i < n; i++ {
		// Two dependencies per node, drawn deterministically from below.
		deps[i] = []int{(i * 7) % i, (i*13 + 5) % i}
		if deps[i][0] == deps[i][1] {
			deps[i] = deps[i][:1]
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		finished := make([]bool, n)
		_, err := Wavefront(n, deps, workers, func(w, i int) error {
			mu.Lock()
			for _, d := range deps[i] {
				if !finished[d] {
					mu.Unlock()
					return fmt.Errorf("node %d started before dependency %d finished", i, d)
				}
			}
			mu.Unlock()
			mu.Lock()
			finished[i] = true
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, ok := range finished {
			if !ok {
				t.Fatalf("workers=%d: node %d never ran", workers, i)
			}
		}
	}
}

func TestWavefrontWidth(t *testing.T) {
	// A chain exposes width 1 regardless of workers.
	chain := make([][]int, 8)
	for i := 1; i < len(chain); i++ {
		chain[i] = []int{i - 1}
	}
	w, err := Wavefront(len(chain), chain, 4, func(_, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 {
		t.Fatalf("chain width = %d, want 1", w)
	}
	// Independent nodes are all ready at once: width n.
	w, err = Wavefront(6, make([][]int, 6), 2, func(_, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if w != 6 {
		t.Fatalf("independent width = %d, want 6", w)
	}
}

func TestWavefrontSequentialOrder(t *testing.T) {
	// workers=1 runs the lowest-index ready node first: the lowest-index
	// topological order, not the FIFO one (0, 4, 1, 2, 3).
	deps := [][]int{nil, {0}, {0}, {1, 2}, nil}
	var order []int
	if _, err := Wavefront(len(deps), deps, 1, func(_, i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}

	// On random DAGs, against the definition: each step runs the smallest
	// node whose dependencies have all run.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		perm := rng.Perm(n) // a topological order the edges follow
		deps := make([][]int, n)
		for i := 1; i < n; i++ {
			for k := rng.Intn(3); k > 0; k-- {
				d := perm[rng.Intn(i)]
				deps[perm[i]] = append(deps[perm[i]], d)
			}
		}
		var got []int
		if _, err := Wavefront(n, deps, 1, func(_, i int) error {
			got = append(got, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		done := make([]bool, n)
		var want []int
		for len(want) < n {
			for i := 0; i < n; i++ {
				ready := !done[i]
				for _, d := range deps[i] {
					ready = ready && done[d]
				}
				if ready {
					done[i] = true
					want = append(want, i)
					break
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: order = %v, want %v", trial, got, want)
		}
	}
}

func TestWavefrontErrorCancelsDependents(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran2 atomic.Bool
		deps := [][]int{nil, {0}, {1}}
		_, err := Wavefront(len(deps), deps, workers, func(_, i int) error {
			if i == 1 {
				return boom
			}
			if i == 2 {
				ran2.Store(true)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if ran2.Load() {
			t.Fatalf("workers=%d: dependent of failed node ran", workers)
		}
	}
}

func TestWavefrontCycleDetected(t *testing.T) {
	deps := [][]int{{1}, {0}}
	_, err := Wavefront(2, deps, 2, func(_, _ int) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle error", err)
	}
}

func TestForEachCoversAll(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 100
		hit := make([]int32, n)
		if err := ForEach(n, workers, func(w, i int) error {
			atomic.AddInt32(&hit[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range hit {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachLowestError checks the deterministic-error contract: with
// several failing indices the lowest one's error is returned at every
// worker count.
func TestForEachLowestError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := ForEach(50, workers, func(w, i int) error {
			if i == 7 || i == 31 || i == 44 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-7" {
			t.Fatalf("workers=%d: err = %v, want fail-7", workers, err)
		}
	}
}
