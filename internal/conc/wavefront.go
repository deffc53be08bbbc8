package conc

import (
	"errors"
	"fmt"
	"sync"
)

// Wavefront executes the n nodes of a dependency DAG on a bounded worker
// pool. deps[i] lists the nodes that must complete before node i may
// start. Scheduling is by dependency counting: a node is enqueued the
// moment its last dependency finishes, with no level barriers, so a deep
// chain never stalls an independent wide frontier. fn receives the
// worker index w (0-based, for trace-track attribution) and the node
// index i.
//
// A worker always takes the lowest-index ready node, so the caller's
// numbering is its priority: at workers <= 1 nodes run on one goroutine in
// the lowest-index topological order, and a caller that numbers the nodes
// of one piece of work consecutively has each piece finished before the
// next is started wherever the dependencies allow. The first error cancels
// dispatch of not-yet-started nodes; nodes already in flight finish.
// Wavefront returns the peak width observed — the largest number of
// nodes simultaneously ready or running, i.e. the parallelism the DAG
// actually exposed — alongside the first error. A dependency cycle is
// reported as an error rather than deadlocking.
func Wavefront(n int, deps [][]int, workers int, fn func(w, i int) error) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, ds := range deps {
		for _, d := range ds {
			if d < 0 || d >= n || d == i {
				return 0, fmt.Errorf("conc: wavefront node %d has invalid dependency %d", i, d)
			}
			indeg[i]++
			dependents[d] = append(dependents[d], i)
		}
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ready    []int // a min-heap
		running  int
		done     int
		firstErr error
		maxWidth int
	)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	maxWidth = len(ready)

	worker := func(w int) {
		mu.Lock()
		defer mu.Unlock()
		for {
			for firstErr == nil && len(ready) == 0 && done < n && running > 0 {
				cond.Wait()
			}
			if firstErr == nil && len(ready) == 0 && running == 0 && done < n {
				// Remaining nodes all wait on each other: a cycle.
				firstErr = errors.New("conc: wavefront stalled on a dependency cycle")
			}
			if firstErr != nil || len(ready) == 0 {
				cond.Broadcast()
				return
			}
			var i int
			i, ready = pop(ready)
			running++
			mu.Unlock()
			err := fn(w, i)
			mu.Lock()
			running--
			done++
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if firstErr == nil {
				for _, j := range dependents[i] {
					indeg[j]--
					if indeg[j] == 0 {
						ready = push(ready, j)
					}
				}
				if width := len(ready) + running; width > maxWidth {
					maxWidth = width
				}
			}
			cond.Broadcast()
		}
	}

	if workers == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				worker(w)
			}(w)
		}
		wg.Wait()
	}
	return maxWidth, firstErr
}

// push adds i to the min-heap h.
func push(h []int, i int) []int {
	h = append(h, i)
	for c := len(h) - 1; c > 0 && h[(c-1)/2] > h[c]; c = (c - 1) / 2 {
		h[(c-1)/2], h[c] = h[c], h[(c-1)/2]
	}
	return h
}

// pop removes the least element of the min-heap h.
func pop(h []int) (int, []int) {
	top, n := h[0], len(h)-1
	h[0], h = h[n], h[:n]
	for p, c := 0, 1; c < n; p, c = c, 2*c+1 {
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
	}
	return top, h
}
