package conc

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(w, i) for every i in [0, n) on up to workers
// goroutines, handing out indices in increasing order. w identifies the
// executing worker (0-based) for trace-track attribution.
//
// Error handling is deterministic: the error returned is always the one
// from the lowest-numbered index that failed. Indices below a known
// failure are never skipped (they are claimed before or concurrently
// with it), so the same input fails with the same error at every worker
// count. Indices above the lowest failure may be skipped.
func ForEach(n, workers int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   int64
		errIdx = int64(n) // lowest failed index so far; written under mu
		mu     sync.Mutex
		err    error // the error at errIdx
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n || int64(i) > atomic.LoadInt64(&errIdx) {
					return
				}
				if e := fn(w, i); e != nil {
					mu.Lock()
					if int64(i) < errIdx {
						err = e
						atomic.StoreInt64(&errIdx, int64(i))
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return err
}
