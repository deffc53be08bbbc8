package obs

import (
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
)

// numBuckets covers the full non-negative int64 range in powers of two:
// bucket 0 holds values <= 0, bucket i (i >= 1) holds [2^(i-1), 2^i).
const numBuckets = 64

// Histogram is a lock-free latency histogram with power-of-two buckets.
// Observations are int64s (nanoseconds by convention for _ns metrics).
// Quantiles interpolate linearly inside the winning bucket and clamp to the
// observed min/max, which makes single-point distributions exact and keeps
// the worst-case relative error for any distribution below one bucket width
// (a factor of two), far tighter in practice.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // initialized to MaxInt64 by the registry
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // v in [2^(b-1), 2^b) for b >= 1
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// bucketBounds returns the [lo, hi) value range of a bucket.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	lo = int64(1) << (i - 1)
	if i == numBuckets-1 {
		return lo, math.MaxInt64
	}
	return lo, lo << 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-th quantile (q in [0, 1]) of the observed
// distribution. Returns 0 for an empty histogram. Quantile(0) is the exact
// minimum, Quantile(1) the exact maximum.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	mn, mx := h.min.Load(), h.max.Load()
	if q <= 0 {
		return mn
	}
	if q >= 1 {
		return mx
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if cum+c < target {
			cum += c
			continue
		}
		lo, hi := bucketBounds(i)
		// Linear interpolation within the bucket: the target rank sits a
		// fraction f of the way through this bucket's c observations.
		f := float64(target-cum) / float64(c)
		v := int64(float64(lo) + f*float64(hi-lo))
		if v < mn {
			v = mn
		}
		if v > mx {
			v = mx
		}
		return v
	}
	return mx
}

// HistSnapshot is a point-in-time summary of a histogram, shaped for JSON.
// All values except Count share the unit named by Unit (the registry derives
// it from the metric-name suffix; "_ns" metrics are nanoseconds).
type HistSnapshot struct {
	// Unit names the unit of Sum/Min/Max and the percentiles ("ns" for
	// nanosecond latencies, empty for plain counts). Count is always a
	// number of observations.
	Unit  string `json:"unit,omitempty"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
}

// UnitOf derives a metric's unit from its name suffix, the repo-wide
// convention documented on package obs: "_ns" metrics are nanoseconds.
// Labeled names are judged by their base name alone.
func UnitOf(name string) string {
	name, _ = SplitLabels(name)
	if strings.HasSuffix(name, "_ns") {
		return "ns"
	}
	return ""
}

// Snapshot summarizes the histogram. An empty histogram snapshots to all
// zeros.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil || h.count.Load() == 0 {
		return HistSnapshot{}
	}
	return HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}
