// Package metrics implements the allocation-free observability
// primitives threaded through the engine: atomic counters, gauges and
// fixed-bucket histograms. The paper's value proposition is *avoided
// work* — views that recompute only when texp(e) says they must, patches
// that beat full refreshes (Theorem 3), lazy sweeps that batch removal —
// and these primitives are how that avoided work becomes measurable
// (cf. Schmidt & Jensen, "Efficient Management of Short-Lived Data",
// TR-82, which frames expiration-processing overhead and refresh
// frequency as the costs that matter).
//
// Everything here is hot-path safe: Inc/Add/Observe perform a handful of
// atomic operations on preallocated fixed-size state and never allocate,
// so instrumentation points inside insert, read and Advance paths cost
// nanoseconds and zero garbage. Snapshots (taken off the hot path)
// produce plain structs that marshal directly to expvar-style JSON.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use. Copying a Counter after first use is undefined.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be negative for correction, but counters are meant to
// go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (queue depth, pending events).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// NumBuckets is the fixed bucket count of a Histogram. Bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i), with
// bucket 0 collecting v ≤ 0. 48 buckets cover every nanosecond latency up
// to ~78 hours and every batch size up to ~2.8e14.
const NumBuckets = 48

// Histogram is a fixed-bucket power-of-two histogram: no configuration,
// no allocation, one atomic add per observation plus count/sum upkeep.
// The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations so far (0 for a nil h).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations so far.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q ≤ 1) of the observations so
// far, returning the upper bound of the bucket holding the rank-⌈q·n⌉
// observation. Because buckets are powers of two, the estimate e bounds
// the true value v by v ≤ e < 2·v for v > 1 (exact for v ≤ 1), and it is
// never an underestimate — the right sidedness for latency SLOs, where a
// threshold compared against Quantile can only flag late, not early.
// Returns 0 when nothing has been observed. Allocation-free: one pass
// over the fixed bucket array.
func (h *Histogram) Quantile(q float64) int64 {
	var counts [NumBuckets]int64
	total := int64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return quantileOf(&counts, total, q)
}

// quantileOf resolves the q-quantile over a bucket count array whose
// occupancy sums to total. Shared by Histogram.Quantile (live) and
// Snapshot (point-in-time copy).
func quantileOf(counts *[NumBuckets]int64, total int64, q float64) int64 {
	if total <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank <= 0 {
		rank = 1
	}
	seen := int64(0)
	for i, c := range counts {
		seen += c
		if c > 0 && seen >= rank {
			return upperBound(i)
		}
	}
	return 0
}

// Bucket is one non-empty histogram bucket in a snapshot: Count
// observations with value ≤ Le (and greater than the previous bucket's
// Le).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram, shaped for
// JSON export and test assertions. Quantiles are upper-bound
// approximations (the bucket boundary at or above the true quantile —
// within 2× of the true value by construction).
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Mean    float64  `json:"mean"`
	P50     int64    `json:"p50"`
	P99     int64    `json:"p99"`
	Max     int64    `json:"max"` // upper bound of the highest occupied bucket
	Buckets []Bucket `json:"buckets,omitempty"`
}

// upperBound returns the inclusive value upper bound of bucket i.
func upperBound(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<i - 1
}

// Snapshot copies the histogram. Concurrent observations may tear between
// count, sum and buckets; snapshots are monitoring data, not invariants.
// A nil h snapshots as empty.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	var counts [NumBuckets]int64
	total := int64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total > 0 {
		s.P50 = quantileOf(&counts, total, 0.50)
		s.P99 = quantileOf(&counts, total, 0.99)
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, Bucket{Le: upperBound(i), Count: c})
		s.Max = upperBound(i)
	}
	return s
}
