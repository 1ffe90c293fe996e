package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the default histogram bounds for latency values recorded
// in nanoseconds: 1µs–1s on a 1/2/5 grid. Sub-millisecond latencies — the
// paper's headline regime — spread over nine buckets instead of collapsing
// into one bin, so p50/p99 interpolation stays meaningful below 1 ms.
var LatencyBuckets = []int64{
	1_000, 2_000, 5_000, // 1–5 µs
	10_000, 20_000, 50_000, // 10–50 µs
	100_000, 200_000, 500_000, // 0.1–0.5 ms
	1_000_000, 2_000_000, 5_000_000, // 1–5 ms
	10_000_000, 20_000_000, 50_000_000, // 10–50 ms
	100_000_000, 200_000_000, 500_000_000, // 0.1–0.5 s
	1_000_000_000, // 1 s
}

// SizeBuckets are the default bounds for count-valued histograms (batch
// sizes, row counts, fan-outs).
var SizeBuckets = []int64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
}

// Histogram is a fixed-bucket histogram over int64 values with atomic
// per-bucket counters. Values at a bucket's upper bound land in that bucket
// (Prometheus `le` semantics). Recording is lock-free; snapshots are
// eventually consistent (a reader racing a writer may see a count/sum pair
// off by the in-flight sample, which is harmless for monitoring).
type Histogram struct {
	bounds []int64        // ascending upper bounds; implicit +Inf after
	counts []atomic.Int64 // len(bounds)+1, last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // math.MaxInt64 until the first sample
	max    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

func (h *Histogram) metricType() string { return "histogram" }

// Record adds one sample (no-op on a nil histogram).
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Observe records a duration in nanoseconds.
func (h *Histogram) Observe(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket pairs a cumulative upper bound with its sample count.
type Bucket struct {
	// LE is the bucket's inclusive upper bound; the final bucket has
	// LE == math.MaxInt64 (rendered "+Inf").
	LE    int64 `json:"le"`
	Count int64 `json:"count"` // samples in this bucket (not cumulative)
}

// HistogramSnapshot is a point-in-time view of a histogram with derived
// quantiles, suitable for JSON export and benchmark reports.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	P50     int64    `json:"p50"`
	P90     int64    `json:"p90"`
	P99     int64    `json:"p99"`
	P999    int64    `json:"p999"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state with interpolated
// quantiles. Zero-sample histograms snapshot to all-zero values.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		s.Count += counts[i]
	}
	if s.Count == 0 {
		return s
	}
	s.Sum = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Mean = float64(s.Sum) / float64(s.Count)
	s.Buckets = make([]Bucket, len(counts))
	for i, c := range counts {
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = Bucket{LE: le, Count: c}
	}
	s.P50 = quantile(h.bounds, counts, s.Count, s.Min, s.Max, 0.50)
	s.P90 = quantile(h.bounds, counts, s.Count, s.Min, s.Max, 0.90)
	s.P99 = quantile(h.bounds, counts, s.Count, s.Min, s.Max, 0.99)
	s.P999 = quantile(h.bounds, counts, s.Count, s.Min, s.Max, 0.999)
	return s
}

func quantile(bounds []int64, counts []int64, total, min, max int64, q float64) int64 {
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c < target {
			cum += c
			continue
		}
		// Bucket i covers the target rank. Interpolate between its bounds,
		// tightened by the observed min/max.
		lo := int64(0)
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := max
		if i < len(bounds) {
			hi = bounds[i]
		}
		if lo < min {
			lo = min
		}
		if hi > max {
			hi = max
		}
		if hi <= lo {
			return hi
		}
		frac := float64(target-cum) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return max
}
