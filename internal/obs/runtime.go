package obs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// Go runtime health (DESIGN.md §9): what the collector and the scheduler cost
// the daemon, exported beside the engine's own series so an operator can
// divide allocations by commands and count collections per minute without a
// profiler.

// runtimeSeries maps each exported gauge to the runtime/metrics sample behind
// it. Histogram-valued samples export their 99th percentile in nanoseconds.
var runtimeSeries = []struct{ name, sample string }{
	{"go_memstats_alloc_bytes_total", "/gc/heap/allocs:bytes"},
	{"go_memstats_mallocs_total", "/gc/heap/allocs:objects"},
	{"go_gc_cycles_total", "/gc/cycles/total:gc-cycles"},
	{"go_gc_pause_p99_ns", "/sched/pauses/total/gc:seconds"},
	{"go_heap_live_bytes", "/gc/heap/live:bytes"},
	{"go_heap_objects", "/gc/heap/objects:objects"},
	{"go_goroutines", "/sched/goroutines:goroutines"},
	{"go_sched_latency_p99_ns", "/sched/latencies:seconds"},
}

// runtimeMaxAge is how long one metrics.Read serves the gauges: a scrape
// evaluates all of them within microseconds, so it costs one read, and two
// scrapes a second apart never see the same sample.
const runtimeMaxAge = 100 * time.Millisecond

// runtimeReader caches one runtime/metrics.Read for all the gauges.
type runtimeReader struct {
	mu      sync.Mutex
	readAt  time.Time
	samples []metrics.Sample
}

// value returns sample i as an integer, refreshing the cache when it is stale.
func (rr *runtimeReader) value(i int) int64 {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if now := time.Now(); now.Sub(rr.readAt) > runtimeMaxAge {
		metrics.Read(rr.samples)
		rr.readAt = now
	}
	switch v := rr.samples[i].Value; v.Kind() {
	case metrics.KindUint64:
		return int64(v.Uint64())
	case metrics.KindFloat64:
		return int64(v.Float64())
	case metrics.KindFloat64Histogram:
		return int64(histogramQuantile(v.Float64Histogram(), 0.99) * 1e9)
	default: // KindBad: this toolchain does not export the sample
		return 0
	}
}

// histogramQuantile returns the upper bound of the bucket holding the q-th
// quantile of a runtime histogram (its lower bound when the bucket is open
// above), or 0 for an empty histogram.
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		if seen += c; seen >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return 0
}

// RegisterRuntime exports the Go runtime's health as scrape-time gauges on r:
// cumulative heap allocation in bytes and objects, completed GC cycles, the
// 99th-percentile stop-the-world pause, live heap bytes and objects, the
// goroutine count and the 99th-percentile scheduling latency. They are read
// through one cached runtime/metrics.Read — at most one per scrape, and never
// from a hot path.
func RegisterRuntime(r *Registry) {
	if r == nil {
		return
	}
	rr := newRuntimeReader()
	for i, s := range runtimeSeries {
		r.GaugeFunc(s.name, func() int64 { return rr.value(i) })
	}
}

func newRuntimeReader() *runtimeReader {
	rr := &runtimeReader{samples: make([]metrics.Sample, len(runtimeSeries))}
	for i, s := range runtimeSeries {
		rr.samples[i].Name = s.sample
	}
	return rr
}
