package obs

import (
	"math"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry("t")
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	// Idempotent registration returns the same metric.
	if r.Counter("reqs_total") != c {
		t.Error("Counter re-registration returned a different metric")
	}
}

func TestGaugeFuncReplaces(t *testing.T) {
	r := NewRegistry("t")
	r.GaugeFunc("v", func() int64 { return 1 })
	r.GaugeFunc("v", func() int64 { return 2 })
	var got int64
	r.Each(func(name string, m Metric) {
		if name == "v" {
			got = m.(*FuncGauge).Value()
		}
	})
	if got != 2 {
		t.Errorf("func gauge = %d, want 2 (newest registration wins)", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// None of these may panic; records are dropped.
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.GaugeFunc("x", func() int64 { return 1 })
	r.Histogram("x", nil).Record(1)
	r.Stage("x").Observe(time.Millisecond)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	var h *Histogram
	h.Record(1)
	if h.Snapshot().Count != 0 {
		t.Error("nil histogram snapshot not zero")
	}
}

// TestHistogramBucketEdges pins the `le` semantics at the microsecond and
// millisecond boundaries: a value equal to a bound lands in that bound's
// bucket, one past it lands in the next.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("lat_ns", LatencyBuckets)
	find := func(le int64) int {
		for i, b := range LatencyBuckets {
			if b == le {
				return i
			}
		}
		t.Fatalf("bound %d not in LatencyBuckets", le)
		return -1
	}
	cases := []struct {
		v      int64
		bucket int // index into snapshot buckets
	}{
		{1000, find(1000)},                   // exactly 1µs → le=1000 bucket
		{1001, find(2000)},                   // just past 1µs → next bucket
		{1_000_000, find(1_000_000)},         // exactly 1ms
		{1_000_001, find(2_000_000)},         // just past 1ms
		{0, 0},                               // below the first bound
		{math.MaxInt64, len(LatencyBuckets)}, // overflow bucket (+Inf)
	}
	for _, tc := range cases {
		h.Record(tc.v)
	}
	snap := h.Snapshot()
	if len(snap.Buckets) != len(LatencyBuckets)+1 {
		t.Fatalf("bucket count = %d, want %d", len(snap.Buckets), len(LatencyBuckets)+1)
	}
	counts := make([]int64, len(snap.Buckets))
	for _, tc := range cases {
		counts[tc.bucket]++
	}
	for i, b := range snap.Buckets {
		if b.Count != counts[i] {
			t.Errorf("bucket %d (le=%d): count %d, want %d", i, b.LE, b.Count, counts[i])
		}
	}
	if snap.Min != 0 || snap.Max != math.MaxInt64 {
		t.Errorf("min/max = %d/%d", snap.Min, snap.Max)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("lat_ns", LatencyBuckets)
	// 100 samples at exactly 5µs: every quantile must interpolate within the
	// covering bucket but clamp to the observed min/max.
	for i := 0; i < 100; i++ {
		h.Record(5000)
	}
	snap := h.Snapshot()
	if snap.P50 != 5000 || snap.P99 != 5000 || snap.P999 != 5000 {
		t.Errorf("uniform-sample quantiles = %d/%d/%d, want all 5000",
			snap.P50, snap.P99, snap.P999)
	}
	if snap.Mean != 5000 {
		t.Errorf("mean = %v, want 5000", snap.Mean)
	}
	// A spread: 90 fast samples, 10 slow ones; p99 must land in the slow range.
	h2 := r.Histogram("lat2_ns", LatencyBuckets)
	for i := 0; i < 90; i++ {
		h2.Record(2000)
	}
	for i := 0; i < 10; i++ {
		h2.Record(90_000)
	}
	s2 := h2.Snapshot()
	if s2.P50 > 5000 {
		t.Errorf("p50 = %d, want ≤ 5000", s2.P50)
	}
	if s2.P99 < 50_000 || s2.P99 > 100_000 {
		t.Errorf("p99 = %d, want within the slow bucket", s2.P99)
	}
}

// TestHistogramConcurrent exercises concurrent recording under -race and
// checks no samples are lost.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("lat_ns", LatencyBuckets)
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(int64(1000 + g*1000 + i))
				if i%10 == 0 {
					_ = h.Snapshot() // concurrent reads race-check the snapshot path
				}
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", snap.Count, goroutines*perG)
	}
	var bucketSum int64
	for _, b := range snap.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != snap.Count {
		t.Errorf("bucket sum = %d, count = %d", bucketSum, snap.Count)
	}
}

// TestPrometheusGolden pins the exact text exposition output for a small
// registry: type headers, sorted families, labeled series, and the histogram's
// cumulative buckets.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry("w")
	r.Counter("b_total").Add(3)
	r.Counter(Name("a_total", "stream", "S1")).Add(1)
	r.Counter(Name("a_total", "stream", "S2")).Add(2)
	r.Gauge("depth").Set(-4)
	h := r.Histogram("lat_ns", []int64{1000, 2000})
	h.Record(1000) // le=1000
	h.Record(1500) // le=2000
	h.Record(9999) // +Inf
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE w_a_total counter
w_a_total{stream="S1"} 1
w_a_total{stream="S2"} 2
# TYPE w_b_total counter
w_b_total 3
# TYPE w_depth gauge
w_depth -4
# TYPE w_lat_ns histogram
w_lat_ns_bucket{le="1000"} 1
w_lat_ns_bucket{le="2000"} 2
w_lat_ns_bucket{le="+Inf"} 3
w_lat_ns_sum 12499
w_lat_ns_count 3
`
	if got := b.String(); got != want {
		t.Errorf("Prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The runtime-health gauges are pinned by name only: their values vary.
	RegisterRuntime(r)
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"go_memstats_alloc_bytes_total", "go_memstats_mallocs_total", "go_gc_cycles_total",
		"go_gc_pause_p99_ns", "go_heap_live_bytes", "go_heap_objects", "go_goroutines",
		"go_sched_latency_p99_ns",
	} {
		if !regexp.MustCompile(`(?m)^# TYPE w_` + name + ` gauge\nw_` + name + ` \d+$`).MatchString(b.String()) {
			t.Errorf("runtime gauge %s missing from:\n%s", name, b.String())
		}
	}
}

// TestRuntimeGaugesMove checks the runtime gauges read the live runtime:
// allocation counters grow with allocation, the heap and goroutine gauges are
// positive, and reads inside one scrape are served by one cached sample.
func TestRuntimeGaugesMove(t *testing.T) {
	rr := newRuntimeReader()
	read := func(name string) int64 {
		for i, s := range runtimeSeries {
			if s.name == name {
				return rr.value(i)
			}
		}
		t.Fatalf("no runtime series %q", name)
		return 0
	}
	bytes0, mallocs0 := read("go_memstats_alloc_bytes_total"), read("go_memstats_mallocs_total")
	sink := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	runtime.GC()
	if again := read("go_memstats_alloc_bytes_total"); again != bytes0 {
		t.Errorf("two reads inside one scrape differ: %d then %d (the sample is not cached)", bytes0, again)
	}
	rr.readAt = time.Time{} // the next scrape
	if d := read("go_memstats_alloc_bytes_total") - bytes0; d < 1000*1024 {
		t.Errorf("alloc_bytes_total grew %d after allocating 1 MiB", d)
	}
	if d := read("go_memstats_mallocs_total") - mallocs0; d < 1000 {
		t.Errorf("mallocs_total grew %d after 1000 allocations", d)
	}
	for _, name := range []string{"go_gc_cycles_total", "go_heap_live_bytes", "go_heap_objects", "go_goroutines"} {
		if v := read(name); v <= 0 {
			t.Errorf("%s = %d, want > 0", name, v)
		}
	}
	runtime.KeepAlive(sink)
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry("w")
	r.Counter("x_total").Add(7)
	r.Histogram("lat_ns", nil).Record(5000)
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"w_x_total"`, `"value": 7`, `"w_lat_ns"`, `"count": 1`, `"p50"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s in:\n%s", want, s)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry("w")
	r.Counter("hits_total").Add(2)
	mux := NewHTTPMux(r)

	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path, accept string) (string, string) {
		req := httptest.NewRequest("GET", path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Body.String(), rec.Header().Get("Content-Type")
	}

	body, ct := get("/metrics", "")
	if !strings.Contains(body, "w_hits_total 2") {
		t.Errorf("text /metrics missing counter:\n%s", body)
	}
	if !strings.Contains(ct, "text/plain") {
		t.Errorf("text content type = %q", ct)
	}

	body, ct = get("/metrics?format=json", "")
	if !strings.Contains(body, `"value": 2`) || !strings.Contains(ct, "application/json") {
		t.Errorf("json /metrics = %q (%s)", body, ct)
	}

	body, _ = get("/debug/pprof/", "")
	if !strings.Contains(body, "profile") {
		t.Errorf("pprof index unexpected:\n%.200s", body)
	}
}

func TestNameEscaping(t *testing.T) {
	got := Name("x_total", "q", `a"b\c`)
	want := `x_total{q="a\"b\\c"}`
	if got != want {
		t.Errorf("Name = %s, want %s", got, want)
	}
	if Name("plain") != "plain" {
		t.Error("unlabeled Name altered the base")
	}
}
