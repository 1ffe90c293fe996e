// Package obs is the engine's zero-dependency observability layer: lock-light
// atomic counters and gauges, fixed-bucket histograms with microsecond-
// resolution buckets (so sub-millisecond latencies do not collapse into one
// bin), and per-stage latency histograms (Stage) that break a batch's trip
// through the continuous pipeline (inject → index → VTS → trigger → execute
// → emit) into parts.
//
// Metrics live in a Registry. The process-global Default registry is what the
// engine, server, and benchmarks share; tests that need isolation create
// their own with NewRegistry. Registration is idempotent: asking for a metric
// that already exists returns the existing one, so independent components can
// name the same counter without coordination (and repeated engine
// constructions in one process accumulate into the same process-wide series,
// which is the Prometheus counter contract).
//
// Every method is safe on a nil *Registry and a nil metric — a component
// handed no registry simply records nothing. That is the one way to turn
// recording off.
//
// Naming scheme (see DESIGN.md §9): <subsystem>_<metric>_<unit>, with an
// optional {label="value"} suffix built by Name. The registry prefix
// ("wukongs" for Default) is prepended at export time. Stage histograms are
// named stage_<stage>_latency_ns and recorded in nanoseconds against
// microsecond-grained buckets.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric is implemented by Counter, Gauge, FuncGauge, and Histogram.
type Metric interface {
	metricType() string
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

func (c *Counter) metricType() string { return "counter" }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op on a nil counter).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable atomic value.
type Gauge struct {
	v atomic.Int64
}

func (g *Gauge) metricType() string { return "gauge" }

// Set stores v (no-op on a nil gauge).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n to the gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FuncGauge is a gauge evaluated at scrape time. Re-registering the same name
// replaces the function — the newest owner of the name wins, which lets a
// fresh engine in the same process take over process-wide gauges.
type FuncGauge struct {
	fn atomic.Pointer[func() int64]
}

func (g *FuncGauge) metricType() string { return "gauge" }

// Value evaluates the gauge (0 for nil or unset).
func (g *FuncGauge) Value() int64 {
	if g == nil {
		return 0
	}
	fn := g.fn.Load()
	if fn == nil {
		return 0
	}
	return (*fn)()
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops).
type Registry struct {
	prefix string

	mu      sync.RWMutex
	metrics map[string]Metric
}

// NewRegistry creates a registry whose exported metric names carry the
// given prefix (may be empty).
func NewRegistry(prefix string) *Registry {
	return &Registry{prefix: prefix, metrics: make(map[string]Metric)}
}

// Default is the process-global registry shared by the engine, server,
// daemon, and benchmarks.
var Default = NewRegistry("wukongs")

// lookup returns the metric registered under name, or nil.
func (r *Registry) lookup(name string) Metric {
	r.mu.RLock()
	m := r.metrics[name]
	r.mu.RUnlock()
	return m
}

// register installs make()'s metric under name unless one exists; either way
// the metric now under the name is returned.
func (r *Registry) register(name string, make func() Metric) Metric {
	if m := r.lookup(name); m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil {
		return m
	}
	m := make()
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it on first
// use. Panics if the name is already a different metric type.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, func() Metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %s, not a counter", name, m.metricType()))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, func() Metric { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %s, not a gauge", name, m.metricType()))
	}
	return g
}

// GaugeFunc registers fn as a scrape-time gauge under name, replacing any
// previously registered function for the name.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	m := r.register(name, func() Metric { return &FuncGauge{} })
	g, ok := m.(*FuncGauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %s, not a func gauge", name, m.metricType()))
	}
	g.fn.Store(&fn)
}

// Histogram returns the histogram registered under name, creating it with the
// given bucket upper bounds on first use (LatencyBuckets when bounds is nil).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(name, func() Metric { return newHistogram(bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %s, not a histogram", name, m.metricType()))
	}
	return h
}

// Stage returns the latency histogram for the given pipeline stage
// (stage_<name>_latency_ns). Callers on a hot path resolve it once and keep
// the pointer.
func (r *Registry) Stage(stage string) *Histogram {
	return r.Histogram("stage_"+stage+"_latency_ns", LatencyBuckets)
}

// Each calls fn for every registered metric, in sorted name order.
func (r *Registry) Each(fn func(name string, m Metric)) {
	if r == nil {
		return
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		if m := r.lookup(name); m != nil {
			fn(name, m)
		}
	}
}

// Reset drops every registered metric (test isolation).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.metrics = make(map[string]Metric)
	r.mu.Unlock()
}

// Name builds a labeled metric name: Name("x_total", "stream", "S") is
// `x_total{stream="S"}`. Labels come in key, value pairs; label values are
// escaped for the Prometheus text format.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	if len(labels)%2 != 0 {
		panic("obs: Name requires key/value label pairs")
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text exposition rules.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
