// Package harness provides the shared machinery for reproducing the paper's
// experiments: the one schedule every benchmark stream is generated on, an
// engine Driver that emits it and keeps a record of what it emitted for the
// baseline systems, latency statistics (percentiles, CDFs, geometric means),
// and table formatting for the wsbench command.
package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline/rel"
	"repro/internal/bench/citybench"
	"repro/internal/bench/lsbench"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stream"
	"repro/internal/strserver"
)

// GenFunc produces a stream's tuples for a time range (generators are
// stateful and must be called with contiguous, increasing ranges).
type GenFunc func(stream string, from, to rdf.Timestamp) []strserver.EncodedTuple

// The steps the experiments generate their streams in: one LSBench batch
// interval, and one CityBench batch interval.
const (
	LSBenchStep   = 100 * time.Millisecond
	CityBenchStep = time.Second
)

// Schedule generates streams over (from, until] in fixed steps: every
// stream's share of one step, in order, before the next step's. A
// generator's output depends on how it is called (its counts and its picks
// among earlier entities are per call), so a workload is one stream only on
// one schedule; the Driver and wsgen both generate through this loop. emit
// receives each stream's tuples of a step, and stepped, if not nil, the end
// of each step.
func Schedule(gen GenFunc, streams []string, from, until rdf.Timestamp, step time.Duration,
	emit func(stream string, tuples []strserver.EncodedTuple) error, stepped func(to rdf.Timestamp)) error {
	ms := rdf.Timestamp(step.Milliseconds())
	if ms <= 0 {
		return fmt.Errorf("harness: step %v is under a millisecond", step)
	}
	for from < until {
		to := min(from+ms, until)
		for _, s := range streams {
			if err := emit(s, gen(s, from, to)); err != nil {
				return err
			}
		}
		if stepped != nil {
			stepped(to)
		}
		from = to
	}
	return nil
}

// StreamSpec describes one stream to register.
type StreamSpec struct {
	Name          string
	BatchInterval time.Duration
	TimingPreds   []string
}

// Driver feeds generated streams into a Wukong+S engine, advances its
// clock, and records every tuple a stream admitted: the baselines answer
// their windows from that record, so they see the tuples the engine saw.
type Driver struct {
	E       *core.Engine
	sources map[string]*stream.Source
	streams []string
	gen     GenFunc
	now     rdf.Timestamp
	record  map[string][]strserver.EncodedTuple
}

// NewDriver registers the streams on the engine and returns a driver.
func NewDriver(e *core.Engine, specs []StreamSpec, gen GenFunc) (*Driver, error) {
	d := &Driver{E: e, sources: make(map[string]*stream.Source), gen: gen,
		record: make(map[string][]strserver.EncodedTuple)}
	for _, sp := range specs {
		src, err := e.RegisterStream(stream.Config{
			Name:             sp.Name,
			BatchInterval:    sp.BatchInterval,
			TimingPredicates: sp.TimingPreds,
		})
		if err != nil {
			return nil, err
		}
		d.sources[sp.Name] = src
		d.streams = append(d.streams, sp.Name)
	}
	return d, nil
}

// Now returns the driver's logical clock.
func (d *Driver) Now() rdf.Timestamp { return d.now }

// StepTo generates and emits all stream tuples in (now, ts] as one step and
// advances the engine, firing due continuous queries. A ts at or before now
// does nothing.
func (d *Driver) StepTo(ts rdf.Timestamp) error {
	if ts <= d.now {
		return nil
	}
	return d.Run(time.Duration(ts-d.now)*time.Millisecond, ts)
}

// Run advances the logical clock in fixed steps until `until`.
func (d *Driver) Run(step time.Duration, until rdf.Timestamp) error {
	return Schedule(d.gen, d.streams, d.now, until, step, d.emit, d.advance)
}

// emit admits one step's tuples of a stream and records those admitted.
func (d *Driver) emit(name string, tuples []strserver.EncodedTuple) error {
	src := d.sources[name]
	for i, tu := range tuples {
		if err := src.EmitEncoded(tu); err != nil {
			d.record[name] = append(d.record[name], tuples[:i]...)
			return err
		}
	}
	d.record[name] = append(d.record[name], tuples...)
	return nil
}

func (d *Driver) advance(to rdf.Timestamp) {
	d.now = to
	d.E.AdvanceTo(to)
}

// Windows returns the recorded contents of q's windows ending at `at`, keyed
// by stream, each cut as every system cuts it (rel.WindowBounds).
func (d *Driver) Windows(q *sparql.Query, at rdf.Timestamp) rel.Windows {
	out := make(rel.Windows, len(q.Windows))
	for _, win := range q.Windows {
		first, last := rel.WindowBounds(at, win.Range)
		all := d.record[win.Stream]
		lo := sort.Search(len(all), func(i int) bool { return all[i].TS >= first })
		hi := sort.Search(len(all), func(i int) bool { return all[i].TS > last })
		out[win.Stream] = all[lo:hi:hi]
	}
	return out
}

// Streams returns the driven streams' names, in emission order.
func (d *Driver) Streams() []string { return d.streams }

// All returns every recorded tuple of a stream (Wukong/Ext and Structured
// Streaming absorb the full history).
func (d *Driver) All(stream string) []strserver.EncodedTuple { return d.record[stream] }

// LSBenchEngine builds an engine loaded with an LSBench workload: the
// engine, its driver, and the workload (sharing the engine's string server).
func LSBenchEngine(engineCfg core.Config, lsCfg lsbench.Config) (*core.Engine, *Driver, *lsbench.Workload, error) {
	e, err := core.New(engineCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	w := lsbench.Generate(lsCfg, e.StringServer())
	var specs []StreamSpec
	for _, sp := range lsbench.StreamConfigs() {
		specs = append(specs, StreamSpec{Name: sp.Name, BatchInterval: sp.BatchInterval, TimingPreds: sp.TimingPreds})
	}
	d, err := load(e, w.Initial, specs, w.StreamTuples)
	return e, d, w, err
}

// CityBenchEngine builds an engine loaded with a CityBench workload.
func CityBenchEngine(engineCfg core.Config, cbCfg citybench.Config) (*core.Engine, *Driver, *citybench.Workload, error) {
	e, err := core.New(engineCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	w := citybench.Generate(cbCfg, e.StringServer())
	var specs []StreamSpec
	for _, sp := range citybench.StreamConfigs() {
		specs = append(specs, StreamSpec{Name: sp.Name, BatchInterval: sp.BatchInterval, TimingPreds: sp.TimingPreds})
	}
	d, err := load(e, w.Initial, specs, w.StreamTuples)
	return e, d, w, err
}

// load loads the initial graph into e and returns a driver of its streams.
// It closes e if it fails.
func load(e *core.Engine, initial []strserver.EncodedTriple, specs []StreamSpec, gen GenFunc) (*Driver, error) {
	e.LoadEncoded(initial)
	d, err := NewDriver(e, specs, gen)
	if err != nil {
		e.Close()
	}
	return d, err
}

// Percentile returns the p-th percentile (0–100) of the latencies.
func Percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Median returns the 50th percentile.
func Median(lats []time.Duration) time.Duration { return Percentile(lats, 50) }

// GeoMean returns the geometric mean of durations (the paper reports
// geometric means across queries).
func GeoMean(vals []time.Duration) time.Duration {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			v = time.Nanosecond
		}
		sum += math.Log(float64(v))
	}
	return time.Duration(math.Exp(sum / float64(len(vals))))
}

// MedianOfRuns runs fn `runs` times and returns the median of its measured
// durations — the paper reports "the median latency of one hundred runs".
func MedianOfRuns(runs int, fn func() time.Duration) time.Duration {
	lats := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		lats = append(lats, fn())
	}
	return Median(lats)
}

// CDF returns (latency, cumulative fraction) points for plotting.
func CDF(lats []time.Duration, points int) [][2]float64 {
	if len(lats) == 0 || points <= 0 {
		return nil
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([][2]float64, 0, points)
	for i := 1; i <= points; i++ {
		idx := len(sorted)*i/points - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, [2]float64{
			float64(sorted[idx]) / float64(time.Millisecond),
			float64(i) / float64(points),
		})
	}
	return out
}

// Ms formats a duration in milliseconds with adaptive precision, matching
// the paper's tables.
func Ms(d time.Duration) string {
	ms := float64(d) / float64(time.Millisecond)
	switch {
	case d == 0:
		return "-"
	case ms >= 100:
		return fmt.Sprintf("%.0f", ms)
	case ms >= 1:
		return fmt.Sprintf("%.2f", ms)
	default:
		return fmt.Sprintf("%.3f", ms)
	}
}

// Table accumulates rows and prints aligned columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
