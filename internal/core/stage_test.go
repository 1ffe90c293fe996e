package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/stream"
)

// stageCounts returns each stage histogram's sample count, keyed by stage.
func stageCounts(r *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for name, snap := range r.StageSnapshots() {
		out[name] = snap.Count
	}
	return out
}

// runStageScript drives stream F through the batch ends in ticks, emitting
// each batch's tuples first, and repeats every AdvanceTo once (a repeat does
// not move the clock). It returns the engine's registry, the query, and the
// number of firings its callback saw.
func runStageScript(t *testing.T, flow FlowConfig, ticks []int) (*obs.Registry, *ContinuousQuery, int64) {
	t.Helper()
	r := obs.NewRegistry("test")
	e, err := New(Config{Nodes: 2, Metrics: r, Flow: flow})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	src, err := e.RegisterStream(stream.Config{Name: "F", BatchInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Due windows fire concurrently, so the callback counts atomically.
	var delivered atomic.Int64
	cq, err := e.RegisterContinuous(flowTestQuery, func(*Result, FireInfo) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	b := 0
	for _, end := range ticks {
		for ; b < end/100; b++ {
			for _, tu := range flowTestTuples(b + 1) {
				if err := src.Emit(tu); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.AdvanceTo(rdf.Timestamp(end))
		e.AdvanceTo(rdf.Timestamp(end))
	}
	return r, cq, delivered.Load()
}

// The stage histograms count what DESIGN.md §9 says they time, under the
// names the benchmark scrapes: advance, trigger and gc once per tick that
// moves the clock, dispatch once per injected batch, emit and
// cq_trigger_to_emit once per delivered firing.
func TestStageHistogramsPerTick(t *testing.T) {
	// Four clock-moving ticks; the third seals two batches.
	ticks := []int{100, 200, 400, 500}
	const batches = 5
	r, cq, delivered := runStageScript(t, FlowConfig{}, ticks)
	if delivered == 0 || delivered != cq.Stats().Executions {
		t.Fatalf("delivered %d firings, stats %+v", delivered, cq.Stats())
	}
	got := stageCounts(r)
	want := map[string]int64{
		"advance":            int64(len(ticks)),
		"trigger":            int64(len(ticks)),
		"gc":                 int64(len(ticks)),
		"dispatch":           batches,
		"execute":            delivered,
		"emit":               delivered,
		"cq_trigger_to_emit": delivered,
	}
	for stage, n := range want {
		if got[stage] != n {
			t.Errorf("stage_%s_latency_ns count = %d, want %d (all: %v)", stage, got[stage], n, got)
		}
	}

	// The exported families carry the exact names the benchmark reads.
	var text strings.Builder
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, st := range []string{"advance", "inject", "index", "dispatch", "trigger", "execute", "gc"} {
		if name := "test_stage_" + st + "_latency_ns_sum "; !strings.Contains(text.String(), name) {
			t.Errorf("/metrics has no %q", name)
		}
	}
}

// A firing shed by its deadline is neither emitted nor timed as one: the
// tick stages still count, emit and cq_trigger_to_emit record nothing.
func TestStageHistogramsSkipShedFirings(t *testing.T) {
	ticks := []int{100, 200, 300}
	r, cq, delivered := runStageScript(t, FlowConfig{CQDeadline: time.Nanosecond}, ticks)
	if delivered != 0 || cq.Stats().DeadlineExceeded == 0 {
		t.Fatalf("delivered %d, stats %+v; want every firing shed", delivered, cq.Stats())
	}
	got := stageCounts(r)
	for _, stage := range []string{"advance", "trigger", "gc"} {
		if got[stage] != int64(len(ticks)) {
			t.Errorf("stage_%s_latency_ns count = %d, want %d", stage, got[stage], len(ticks))
		}
	}
	for _, stage := range []string{"emit", "cq_trigger_to_emit", "execute"} {
		if got[stage] != 0 {
			t.Errorf("stage_%s_latency_ns count = %d for shed firings, want 0", stage, got[stage])
		}
	}
}
