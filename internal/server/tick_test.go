package server

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench/lsbench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// tickHarness drives the daemon-side half of the benchmark's tick — five
// EMITs, one ADVANCE, six POLLs — in-process: write verbs through
// cluster.ApplyVerb with BufferResult as the sink, POLL through cmdPoll into
// a discarded writer. No socket and no client library, so what it allocates
// is what the daemon allocates.
type tickHarness struct {
	eng   *core.Engine
	srv   *Server
	ls    *lsbench.Workload
	cqs   []string
	ticks []harnessTick
	next  int
	w     *bufio.Writer
}

// harnessTick is one pre-rendered tick: the EMIT bodies as the client would
// send them (parallel to lsbench.Streams()) and the ADVANCE argument.
type harnessTick struct {
	bodies  []string
	advance []string
}

// newTickHarness loads the LSBench static graph (Users=200, streams at a
// quarter of the default rates like the benchmark's stream-standalone),
// registers the five streams and L1–L6, and pre-renders n ticks.
func newTickHarness(tb testing.TB, n int) *tickHarness {
	tb.Helper()
	eng, err := core.New(core.Config{Nodes: 2, WorkersPerNode: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	w := lsbench.Generate(lsbench.Config{
		Seed: 7, Users: 200,
		RatePO: 250, RatePOL: 2150, RatePH: 250, RatePHL: 187, RateGPS: 500,
	}, strserver.New())
	h := &tickHarness{eng: eng, srv: New(eng), ls: w, w: bufio.NewWriter(io.Discard)}

	var load strings.Builder
	for _, e := range w.Initial {
		t, err := w.SS.DecodeTriple(e)
		if err != nil {
			tb.Fatal(err)
		}
		load.WriteString(t.String())
		load.WriteString(" .\n")
	}
	h.apply(tb, "LOAD", nil, load.String())
	for _, st := range lsbench.StreamConfigs() {
		args := append([]string{st.Name, fmt.Sprint(st.BatchInterval.Milliseconds())}, st.TimingPreds...)
		h.apply(tb, "STREAM", args, "")
	}
	for q := 1; q <= 6; q++ {
		reply := h.apply(tb, "REGISTER", nil, w.QueryL(q, 3+q))
		h.cqs = append(h.cqs, strings.TrimPrefix(reply, "registered "))
	}
	for i := 0; i < n; i++ {
		h.ticks = append(h.ticks, h.render(tb, i))
	}
	return h
}

// render returns tick i: the stream tuples of [100i, 100i+100) ms.
func (h *tickHarness) render(tb testing.TB, i int) harnessTick {
	from := rdf.Timestamp(i * 100)
	tk := harnessTick{advance: []string{fmt.Sprint(int64(from) + 100)}}
	for _, name := range lsbench.Streams() {
		var b strings.Builder
		for j, e := range h.ls.StreamTuples(name, from, from+100) {
			t, err := h.ls.SS.DecodeTriple(e.EncodedTriple)
			if err != nil {
				tb.Fatal(err)
			}
			if j > 0 {
				b.WriteByte('\n')
			}
			b.WriteString(rdf.Tuple{Triple: t, TS: e.TS}.String())
		}
		tk.bodies = append(tk.bodies, b.String())
	}
	return tk
}

// grow runs n more ticks past the pre-rendered ones, rendering each just
// before it runs and keeping none.
func (h *tickHarness) grow(tb testing.TB, n int) {
	for range n {
		h.ticks = append(h.ticks[:h.next], h.render(tb, h.next))
		h.tick(tb)
		h.ticks[h.next-1] = harnessTick{}
	}
}

func (h *tickHarness) apply(tb testing.TB, kind string, args []string, body string) string {
	reply, err := cluster.ApplyVerb(h.eng, h.srv.BufferResult, kind, args, body)
	if err != nil {
		tb.Fatalf("%s %v: %v", kind, args, err)
	}
	return reply
}

// tick runs the next pre-rendered tick and returns the rows POLL delivered.
func (h *tickHarness) tick(tb testing.TB) int {
	before := h.buffered()
	h.emit(tb)
	h.advance(tb)
	return int(h.buffered() - before)
}

// emit runs the next tick's five EMITs and returns the tuples they carried.
func (h *tickHarness) emit(tb testing.TB) int {
	tk := &h.ticks[h.next]
	n := 0
	for i, name := range lsbench.Streams() {
		reply := h.apply(tb, "EMIT", []string{name}, tk.bodies[i])
		c, err := strconv.Atoi(strings.TrimPrefix(reply, "emitted "))
		if err != nil {
			tb.Fatalf("EMIT reply %q", reply)
		}
		n += c
	}
	return n
}

// advance ends the tick emit began: its ADVANCE and the six POLLs.
func (h *tickHarness) advance(tb testing.TB) {
	tk := &h.ticks[h.next]
	h.next++
	h.apply(tb, "ADVANCE", tk.advance, "")
	for _, name := range h.cqs {
		if err := h.srv.cmdPoll(h.w, []string{name}); err != nil {
			tb.Fatal(err)
		}
	}
}

// buffered is the cumulative count of rows firings have handed to the POLL
// buffers.
func (h *tickHarness) buffered() int64 {
	h.srv.mu.Lock()
	defer h.srv.mu.Unlock()
	var n int64
	for _, buf := range h.srv.results {
		n += buf.cumRows
	}
	return n
}

const (
	tickWarm     = 30
	tickMeasured = 50
)

// measureTicks warms the harness up, then reports bytes and mallocs per tick
// over the measured ticks, and the rows they delivered.
func measureTicks(tb testing.TB) (bytesPerTick, mallocsPerTick float64, rows int) {
	h := newTickHarness(tb, tickWarm+tickMeasured)
	for i := 0; i < tickWarm; i++ {
		h.tick(tb)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < tickMeasured; i++ {
		rows += h.tick(tb)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / tickMeasured,
		float64(m1.Mallocs-m0.Mallocs) / tickMeasured, rows
}

// TestTickAllocationBudget is the whole-path pin: one tick of EMIT ×5 →
// inject → fire → POLL ×6 on the daemon side (≈ 334 tuples in, ≈ 565 rows
// out) stays under a ceiling set 1.5× above what this tree measures, 227 KB
// and 871 mallocs. Before the allocation diet (commit df08a57) the same
// harness read 1 045 KB and 5 027 mallocs per tick, with per-batch Go maps
// in the stream index and transient store 340 KB and 1 080, and with a
// slice per binding row 284 KB and 914, so a site that comes back — the
// per-EMIT scanner buffer alone was 330 KB — breaks the ceiling.
func TestTickAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	b, m, rows := measureTicks(t)
	t.Logf("per tick: %.0f KB, %.0f mallocs; %d rows over %d ticks", b/1024, m, rows, tickMeasured)
	if rows == 0 {
		t.Fatal("no rows delivered: the harness is not exercising fire → POLL")
	}
	const maxBytes, maxMallocs = 340 << 10, 1307
	if b > maxBytes || m > maxMallocs {
		t.Fatalf("per tick: %.0f bytes (ceiling %d), %.0f mallocs (ceiling %d)", b, maxBytes, m, maxMallocs)
	}
}

// BenchmarkMicro_Tick reports time, B/op and allocs/op for one daemon-side
// tick (`make bench` runs it beside the root benchmarks).
func BenchmarkMicro_Tick(b *testing.B) {
	b.ReportAllocs()
	h := newTickHarness(b, tickWarm+b.N)
	for i := 0; i < tickWarm; i++ {
		h.tick(b)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.tick(b)
	}
}

// measureEmits warms the harness up, then reports bytes and mallocs per tick
// of the five EMITs alone (ADVANCE and POLL run between them, uncounted),
// and the tuples they carried.
func measureEmits(tb testing.TB) (bytesPerTick, mallocsPerTick float64, tuples int) {
	h := newTickHarness(tb, tickWarm+tickMeasured)
	for i := 0; i < tickWarm; i++ {
		h.tick(tb)
	}
	var bytes, mallocs uint64
	for i := 0; i < tickMeasured; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tuples += h.emit(tb)
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		mallocs += m1.Mallocs - m0.Mallocs
		h.advance(tb)
	}
	return float64(bytes) / tickMeasured, float64(mallocs) / tickMeasured, tuples
}

// TestEmitAllocationBudget pins the EMIT verb on the daemon side: one tick's
// five bodies (≈ 334 tuples, ≈ 57 new terms) stay under a ceiling 1.5× what
// this tree measures, 21 KB and 23 mallocs. What is left is mostly data: the
// adaptor's pending tuples, and the arena, refs and table growth new terms
// pay for; the rest is refilling the pool of body scratch after a collection
// empties it. Parsing to []rdf.Tuple and a heap string per new term read 32 KB
// and 102 mallocs on the same harness.
func TestEmitAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	b, m, tuples := measureEmits(t)
	t.Logf("per tick: %.1f KB, %.1f mallocs for %d tuples", b/1024, m, tuples/tickMeasured)
	const maxBytes, maxMallocs = 32 << 10, 34
	if b > maxBytes || m > maxMallocs {
		t.Fatalf("per tick: %.0f bytes (ceiling %d), %.1f mallocs (ceiling %d)", b, maxBytes, m, maxMallocs)
	}
}

// BenchmarkMicro_Emit reports time and allocations for one tick's five EMIT
// bodies through ApplyVerb, and ns per tuple; the tick's ADVANCE and POLLs
// run with the timer stopped.
func BenchmarkMicro_Emit(b *testing.B) {
	b.ReportAllocs()
	h := newTickHarness(b, tickWarm+b.N)
	for i := 0; i < tickWarm; i++ {
		h.tick(b)
	}
	b.ResetTimer()
	tuples := 0
	for i := 0; i < b.N; i++ {
		tuples += h.emit(b)
		b.StopTimer()
		h.advance(b)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
}
