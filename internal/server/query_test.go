package server

import (
	"bufio"
	"io"
	"runtime"
	"testing"

	"repro/internal/bench/lsbench"
	"repro/internal/core"
	"repro/internal/race"
)

// loopReader yields its text over and over: a connection that sends the same
// requests forever.
type loopReader struct {
	text string
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.text[l.off:])
	l.off = (l.off + n) % len(l.text)
	return n, nil
}

// queryHarness drives the daemon side of the benchmark's one-shots in
// process: an LSBench graph the size of stream-standalone's (Users=1000, 50 k
// triples), and QUERY bodies read off a connection's line reader by cmdQuery,
// which renders the reply into a discarded writer. Each pair is an S2-style
// selective probe and an S4-style scan.
type queryHarness struct {
	srv        *Server
	r          *lineReader
	w          *bufio.Writer
	probeRows  int
	scanRows   int
	replyBytes int
}

func newQueryHarness(tb testing.TB) *queryHarness {
	tb.Helper()
	eng, err := core.New(core.Config{Nodes: 2, WorkersPerNode: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	ls := lsbench.Generate(lsbench.Config{Seed: 7, Users: 1000}, eng.StringServer())
	eng.LoadEncoded(ls.Initial)
	probe, scan := ls.QueryS(2, 17), ls.QueryS(4, 3)
	h := &queryHarness{
		srv: New(eng),
		r:   newLineReader(&loopReader{text: probe + "\n.\n" + scan + "\n.\n"}),
		w:   bufio.NewWriter(io.Discard),
	}
	for _, c := range []struct {
		text string
		rows *int
	}{{probe, &h.probeRows}, {scan, &h.scanRows}} {
		res, err := eng.Query(c.text)
		if err != nil {
			tb.Fatal(err)
		}
		*c.rows = res.Len()
		for i := 0; i < res.Len(); i++ {
			h.replyBytes += len(res.AppendRow(nil, i)) + 1
		}
	}
	if h.probeRows == 0 || h.probeRows > 50 || h.scanRows < 100 {
		tb.Fatalf("probe has %d rows, scan %d: want a selective probe and a scan of 100+ rows", h.probeRows, h.scanRows)
	}
	return h
}

// pair answers the probe and then the scan.
func (h *queryHarness) pair(tb testing.TB) {
	for i := 0; i < 2; i++ {
		if err := h.srv.cmdQuery(h.w, h.r); err != nil {
			tb.Fatal(err)
		}
	}
}

const queryMeasured = 200

// measureQueries warms the harness up, then reports bytes and mallocs per
// probe + scan pair.
func measureQueries(tb testing.TB) (h *queryHarness, bytesPerPair, mallocsPerPair float64) {
	h = newQueryHarness(tb)
	for i := 0; i < 20; i++ {
		h.pair(tb)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < queryMeasured; i++ {
		h.pair(tb)
	}
	runtime.ReadMemStats(&m1)
	return h, float64(m1.TotalAlloc-m0.TotalAlloc) / queryMeasured,
		float64(m1.Mallocs-m0.Mallocs) / queryMeasured
}

// TestQueryAllocationBudget pins the daemon side of a QUERY: read the body,
// parse, plan, execute, project and render every row. One S2 probe plus one
// S4 scan stay under a ceiling 1.5× what this tree measures, 44 KB and 137
// mallocs per pair. Before rows rendered from the interned keys and the trace
// kept its plan steps unformatted, the same pair took 172 mallocs.
func TestQueryAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	h, b, m := measureQueries(t)
	t.Logf("per pair: %.1f KB, %.0f mallocs; probe %d rows, scan %d rows, %d reply bytes",
		b/1024, m, h.probeRows, h.scanRows, h.replyBytes)
	const maxBytes, maxMallocs = 66 << 10, 205
	if b > maxBytes || m > maxMallocs {
		t.Fatalf("per pair: %.0f bytes (ceiling %d), %.0f mallocs (ceiling %d)", b, maxBytes, m, maxMallocs)
	}
}

// BenchmarkMicro_Query reports time, B/op and allocs/op for one probe + scan
// pair answered daemon-side (`make bench` runs it beside BenchmarkMicro_Tick).
func BenchmarkMicro_Query(b *testing.B) {
	b.ReportAllocs()
	h := newQueryHarness(b)
	for i := 0; i < 20; i++ {
		h.pair(b)
	}
	b.SetBytes(int64(h.replyBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.pair(b)
	}
}
