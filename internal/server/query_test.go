package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench/lsbench"
	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/rdf"
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
// process: QUERY bodies read off a connection's line reader by cmdQuery,
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

// newQueryHarness answers the pair on an LSBench graph the size of
// stream-standalone's (Users=1000, 50 k triples), freshly loaded: small and
// cache-warm.
func newQueryHarness(tb testing.TB) *queryHarness {
	tb.Helper()
	eng, err := core.New(core.Config{Nodes: 2, WorkersPerNode: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	ls := lsbench.Generate(lsbench.Config{Seed: 7, Users: 1000}, eng.StringServer())
	eng.LoadEncoded(ls.Initial)
	h := newQueryHarnessOn(tb, eng, ls.QueryS(2, 17), ls.QueryS(4, 3))
	if h.probeRows > 50 {
		tb.Fatalf("probe has %d rows: want a selective probe", h.probeRows)
	}
	return h
}

// grownTicks is how many ticks grow the engine newGrownQueryHarness queries.
const grownTicks = 1500

// newGrownQueryHarness answers the pair on an engine the tick harness has
// grown by grownTicks ticks of its five streams, L1–L6 firing all along:
// a store several times the small harness's, whose reads miss the cache as
// a daemon's do after a while on the benchmark.
func newGrownQueryHarness(tb testing.TB) *queryHarness {
	h, _ := newGrownHarnesses(tb)
	return h
}

// newGrownHarnesses returns the grown query harness and the tick harness
// that grew its engine.
func newGrownHarnesses(tb testing.TB) (*queryHarness, *tickHarness) {
	tb.Helper()
	th := newTickHarness(tb, 0)
	th.grow(tb, grownTicks)
	return newQueryHarnessOn(tb, th.eng, th.ls.QueryS(2, 17), th.ls.QueryS(4, 3)), th
}

// newQueryHarnessOn answers probe and scan on eng, checking that the scan
// reads 100+ rows and the probe fewer.
func newQueryHarnessOn(tb testing.TB, eng *core.Engine, probe, scan string) *queryHarness {
	tb.Helper()
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
		res.AppendRows(nil, nil, func(row []byte) []byte {
			h.replyBytes += len(row) + 1
			return row[:0]
		})
	}
	if h.probeRows == 0 || h.scanRows < 100 || h.probeRows >= h.scanRows {
		tb.Fatalf("probe has %d rows, scan %d: want a probe and a scan of 100+ rows", h.probeRows, h.scanRows)
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
// S4 scan stay under a ceiling set at 1.5× the 15.7 KB and 91 mallocs per
// pair measured with flat binding tables and a projection that copies no
// cell. With a slice per row and a projected copy of every cell the pair
// took 39 KB and 117 mallocs; before rows rendered from the interned keys
// and the trace kept its plan steps unformatted, 172 mallocs.
func TestQueryAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	h, b, m := measureQueries(t)
	t.Logf("per pair: %.1f KB, %.0f mallocs; probe %d rows, scan %d rows, %d reply bytes",
		b/1024, m, h.probeRows, h.scanRows, h.replyBytes)
	const maxBytes, maxMallocs = 24 << 10, 137
	if b > maxBytes || m > maxMallocs {
		t.Fatalf("per pair: %.0f bytes (ceiling %d), %.0f mallocs (ceiling %d)", b, maxBytes, m, maxMallocs)
	}
}

// BenchmarkMicro_Query reports time, B/op and allocs/op for one probe + scan
// pair answered daemon-side (`make bench` runs it beside BenchmarkMicro_Tick).
// Small is the freshly loaded 50 k-triple graph; Grown is an engine the tick
// harness has grown, where the store's reads miss the cache; Ticking answers
// Grown's pair while another goroutine keeps ticking the same engine, so the
// difference to Grown is what the tick's writers and collections cost a
// reader, with no socket in the way. Its B/op counts the ticks' allocations
// too.
func BenchmarkMicro_Query(b *testing.B) {
	b.Run("Small", func(b *testing.B) { benchQueries(b, newQueryHarness(b)) })
	b.Run("Grown", func(b *testing.B) { benchQueries(b, newGrownQueryHarness(b)) })
	b.Run("Ticking", func(b *testing.B) {
		h, th := newGrownHarnesses(b)
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					th.grow(goroutineTB{b}, 1)
				}
			}
		}()
		benchQueries(b, h)
		b.StopTimer()
		close(stop)
		<-done
	})
}

// goroutineTB fails a test from a goroutine other than its own: it reports
// the failure with Error and ends the goroutine, where Fatal may not be
// called.
type goroutineTB struct{ testing.TB }

func (g goroutineTB) Fatal(args ...any) { g.TB.Error(args...); runtime.Goexit() }

func (g goroutineTB) Fatalf(format string, args ...any) {
	g.TB.Errorf(format, args...)
	runtime.Goexit()
}

func benchQueries(b *testing.B, h *queryHarness) {
	b.ReportAllocs()
	for i := 0; i < 20; i++ {
		h.pair(b)
	}
	b.SetBytes(int64(h.replyBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.pair(b)
	}
}

// scriptConn is a connection that reads a fixed request script and keeps
// every Write call's bytes.
type scriptConn struct {
	net.Conn // nil: handle only reads, writes and closes
	in       *strings.Reader
	writes   []string
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, string(p))
	return len(p), nil
}
func (c *scriptConn) Close() error { return nil }

// TestQueryReplyIsOneWrite: a QUERY reply of 20 KB and more reaches the
// connection in one Write call, so it leaves in one syscall and the client
// wakes once for it.
func TestQueryReplyIsOneWrite(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	var load []rdf.Triple
	for i := 0; i < 1000; i++ {
		load = append(load, rdf.T(fmt.Sprintf("http://example.org/user/%04d", i), "po", fmt.Sprintf("http://example.org/post/%04d", i)))
	}
	eng.LoadTriples(load)
	conn := &scriptConn{in: strings.NewReader("QUERY\nSELECT ?X ?Y WHERE { ?X po ?Y }\n.\nQUERY\nSELECT ?Y WHERE { ?X po ?Y } LIMIT 3\n.\n")}
	New(eng).handle(conn)
	if len(conn.writes) != 2 {
		t.Fatalf("two QUERY replies took %d Write calls, want 2", len(conn.writes))
	}
	big := conn.writes[0]
	if !strings.HasPrefix(big, "+OK 1000 rows") || !strings.HasSuffix(big, "\n.\n") || len(big) < 20<<10 {
		t.Fatalf("first reply: %d bytes, starting %q", len(big), big[:min(len(big), 40)])
	}
	if !strings.HasPrefix(conn.writes[1], "+OK 3 rows") {
		t.Errorf("second reply = %q", conn.writes[1])
	}
}
