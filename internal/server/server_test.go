package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
)

// client is a tiny test client for the line protocol.
type client struct {
	t *testing.T
	c net.Conn
	r *bufio.Scanner
	w *bufio.Writer
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &client{t: t, c: c, r: bufio.NewScanner(c), w: bufio.NewWriter(c)}
}

func (c *client) send(lines ...string) {
	c.t.Helper()
	for _, l := range lines {
		fmt.Fprintf(c.w, "%s\n", l)
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

// status reads the next status line.
func (c *client) status() string {
	c.t.Helper()
	if !c.r.Scan() {
		c.t.Fatalf("connection closed: %v", c.r.Err())
	}
	return c.r.Text()
}

// rows reads data lines until the "." terminator.
func (c *client) rows() []string {
	c.t.Helper()
	var out []string
	for c.r.Scan() {
		if c.r.Text() == "." {
			return out
		}
		out = append(out, c.r.Text())
	}
	c.t.Fatalf("missing terminator: %v", c.r.Err())
	return nil
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	eng, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return serve(t, eng)
}

// serve fronts eng with a server on an ephemeral loopback port.
func serve(t *testing.T, eng *core.Engine) (*Server, string) {
	t.Helper()
	srv := New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

func expectOK(t *testing.T, status string) {
	t.Helper()
	if !strings.HasPrefix(status, "+OK") {
		t.Fatalf("status = %q", status)
	}
}

func TestFullClientSession(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	// Load the Fig. 1 graph.
	c.send("LOAD",
		"<Logan> <fo> <Erik> .",
		"<Logan> <po> <T-13> .",
		"<T-13> <ht> <sosp17> .",
		"<Erik> <li> <T-13> .",
		".")
	expectOK(t, c.status())

	// Register a stream and a continuous query.
	c.send("STREAM Tweet_Stream 100 ga")
	expectOK(t, c.status())
	c.send("REGISTER",
		"REGISTER QUERY QX AS",
		"SELECT ?X ?Z",
		"FROM Tweet_Stream [RANGE 1s STEP 1s]",
		"WHERE { GRAPH Tweet_Stream { ?X po ?Z } }",
		".")
	st := c.status()
	expectOK(t, st)
	if !strings.Contains(st, "QX") {
		t.Errorf("register status = %q", st)
	}

	// Emit tuples and advance.
	c.send("EMIT Tweet_Stream",
		"<Logan> <po> <T-15> . @200",
		".")
	expectOK(t, c.status())
	c.send("ADVANCE 1000")
	expectOK(t, c.status())

	// Poll the continuous query's buffered results.
	c.send("POLL QX")
	expectOK(t, c.status())
	rows := c.rows()
	if len(rows) != 1 || !strings.Contains(rows[0], "Logan T-15") {
		t.Errorf("poll rows = %v", rows)
	}
	// Poll drains.
	c.send("POLL QX")
	expectOK(t, c.status())
	if rows := c.rows(); len(rows) != 0 {
		t.Errorf("second poll = %v", rows)
	}

	// One-shot query sees the absorbed tuple.
	c.send("QUERY", "SELECT ?Z WHERE { Logan po ?Z }", ".")
	expectOK(t, c.status())
	rows = c.rows()
	if len(rows) != 2 {
		t.Errorf("one-shot rows = %v", rows)
	}

	// Stats and quit.
	c.send("STATS")
	st = c.status()
	expectOK(t, st)
	if !strings.Contains(st, "stable_sn=") {
		t.Errorf("stats = %q", st)
	}
	c.send("QUIT")
	expectOK(t, c.status())
}

func TestErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	c.send("BOGUS")
	if st := c.status(); !strings.HasPrefix(st, "-ERR") {
		t.Errorf("status = %q", st)
	}
	c.send("EMIT nope", ".")
	if st := c.status(); !strings.HasPrefix(st, "-ERR") {
		t.Errorf("status = %q", st)
	}
	c.send("QUERY", "not a query", ".")
	if st := c.status(); !strings.HasPrefix(st, "-ERR") {
		t.Errorf("status = %q", st)
	}
	c.send("ADVANCE abc")
	if st := c.status(); !strings.HasPrefix(st, "-ERR") {
		t.Errorf("status = %q", st)
	}
	c.send("STREAM x")
	if st := c.status(); !strings.HasPrefix(st, "-ERR") {
		t.Errorf("status = %q", st)
	}
	// The connection stays usable after errors.
	c.send("STATS")
	expectOK(t, c.status())
}

// TestCloseForceClosesIdleConnections: Close must not hang on a client that
// never sends QUIT — after ShutdownTimeout the connection is force-closed.
func TestCloseForceClosesIdleConnections(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := New(eng)
	srv.ShutdownTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	c := dial(t, ln.Addr().String())
	c.send("STATS")
	expectOK(t, c.status())
	// The client holds its connection open and idle; Close must return anyway.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
	<-done
	// The handler's side was torn down: the next read sees EOF/reset.
	if c.r.Scan() {
		t.Errorf("idle connection still live after Close: %q", c.r.Text())
	}
}

// TestIdleTimeoutDisconnects: a client silent past IdleTimeout is dropped;
// an active one is not.
func TestIdleTimeoutDisconnects(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := New(eng)
	srv.IdleTimeout = 80 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	c := dial(t, ln.Addr().String())
	c.send("STATS")
	expectOK(t, c.status()) // active within the deadline
	time.Sleep(250 * time.Millisecond)
	c.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if c.r.Scan() {
		t.Errorf("idle connection survived: %q", c.r.Text())
	}
}

// TestLineTooLong: an oversized request line gets an explicit error before
// the connection is dropped, not a silent hangup.
func TestLineTooLong(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	big := strings.Repeat("x", 1<<20+1024)
	go func() {
		fmt.Fprintf(c.w, "%s\n", big)
		c.w.Flush()
	}()
	c.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if st := c.status(); !strings.Contains(st, "line too long") {
		t.Errorf("status = %q", st)
	}
}

// TestPollDropsOldest: an overflowing poll buffer keeps the newest rows and
// reports the loss.
func TestPollDropsOldest(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := New(eng)
	srv.PollBuffer = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	c := dial(t, ln.Addr().String())
	c.send("STREAM S 100")
	expectOK(t, c.status())
	// One row per window so the retained/dropped split is by window age.
	c.send("REGISTER",
		"REGISTER QUERY QO AS",
		"SELECT ?X ?Z",
		"FROM S [RANGE 100ms STEP 100ms]",
		"WHERE { GRAPH S { ?X po ?Z } }",
		".")
	expectOK(t, c.status())
	c.send("EMIT S",
		"<u1> <po> <t1> . @10",
		"<u1> <po> <t2> . @110",
		"<u1> <po> <t3> . @210",
		"<u1> <po> <t4> . @310",
		"<u1> <po> <t5> . @410",
		".")
	expectOK(t, c.status())
	// Advance one window boundary at a time so the fires arrive in window
	// order and "oldest" is well defined.
	for ts := 100; ts <= 600; ts += 100 {
		c.send(fmt.Sprintf("ADVANCE %d", ts))
		expectOK(t, c.status())
	}
	c.send("POLL QO")
	st := c.status()
	expectOK(t, st)
	if !strings.Contains(st, "3 rows dropped 2") {
		t.Errorf("poll status = %q", st)
	}
	rows := c.rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// Newest-first retention: t1 and t2 (the oldest) were dropped.
	for _, r := range rows {
		if strings.Contains(r, "t1") || strings.Contains(r, "t2") {
			t.Errorf("oldest row retained: %q (all: %v)", r, rows)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	a := dial(t, addr)
	a.send("LOAD", "<a> <p> <b> .", ".")
	expectOK(t, a.status())

	b := dial(t, addr)
	b.send("QUERY", "SELECT ?x WHERE { a p ?x }", ".")
	expectOK(t, b.status())
	if rows := b.rows(); len(rows) != 1 || rows[0] != "b" {
		t.Errorf("rows = %v", rows)
	}
}

// A restarted daemon recovers streams from the FT log into the engine, but
// the server process's own stream table starts empty. EMIT must fall back to
// the engine, and a replayed STREAM must be an idempotent no-op, or
// reconnecting clients are stranded after every recovery.
func TestRecoveredStreamsAcceptEmitAfterRestart(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	// Simulate recovery: the engine knows the stream before any client
	// ever speaks to this server process.
	if _, err := eng.RegisterStream(stream.Config{
		Name:          "S",
		BatchInterval: 100 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})

	c := dial(t, ln.Addr().String())
	// EMIT with no prior STREAM on this connection: engine fallback.
	c.send("EMIT S", "<a> <po> <b> . @50", ".")
	expectOK(t, c.status())
	// Replayed STREAM for an existing stream: idempotent, not an error.
	c.send("STREAM S 100")
	expectOK(t, c.status())
	c.send("EMIT S", "<a2> <po> <b2> . @60", ".")
	expectOK(t, c.status())
	// The tuples landed in the real stream: a window query sees them.
	c.send("REGISTER",
		"REGISTER QUERY QR AS",
		"SELECT ?X ?Y",
		"FROM S [RANGE 1s STEP 1s]",
		"WHERE { GRAPH S { ?X po ?Y } }",
		".")
	expectOK(t, c.status())
	c.send("ADVANCE 1000")
	expectOK(t, c.status())
	c.send("POLL QR")
	st := c.status()
	expectOK(t, st)
	rows := c.rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want both emitted tuples", rows)
	}
}

// TestStatsAndMetricsRoundTrip drives a workload through the wire protocol
// and checks STATS reports cumulative drops (surviving POLL's delta reset)
// and METRICS dumps the Prometheus registry.
func TestStatsAndMetricsRoundTrip(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := New(eng)
	srv.PollBuffer = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	c := dial(t, ln.Addr().String())
	c.send("STREAM S 100")
	expectOK(t, c.status())
	c.send("REGISTER",
		"REGISTER QUERY QM AS",
		"SELECT ?X ?Z",
		"FROM S [RANGE 100ms STEP 100ms]",
		"WHERE { GRAPH S { ?X po ?Z } }",
		".")
	expectOK(t, c.status())
	c.send("EMIT S",
		"<u1> <po> <t1> . @10",
		"<u1> <po> <t2> . @110",
		"<u1> <po> <t3> . @210",
		"<u1> <po> <t4> . @310",
		"<u1> <po> <t5> . @410",
		".")
	expectOK(t, c.status())
	for ts := 100; ts <= 600; ts += 100 {
		c.send(fmt.Sprintf("ADVANCE %d", ts))
		expectOK(t, c.status())
	}

	// POLL resets the delta counter; the cumulative accounting must survive.
	c.send("POLL QM")
	expectOK(t, c.status())
	c.rows()
	c.send("POLL QM")
	st := c.status()
	expectOK(t, st)
	if !strings.Contains(st, "dropped 0") {
		t.Errorf("second poll should report a zero delta: %q", st)
	}
	c.rows()

	if q, total := srv.DroppedRows("QM"); q != 2 || total != 2 {
		t.Errorf("DroppedRows = (%d, %d), want (2, 2)", q, total)
	}

	c.send("STATS")
	st = c.status()
	expectOK(t, st)
	for _, want := range []string{"stable_sn=", "dropped=2", "rows=5", "conns=1"} {
		if !strings.Contains(st, want) {
			t.Errorf("STATS %q missing %q", st, want)
		}
	}

	c.send("METRICS")
	expectOK(t, c.status())
	lines := c.rows()
	text := strings.Join(lines, "\n")
	for _, want := range []string{
		"wukongs_server_poll_dropped_rows_total 2",
		`wukongs_server_poll_dropped_rows{query="QM"} 2`,
		"wukongs_vts_stable_sn",
		"wukongs_stage_inject_latency_ns_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("METRICS output missing %q", want)
		}
	}
	// The dump must stay parseable as "name value" / comment lines.
	for _, l := range lines {
		if l == "" || strings.HasPrefix(l, "# ") {
			continue
		}
		if f := strings.Fields(l); len(f) != 2 {
			t.Errorf("malformed metrics line %q", l)
		}
	}
}

// TestRequestMetricsPerVerb: a request moves its verb's series of the
// per-verb latency histogram and reply-byte counter by one request and its
// reply's bytes — a QUERY leaves EMIT's series alone — and an unknown verb
// counts under OTHER. The registry may be shared, so every check is a delta.
func TestRequestMetricsPerVerb(t *testing.T) {
	srv, addr := startServer(t)
	reg := srv.eng.Metrics()
	lat := func(verb string) int64 {
		return reg.Histogram(obs.Name("server_request_latency_ns", "verb", verb), nil).Count()
	}
	sent := func(verb string) int64 {
		return reg.Counter(obs.Name("server_reply_bytes_total", "verb", verb)).Value()
	}
	// The server observes a request after it flushes the reply, so the
	// reply can reach the client first. Wait, bounded, for the verb's byte
	// counter, the last thing observe moves, to leave its value from before.
	moved := func(verb string, before int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); sent(verb) == before; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("server_reply_bytes_total{verb=%s} still %d after 5s", verb, before)
			}
		}
	}
	c := dial(t, addr)
	c.send("LOAD", "<a> <po> <b> .", "<a> <po> <c> .", ".")
	expectOK(t, c.status())
	c.send("STREAM S 100")
	expectOK(t, c.status())
	emits, emitBytes := lat("EMIT"), sent("EMIT")
	c.send("EMIT S", "<a> <po> <d> . @10", ".")
	status := c.status()
	expectOK(t, status)
	moved("EMIT", emitBytes)
	if lat("EMIT") != emits+1 || sent("EMIT") != emitBytes+int64(len(status)+1) {
		t.Fatalf("one EMIT moved its series by %d requests, %d bytes", lat("EMIT")-emits, sent("EMIT")-emitBytes)
	}
	queries, queryBytes, emits, emitBytes, others, otherBytes := lat("QUERY"), sent("QUERY"), lat("EMIT"), sent("EMIT"), lat("OTHER"), sent("OTHER")

	c.send("QUERY", "SELECT ?X WHERE { a po ?X }", ".")
	status = c.status()
	expectOK(t, status)
	rows := c.rows()
	want := int64(len(status) + 1 + 2) // the status line and the terminator
	for _, r := range rows {
		want += int64(len(r) + 1)
	}
	moved("QUERY", queryBytes)
	if got := lat("QUERY") - queries; got != 1 {
		t.Errorf("one QUERY moved server_request_latency_ns{verb=QUERY} by %d", got)
	}
	if got := sent("QUERY") - queryBytes; got != want {
		t.Errorf("server_reply_bytes_total{verb=QUERY} = %d, want the reply's %d bytes", got, want)
	}
	if lat("EMIT") != emits || sent("EMIT") != emitBytes {
		t.Errorf("a QUERY moved EMIT's series: %d requests, %d bytes (was %d, %d)", lat("EMIT"), sent("EMIT"), emits, emitBytes)
	}
	c.send("FROB")
	c.status()
	moved("OTHER", otherBytes)
	if got := lat("OTHER") - others; got != 1 {
		t.Errorf("an unknown verb moved server_request_latency_ns{verb=OTHER} by %d, want 1", got)
	}
}
