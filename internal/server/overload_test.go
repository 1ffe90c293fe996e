package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	clientpkg "repro/internal/client"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// startServerWith is startServer with a hook to set overload knobs (they must
// be set before Serve) and an isolated metrics registry.
func startServerWith(t *testing.T, tune func(*Server)) (*Server, *obs.Registry, string) {
	t.Helper()
	r := obs.NewRegistry("t")
	eng, err := core.New(core.Config{Nodes: 2, Metrics: r})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := New(eng)
	if tune != nil {
		tune(srv)
	}
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
	return srv, r, ln.Addr().String()
}

func gaugeValue(t *testing.T, r *obs.Registry, suffix string) int64 {
	t.Helper()
	var out int64
	found := false
	r.Each(func(name string, m obs.Metric) {
		if strings.HasSuffix(name, suffix) {
			if v, ok := m.(interface{ Value() int64 }); ok {
				out = v.Value()
				found = true
			}
		}
	})
	if !found {
		t.Fatalf("no metric with suffix %q", suffix)
	}
	return out
}

// stepClock is a rate-limiter clock that moves 100 µs each time it is read,
// so a token bucket refills by how many admission decisions were made, never
// by how fast the scheduler happened to run the test.
type stepClock struct{ ns atomic.Int64 }

func (c *stepClock) now() time.Time {
	return time.Unix(0, c.ns.Add(int64(100*time.Microsecond)))
}

// TestEmitOverloadRetryAfter: a rate-limited EMIT is shed atomically with a
// machine-readable retry-after; the client library surfaces it as a typed
// ErrOverload when retries are disabled, and rides out the overload by
// honoring the hint when they are not.
func TestEmitOverloadRetryAfter(t *testing.T) {
	_, _, addr := startServerWith(t, func(s *Server) {
		s.EmitRate = 1000 // 1 tuple per millisecond
		s.EmitBurst = 1
		// Each decision reads the clock once or twice, so a shed EMIT
		// refills at most 0.2 of a token: the empty bucket stays empty
		// across the two checks below, and a retrying client gets in after
		// a few attempts.
		s.emitLim = flow.NewLimiter(s.EmitRate, s.EmitBurst)
		s.emitLim.SetClock(new(stepClock).now)
	})
	c := dial(t, addr)
	c.send("STREAM S 100")
	expectOK(t, c.status())

	c.send("EMIT S", "<a> <po> <b> . @10", ".")
	expectOK(t, c.status())
	// The bucket is empty: the next EMIT sheds with a parseable hint.
	c.send("EMIT S", "<c> <po> <d> . @11", ".")
	st := c.status()
	if !strings.HasPrefix(st, "-ERR overload retry-after=") {
		t.Fatalf("second EMIT status = %q, want overload", st)
	}
	durStr, _, _ := strings.Cut(strings.TrimPrefix(st, "-ERR overload retry-after="), ":")
	if d, err := time.ParseDuration(durStr); err != nil || d <= 0 {
		t.Fatalf("retry-after %q did not parse to a positive duration: %v", durStr, err)
	}

	// Typed error with retries disabled.
	cl, err := clientpkg.DialOptions(addr, clientpkg.Options{MaxRetries: -1, JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Emit("S", rdf.Tuple{Triple: rdf.T("e", "po", "f"), TS: 12})
	if !errors.Is(err, clientpkg.ErrOverload) {
		t.Fatalf("Emit under overload = %v, want ErrOverload", err)
	}
	var oe *clientpkg.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("no retry-after hint on %v", err)
	}

	// With retries enabled the client backs off per the hint and succeeds
	// (the bucket refills at 1 token per simulated ms).
	cl2, err := clientpkg.DialOptions(addr, clientpkg.Options{MaxRetries: 20, JitterSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.Emit("S", rdf.Tuple{Triple: rdf.T("g", "po", "h"), TS: 13}); err != nil {
		t.Fatalf("Emit with overload retries = %v", err)
	}
}

// TestEmitLargerThanBurstIsRefused: an EMIT of more tuples than the token
// bucket can ever hold is refused outright with an error that names the
// burst, not shed with a retry-after hint no wait would make come true. The
// client returns it at once, as a ServerError, instead of retrying; the
// tokens stay for an EMIT that fits.
func TestEmitLargerThanBurstIsRefused(t *testing.T) {
	_, reg, addr := startServerWith(t, func(s *Server) {
		s.EmitRate = 1000
		s.EmitBurst = 2
	})
	c := dial(t, addr)
	c.send("STREAM S 100")
	expectOK(t, c.status())
	const want = "-ERR EMIT rate limit: 3 tuples can never fit the 2-tuple burst; send smaller EMITs"
	for i := 0; i < 2; i++ {
		c.send("EMIT S", "<a> <po> <b> . @10", "<c> <po> <d> . @11", "<e> <po> <f> . @12", ".")
		if st := c.status(); st != want {
			t.Fatalf("oversize EMIT %d = %q, want %q", i, st, want)
		}
	}

	cl, err := clientpkg.DialOptions(addr, clientpkg.Options{MaxRetries: 20, JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.Emit("S", rdf.Tuple{Triple: rdf.T("a", "po", "b"), TS: 10}, rdf.Tuple{Triple: rdf.T("c", "po", "d"), TS: 11},
		rdf.Tuple{Triple: rdf.T("e", "po", "f"), TS: 12})
	var se *clientpkg.ServerError
	if !errors.As(err, &se) || errors.Is(err, clientpkg.ErrOverload) || !strings.Contains(err.Error(), "send smaller EMITs") {
		t.Fatalf("client Emit of an oversize body = %v, want a ServerError naming the burst", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("client Emit of an oversize body took %v: it retried", took)
	}
	if n := gaugeValue(t, reg, "server_emit_shed_total"); n != 0 {
		t.Fatalf("server_emit_shed_total = %d, want 0: a refusal is not a shed", n)
	}
	c.send("EMIT S", "<a> <po> <b> . @10", "<c> <po> <d> . @11", ".")
	if st := c.status(); st != "+OK emitted 2" {
		t.Fatalf("EMIT of the burst = %q, want +OK emitted 2", st)
	}
}

// TestClientWaitsOutAFullBuffer: a full stream buffer refuses a whole EMIT
// with a retry-after hint of one batch interval, and the server holds
// nothing: the client library waits out the hint and sends again. Once a
// second connection's ADVANCE seals the buffer, the retry is admitted, and
// the batch it lands in holds exactly its tuples.
func TestClientWaitsOutAFullBuffer(t *testing.T) {
	reg := obs.NewRegistry("t")
	eng, err := core.New(core.Config{Nodes: 2, Metrics: reg, Flow: core.FlowConfig{MaxPending: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	_, addr := serve(t, eng)
	c := dial(t, addr)
	c.send("STREAM S 100")
	expectOK(t, c.status())
	c.send("REGISTER", "REGISTER QUERY Q AS", "SELECT ?X ?Y FROM S [RANGE 100ms STEP 100ms]", "WHERE { GRAPH S { ?X po ?Y } }", ".")
	expectOK(t, c.status())
	c.send("EMIT S", "<a> <po> <b> . @10", "<c> <po> <d> . @20", ".")
	expectOK(t, c.status())
	shed := func() int64 { return gaugeValue(t, reg, obs.Name("flow_queue_shed_newest_total", "queue", "S")) }

	// The hint a shed attempt carries, typed: the stream's batch interval.
	probe, err := clientpkg.DialOptions(addr, clientpkg.Options{MaxRetries: -1, JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	err = probe.Emit("S", rdf.Tuple{Triple: rdf.T("x", "po", "y"), TS: 30})
	var oe *clientpkg.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter != 100*time.Millisecond {
		t.Fatalf("Emit on a full buffer = %v, want an OverloadError with RetryAfter 100ms", err)
	}
	before := shed()

	cl, err := clientpkg.DialOptions(addr, clientpkg.Options{MaxRetries: 20, JitterSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		done <- cl.Emit("S", rdf.Tuple{Triple: rdf.T("e", "po", "f"), TS: 150}, rdf.Tuple{Triple: rdf.T("g", "po", "h"), TS: 160})
	}()
	// The client's first attempt is shed (two tuples): only then does the
	// buffer drain.
	for deadline := time.Now().Add(5 * time.Second); shed() < before+2; {
		select {
		case err := <-done:
			t.Fatalf("Emit on a full buffer returned %v before any shed", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the retrying client's first attempt was never shed")
		}
	}
	c.send("ADVANCE 100")
	expectOK(t, c.status())
	if err := <-done; err != nil {
		t.Fatalf("retrying Emit = %v", err)
	}
	c.send("ADVANCE 200")
	expectOK(t, c.status())
	c.send("POLL Q")
	expectOK(t, c.status())
	got := c.rows()
	sort.Strings(got)
	if want := []string{"@100 a b", "@100 c d", "@200 e f", "@200 g h"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("windows hold %q, want %q", got, want)
	}
}

// TestPollDropAccountingUnderOverloadAndReconnect is the PR 4 satellite-3
// soak: with a tiny poll buffer overflowing under a fast producer and a
// poller that reconnects on every POLL, the per-POLL drop deltas must sum to
// the cumulative drop counter, and delivered + dropped must equal every row
// ever buffered — overload may lose rows, but never the accounting of them.
// Run under -race (the ci target does) to catch counter races.
func TestPollDropAccountingUnderOverloadAndReconnect(t *testing.T) {
	// The buffer holds less than one firing's 3 rows, so every firing drops
	// no matter how fast the poller drains; MaxPollRows additionally forces
	// each POLL to leave a remainder behind (truncation pacing).
	srv, reg, addr := startServerWith(t, func(s *Server) {
		s.PollBuffer = 2
		s.MaxPollRows = 1
	})
	prod := dial(t, addr)
	prod.send("STREAM S 10")
	expectOK(t, prod.status())
	prod.send("REGISTER",
		"REGISTER QUERY QO AS",
		"SELECT ?X ?Y FROM S [RANGE 10ms STEP 10ms]",
		"WHERE { GRAPH S { ?X po ?Y } }",
		".")
	expectOK(t, prod.status())

	const batches = 40
	var (
		mu        sync.Mutex
		received  int64
		deltaSum  int64
		prodDone  = make(chan struct{})
		pollErrCh = make(chan error, 1)
	)
	// poll opens a fresh connection (reconnect churn), drains at most
	// MaxPollRows rows, and accumulates the reported drop delta.
	poll := func() error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		pc := &client{t: t, c: conn, r: bufio.NewScanner(conn), w: bufio.NewWriter(conn)}
		pc.send("POLL QO")
		st := pc.status()
		var n, d int64
		if _, err := fmt.Sscanf(st, "+OK %d rows dropped %d", &n, &d); err != nil {
			return fmt.Errorf("bad POLL status %q: %v", st, err)
		}
		rows := pc.rows()
		if int64(len(rows)) != n {
			return fmt.Errorf("POLL said %d rows, sent %d", n, len(rows))
		}
		mu.Lock()
		received += n
		deltaSum += d
		mu.Unlock()
		return nil
	}

	go func() {
		defer close(prodDone)
		for b := 1; b <= batches; b++ {
			base := (b - 1) * 10
			prod.send("EMIT S",
				fmt.Sprintf("<s%d> <po> <o%d> . @%d", b, b, base),
				fmt.Sprintf("<t%d> <po> <p%d> . @%d", b, b, base+1),
				fmt.Sprintf("<u%d> <po> <q%d> . @%d", b, b, base+2),
				".")
			expectOK(t, prod.status())
			prod.send(fmt.Sprintf("ADVANCE %d", b*10))
			expectOK(t, prod.status())
		}
	}()
	go func() {
		for {
			select {
			case <-prodDone:
				pollErrCh <- nil
				return
			default:
			}
			if err := poll(); err != nil {
				pollErrCh <- err
				return
			}
		}
	}()
	<-prodDone
	if err := <-pollErrCh; err != nil {
		t.Fatal(err)
	}
	// Drain what is left (MaxPollRows per POLL, so loop until empty twice).
	for empty := 0; empty < 2; {
		before := received
		if err := poll(); err != nil {
			t.Fatal(err)
		}
		if received == before {
			empty++
		} else {
			empty = 0
		}
	}

	_, cumDropped := srv.DroppedRows("QO")
	if cumDropped == 0 {
		t.Fatal("overload produced no drops; the buffer bound did not bind")
	}
	if deltaSum != cumDropped {
		t.Fatalf("POLL drop deltas sum to %d, cumulative counter says %d", deltaSum, cumDropped)
	}
	cumRows := gaugeValue(t, reg, "server_poll_rows_total")
	if received+cumDropped != cumRows {
		t.Fatalf("delivered %d + dropped %d != buffered %d: rows lost without accounting",
			received, cumDropped, cumRows)
	}
	if gaugeValue(t, reg, "server_poll_buffered_rows") != 0 {
		t.Fatal("rows still buffered after drain")
	}
}
