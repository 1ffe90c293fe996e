package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
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
		s.emitLim.SetClock(new(stepClock).now, nil)
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
	cl, err := clientpkg.DialOptions(addr, clientpkg.Options{OverloadRetries: -1, JitterSeed: 1})
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
	cl2, err := clientpkg.DialOptions(addr, clientpkg.Options{OverloadRetries: 20, JitterSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.Emit("S", rdf.Tuple{Triple: rdf.T("g", "po", "h"), TS: 13}); err != nil {
		t.Fatalf("Emit with overload retries = %v", err)
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
