package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/server"
)

func startServer(t *testing.T) string {
	t.Helper()
	eng, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return serve(t, eng)
}

// serve fronts eng with a server on an ephemeral loopback port.
func serve(t *testing.T, eng *core.Engine) string {
	t.Helper()
	srv := server.New(eng)
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
	return ln.Addr().String()
}

func TestClientEndToEnd(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n, err := c.Load(`<Logan> <fo> <Erik> .
<Logan> <po> <T-13> .`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("loaded %d", n)
	}

	if err := c.Stream("Tweets", 100*time.Millisecond, "ga"); err != nil {
		t.Fatal(err)
	}
	name, err := c.Register(`
REGISTER QUERY QX AS
SELECT ?X ?Z
FROM Tweets [RANGE 1s STEP 1s]
WHERE { GRAPH Tweets { ?X po ?Z } }`)
	if err != nil {
		t.Fatal(err)
	}
	if name != "QX" {
		t.Errorf("name = %q", name)
	}

	if err := c.Emit("Tweets",
		rdf.Tuple{Triple: rdf.T("Logan", "po", "T-15"), TS: 150},
		rdf.Tuple{Triple: rdf.T("Erik", "po", "T-16"), TS: 250},
	); err != nil {
		t.Fatal(err)
	}
	now, err := c.Advance(1000)
	if err != nil {
		t.Fatal(err)
	}
	if now != 1000 {
		t.Errorf("now = %d", now)
	}

	fires, err := c.Poll("QX")
	if err != nil {
		t.Fatal(err)
	}
	if len(fires) != 2 {
		t.Fatalf("fires = %v", fires)
	}
	if fires[0].At != 1000 || !strings.Contains(fires[0].Row, "T-1") {
		t.Errorf("fire = %+v", fires[0])
	}

	rows, err := c.Query(`SELECT ?X WHERE { Logan po ?X } ORDER BY ?X`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0] != "T-13" || rows[1] != "T-15" {
		t.Errorf("rows = %v", rows)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st, "now=1000") {
		t.Errorf("stats = %q", st)
	}
}

func TestClientServerError(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("not a query"); err == nil || !strings.Contains(err.Error(), "server:") {
		t.Errorf("err = %v", err)
	}
	// The connection survives errors.
	if _, err := c.Stats(); err != nil {
		t.Errorf("stats after error: %v", err)
	}
	if err := c.Emit("nostream", rdf.Tuple{Triple: rdf.T("a", "b", "c")}); err == nil {
		t.Error("emit to unknown stream succeeded")
	}
}

// TestClientLiteralsSurviveTheWire: a literal the client sends — by EMIT or
// by LOAD — parses back to itself on the daemon, whatever its bytes.
func TestClientLiteralsSurviveTheWire(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Stream("S", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	values := []string{"a\x01b", " ", "bell\a\x7f", "\xff\xfe", `tab	"q" \`}
	var load strings.Builder
	for i, v := range values {
		subject := fmt.Sprintf("x%d", i)
		tu := rdf.Tuple{Triple: rdf.Triple{S: rdf.NewIRI(subject), P: rdf.NewIRI("motto"), O: rdf.NewLiteral(v)}, TS: 150}
		if err := c.Emit("S", tu); err != nil {
			t.Fatalf("Emit %q: %v", v, err)
		}
		fmt.Fprintf(&load, "%s .\n", rdf.Triple{S: rdf.NewIRI("y" + subject[1:]), P: rdf.NewIRI("motto"), O: rdf.NewLiteral(v)})
	}
	if _, err := c.Load(load.String()); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := c.Advance(1000); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		for _, subject := range []string{"x", "y"} {
			q := fmt.Sprintf("SELECT ?M WHERE { %s%d motto ?M }", subject, i)
			rows, err := c.Query(q)
			if err != nil || len(rows) != 1 || rows[0] != v {
				t.Errorf("%s = %q, %v; want [%q]", q, rows, err, v)
			}
		}
	}
}

func TestClientBlockValidation(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Load("<a> <b> <c> .\n.\n<d> <e> <f> ."); err == nil {
		t.Error("block containing lone '.' accepted")
	}
}

// TestClientRequestTimeout: a server that accepts but never answers must not
// hang the client — the request fails with a deadline error.
func TestClientRequestTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never respond
		}
	}()
	c, err := DialOptions(ln.Addr().String(), Options{
		RequestTimeout: 100 * time.Millisecond,
		MaxRetries:     -1, // reconnecting to the same black hole won't help
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Stats(); err == nil {
		t.Fatal("request against silent server succeeded")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("request took %v, deadline not applied", d)
	}
}

// TestClientReconnectReplaysSession: when the server process is replaced, the
// next request transparently reconnects, replays STREAM and REGISTER, and
// succeeds against the new engine.
func TestClientReconnectReplaysSession(t *testing.T) {
	newServer := func(ln net.Listener) (*server.Server, chan struct{}) {
		t.Helper()
		eng, err := core.New(core.Config{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		srv := server.New(eng)
		srv.ShutdownTimeout = 50 * time.Millisecond
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ln)
		}()
		return srv, done
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	srv1, done1 := newServer(ln1)

	c, err := DialOptions(addr, Options{
		RequestTimeout: 2 * time.Second,
		MaxRetries:     8,
		BaseBackoff:    10 * time.Millisecond,
		MaxBackoff:     200 * time.Millisecond,
		JitterSeed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Stream("S", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	name, err := c.Register(`
REGISTER QUERY QR AS
SELECT ?X ?Z
FROM S [RANGE 1s STEP 1s]
WHERE { GRAPH S { ?X po ?Z } }`)
	if err != nil {
		t.Fatal(err)
	}

	// Replace the server: the old engine (and its registrations) is gone.
	srv1.Close()
	<-done1
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2, done2 := newServer(ln2)
	t.Cleanup(func() {
		srv2.Close()
		<-done2
	})

	// The emit rides the reconnect+replay; the replayed stream and query
	// exist on the new engine.
	if err := c.Emit("S", rdf.Tuple{Triple: rdf.T("Logan", "po", "T-1"), TS: 150}); err != nil {
		t.Fatalf("emit across server restart: %v", err)
	}
	if _, err := c.Advance(1000); err != nil {
		t.Fatal(err)
	}
	fires, err := c.Poll(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(fires) != 1 || !strings.Contains(fires[0].Row, "T-1") {
		t.Errorf("fires after reconnect = %v", fires)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestClientExplain(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Load("<a> <p> <b> ."); err != nil {
		t.Fatal(err)
	}
	lines, err := c.Explain(`SELECT ?x WHERE { a p ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "mode:") || !strings.Contains(joined, "estimated cost") {
		t.Errorf("explain = %q", joined)
	}
	if _, err := c.Explain("garbage"); err == nil {
		t.Error("bad explain accepted")
	}
}

// TestClientUnavailableRetryAfter: a write that races a seed failover gets
// "-ERR unavailable retry-after=..."; the client must honor the hint, retry
// the same bytes (same id= token), and succeed once the successor fences in.
func TestClientUnavailableRetryAfter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var advanceCmds []string
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		fails := 2
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "ADVANCE") {
				continue
			}
			mu.Lock()
			advanceCmds = append(advanceCmds, line)
			mu.Unlock()
			if fails > 0 {
				fails--
				fmt.Fprintf(conn, "-ERR unavailable retry-after=5ms: forward ADVANCE: authority moved\n")
				continue
			}
			fmt.Fprintf(conn, "+OK now 1000\n")
		}
	}()
	c, err := DialOptions(ln.Addr().String(), Options{JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	now, err := c.Advance(1000)
	if err != nil {
		t.Fatalf("advance across unavailability: %v", err)
	}
	if now != 1000 {
		t.Fatalf("now = %d", now)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("retries took %v, retry-after hint not honored", d)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(advanceCmds) != 3 {
		t.Fatalf("server saw %d ADVANCE attempts, want 3", len(advanceCmds))
	}
	for _, cmd := range advanceCmds[1:] {
		if cmd != advanceCmds[0] {
			t.Fatalf("retry changed the request: %q vs %q", cmd, advanceCmds[0])
		}
	}
}

// TestClientUnavailableRetryBudget: the retry budget is finite and the typed
// error (with its hint) surfaces once it is spent.
func TestClientUnavailableRetryBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "ADVANCE") {
				fmt.Fprintf(conn, "-ERR unavailable retry-after=1ms: no authority\n")
			}
		}
	}()
	c, err := DialOptions(ln.Addr().String(), Options{JitterSeed: 1, UnavailableRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Advance(5)
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	var ue *UnavailableError
	if !errors.As(err, &ue) || ue.RetryAfter != time.Millisecond {
		t.Fatalf("retry-after hint lost: %v", err)
	}
}

// TestClientOpIDsUnique: every mutating request carries a distinct id= token.
func TestClientOpIDsUnique(t *testing.T) {
	c := &Client{opSession: 7}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := string(c.appendOpID(nil))
		if seen[id] {
			t.Fatalf("duplicate op id %q", id)
		}
		seen[id] = true
	}
}
