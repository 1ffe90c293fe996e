package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
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

// unnamedQuery is a continuous query without a REGISTER QUERY name, so the
// server names it cq<n>: a second registration of it is a second query, not a
// refused duplicate.
const unnamedQuery = `SELECT ?X ?Z
FROM S [RANGE 1s STEP 1s]
WHERE { GRAPH S { ?X po ?Z } }`

// daemon is one life of a server on an address. With a data directory it
// fronts a one-member cluster node, as wukongsd -data-dir does, and resumes
// the log an earlier life left there.
type daemon struct {
	eng  *core.Engine
	node *cluster.Node // nil without a data directory
	srv  *server.Server
	addr string
	done chan struct{}
}

func startDaemon(t *testing.T, addr, dataDir string) *daemon {
	t.Helper()
	eng, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{eng: eng, srv: server.New(eng), done: make(chan struct{})}
	d.srv.ShutdownTimeout = 50 * time.Millisecond
	if dataDir != "" {
		open := cluster.NewSeed
		if cluster.HasDurableState(dataDir) {
			open = cluster.Resume
		}
		if d.node, err = open(cluster.Config{Engine: eng, SelfAddr: "solo", DataDir: dataDir, NoSync: true, OnFire: d.srv.BufferResult}); err != nil {
			t.Fatal(err)
		}
		d.srv.SetCluster(d.node)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	d.addr = ln.Addr().String()
	go func() {
		defer close(d.done)
		d.srv.Serve(ln)
	}()
	t.Cleanup(d.stop)
	return d
}

// stop ends the life; a second call does nothing.
func (d *daemon) stop() {
	if d.eng == nil {
		return
	}
	d.srv.Close()
	<-d.done
	if d.node != nil {
		d.node.Close()
	}
	d.eng.Close()
	d.eng = nil
}

// queries lists the continuous queries the daemon's engine holds.
func (d *daemon) queries() []string {
	var names []string
	for _, cq := range d.eng.ContinuousQueries() {
		names = append(names, cq.Name)
	}
	return names
}

// registerSession dials addr, registers stream S and unnamedQuery, and
// returns the client and the query's name.
func registerSession(t *testing.T, addr string) (*Client, string) {
	t.Helper()
	c, err := DialOptions(addr, Options{JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Stream("S", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	name, err := c.Register(unnamedQuery)
	if err != nil {
		t.Fatal(err)
	}
	return c, name
}

// pollRows advances c's server to 1000 and returns what name fired, sorted.
func pollRows(t *testing.T, c *Client, name string) []string {
	t.Helper()
	if _, err := c.Advance(1000); err != nil {
		t.Fatal(err)
	}
	fires, err := c.Poll(name)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, f := range fires {
		rows = append(rows, f.Row)
	}
	sort.Strings(rows)
	return rows
}

// TestClientDroppedConnectionRegistersNothing: when only the connection dies,
// the next request redials and re-sends itself, and nothing else — the live
// engine keeps the one query the client registered, under the name Register
// returned.
func TestClientDroppedConnectionRegistersNothing(t *testing.T) {
	d := startDaemon(t, "127.0.0.1:0", "")
	c, name := registerSession(t, d.addr)
	c.conn.Close()
	if err := c.Emit("S", rdf.Tuple{Triple: rdf.T("Logan", "po", "T-1"), TS: 150}); err != nil {
		t.Fatalf("emit over a dropped connection: %v", err)
	}
	if got := d.queries(); len(got) != 1 || got[0] != name {
		t.Errorf("engine holds queries %v, want only %q", got, name)
	}
	if got, want := pollRows(t, c, name), []string{"Logan T-1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Poll(%q) rows = %q, want %q", name, got, want)
	}
}

// TestClientDurableRestartRegistersNothing: a one-member node restarted on
// its data directory restores the stream and the query from its op log; the
// client's next request redials and re-sends only itself, so the resumed
// node holds one query and applies the EMIT as one op.
func TestClientDurableRestartRegistersNothing(t *testing.T) {
	dir := t.TempDir()
	first := startDaemon(t, "127.0.0.1:0", dir)
	c, name := registerSession(t, first.addr)
	if err := c.Emit("S", rdf.Tuple{Triple: rdf.T("Logan", "po", "T-1"), TS: 150}); err != nil {
		t.Fatal(err)
	}
	first.stop()

	second := startDaemon(t, first.addr, dir)
	applied := second.node.Applied()
	if err := c.Emit("S", rdf.Tuple{Triple: rdf.T("Erik", "po", "T-2"), TS: 250}); err != nil {
		t.Fatalf("emit across the restart: %v", err)
	}
	if got := second.node.Applied(); got != applied+1 {
		t.Errorf("resumed node applied seq %d after one EMIT, want %d", got, applied+1)
	}
	if got := second.queries(); len(got) != 1 || got[0] != name {
		t.Errorf("resumed engine holds queries %v, want only %q", got, name)
	}
	if got, want := pollRows(t, c, name), []string{"Erik T-2", "Logan T-1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Poll(%q) rows = %q, want %q", name, got, want)
	}
}

// TestClientReconnectToFreshServerForgetsSession: a server restarted without
// a log has lost the session's stream and query. The client redials and
// re-sends the request alone, so the server's refusal reaches the caller as a
// typed ServerError rather than a half-restored session.
func TestClientReconnectToFreshServerForgetsSession(t *testing.T) {
	first := startDaemon(t, "127.0.0.1:0", "")
	c, _ := registerSession(t, first.addr)
	first.stop()
	startDaemon(t, first.addr, "")

	err := c.Emit("S", rdf.Tuple{Triple: rdf.T("Logan", "po", "T-1"), TS: 150})
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "unknown stream") {
		t.Fatalf("emit to a restarted server = %v, want a ServerError for the unknown stream", err)
	}
	// The new connection serves on: the caller re-registers what it needs.
	if err := c.Stream("S", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Emit("S", rdf.Tuple{Triple: rdf.T("Logan", "po", "T-1"), TS: 150}); err != nil {
		t.Fatal(err)
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
	c, err := DialOptions(ln.Addr().String(), Options{JitterSeed: 1, MaxRetries: 1})
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

// TestClientOneRetryBudget: overload sheds, server-reported unavailability
// and dropped connections all draw on one budget of MaxRetries re-sends. A
// shed or an unavailability waits at least the server's hint, a dropped
// connection an exponential backoff from 20ms; every re-send carries the
// request's bytes unchanged; the failure that outlasts the budget surfaces
// as its typed error, hint included; and a "-ERR" rejection is never
// re-sent.
func TestClientOneRetryBudget(t *testing.T) {
	const (
		ovl  = "-ERR overload retry-after=5ms: stream S: admission buffer full\n"
		una  = "-ERR unavailable retry-after=5ms: forward EMIT: authority moved\n"
		drop = "" // the server closes the connection instead of replying
		ok   = "+OK emitted 1\n"
		rej  = "-ERR unknown stream \"S\"\n"
	)
	rejected := func(err error) bool { var se *ServerError; return errors.As(err, &se) }
	overloaded := func(err error) bool {
		var oe *OverloadError
		return errors.Is(err, ErrOverload) && errors.As(err, &oe) && oe.RetryAfter == 5*time.Millisecond
	}
	unavailable := func(op string, hint time.Duration) func(error) bool {
		return func(err error) bool {
			var ue *UnavailableError
			return errors.Is(err, ErrUnavailable) && errors.As(err, &ue) && ue.Op == op && ue.RetryAfter == hint
		}
	}
	for _, tc := range []struct {
		name     string
		replies  []string // the server's answer to each attempt in turn
		attempts int
		minWait  time.Duration
		want     func(error) bool // nil: the request succeeds
	}{
		{"overload×3", []string{ovl, ovl, ovl, ok}, 4, 15 * time.Millisecond, nil},
		{"unavailable×3", []string{una, una, una, ok}, 4, 15 * time.Millisecond, nil},
		{"dropped×3", []string{drop, drop, drop, ok}, 4, 140 * time.Millisecond, nil},
		{"mix", []string{ovl, drop, una, ok}, 4, 50 * time.Millisecond, nil},
		{"overload×4", []string{ovl, ovl, ovl, ovl, ok}, 4, 15 * time.Millisecond, overloaded},
		{"dropped×4", []string{drop, drop, drop, drop, ok}, 4, 140 * time.Millisecond, unavailable("EMIT", 0)},
		{"mix×4", []string{una, ovl, drop, una, ok}, 4, 30 * time.Millisecond, unavailable("remote", 5*time.Millisecond)},
		{"-ERR", []string{rej, ok}, 1, 0, rejected},
		{"overload then -ERR", []string{ovl, rej, ok}, 2, 5 * time.Millisecond, rejected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, requests := retryScriptServer(t, tc.replies)
			c, err := DialOptions(addr, Options{MaxRetries: 3, JitterSeed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			start := time.Now()
			err = c.Emit("S", rdf.Tuple{Triple: rdf.T("Logan", "po", "T-1"), TS: 150})
			waited := time.Since(start)
			if tc.want == nil && err != nil || tc.want != nil && !tc.want(err) {
				t.Errorf("Emit = %v", err)
			}
			if waited < tc.minWait {
				t.Errorf("Emit returned after %v, want at least %v of backoff", waited, tc.minWait)
			}
			reqs := requests()
			if len(reqs) != tc.attempts {
				t.Fatalf("server saw %d attempts, want %d", len(reqs), tc.attempts)
			}
			for i, r := range reqs[1:] {
				if r != reqs[0] {
					t.Errorf("re-send %d changed the request: %q, first %q", i+1, r, reqs[0])
				}
			}
		})
	}
}

// retryScriptServer answers the k-th EMIT it reads, over whichever
// connection carries it, with replies[k] — closing that connection instead
// when the reply is empty — and returns the exact bytes of every EMIT.
func retryScriptServer(t *testing.T, replies []string) (addr string, requests func() []string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		reqs []string
		wg   sync.WaitGroup
	)
	serve := func(conn net.Conn) {
		defer wg.Done()
		defer conn.Close()
		r := bufio.NewReader(conn)
		for {
			var req strings.Builder
			for {
				line, err := r.ReadString('\n')
				if err != nil {
					return
				}
				req.WriteString(line)
				if line == ".\n" {
					break
				}
			}
			mu.Lock()
			reqs = append(reqs, req.String())
			reply := ""
			if k := len(reqs) - 1; k < len(replies) {
				reply = replies[k]
			}
			mu.Unlock()
			if reply == "" {
				return
			}
			if _, err := io.WriteString(conn, reply); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String(), func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), reqs...)
	}
}
