package client

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/race"
	"repro/internal/rdf"
)

// blockVerbs are the commands whose line is followed by a body and a "."
// terminator.
var blockVerbs = map[string]bool{"LOAD": true, "EMIT": true, "QUERY": true, "EXPLAIN": true, "REGISTER": true}

// scriptedServer accepts connections on loopback and answers each request
// with the canned reply for its verb: a block verb when its "." arrives, any
// other verb at once, an unknown verb not at all. Its read loop allocates
// nothing per line, so testing.AllocsPerRun around a request counts the
// client alone. With record set it also returns, request by request, the
// exact bytes the client wrote.
func scriptedServer(t testing.TB, replies map[string]string, record bool) (addr string, requests func() []string) {
	t.Helper()
	canned := map[string][]byte{}
	for verb, reply := range replies {
		canned[verb] = []byte(reply)
	}
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
		var pending []byte // the reply a block verb gets at its terminator
		var raw []byte
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			if record {
				raw = append(raw, line...)
			}
			var reply []byte
			switch verb := line[:bytes.IndexAny(line, " \n")]; {
			case string(line) == ".\n":
				reply, pending = pending, nil
			case pending != nil: // a body line
			case blockVerbs[string(verb)]:
				pending = canned[string(verb)]
			default:
				reply = canned[string(verb)]
			}
			if reply == nil {
				continue
			}
			if record {
				mu.Lock()
				reqs = append(reqs, string(raw))
				mu.Unlock()
				raw = raw[:0]
			}
			if _, err := conn.Write(reply); err != nil {
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

// TestRequestBytesDoNotChange pins the exact bytes each request puts on the
// wire: the command line, then for a block verb each line of its body with
// "\n" after it, then ".\n" — so an empty body is one empty line and a body
// that ends in "\n" sends an empty last line.
func TestRequestBytesDoNotChange(t *testing.T) {
	addr, requests := scriptedServer(t, map[string]string{
		"STREAM":   "+OK stream S\n",
		"LOAD":     "+OK loaded 2\n",
		"EMIT":     "+OK emitted 3\n",
		"ADVANCE":  "+OK now 1000\n",
		"QUERY":    "+OK 2 rows\nT-13\nT-15\n.\n",
		"EXPLAIN":  "+OK\nmode: one-shot\n.\n",
		"REGISTER": "+OK registered QX\n",
		"POLL":     "+OK 1 rows dropped 0\n@1000 Logan T-15\n.\n",
	}, true)
	c, err := DialOptions(addr, Options{JitterSeed: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := func(seq int) string { return fmt.Sprintf("%x-%d", c.opSession, seq) }

	register := "\nREGISTER QUERY QX AS\nSELECT ?X ?Z\nFROM S [RANGE 1s STEP 1s]\nWHERE { GRAPH S { ?X po ?Z } }"
	calls := []func() error{
		func() error { return c.Stream("S", 100*time.Millisecond, "ga", "gb") },
		func() error { _, err := c.Load("<a> <p> <b> .\n_:c <p> \"d\" .\n"); return err },
		func() error {
			return c.Emit("S",
				rdf.Tuple{Triple: rdf.T("Logan", "po", "T-15"), TS: 150},
				rdf.Tuple{Triple: rdf.Triple{S: rdf.NewBlank("b1"), P: rdf.NewIRI("ga"), O: rdf.NewIntLiteral(12)}, TS: 250},
				rdf.Tuple{Triple: rdf.Triple{S: rdf.NewIRI("s"), P: rdf.NewIRI("p"), O: rdf.NewLiteral("say \"hi\"\t\\ x@y")}, TS: -3},
			)
		},
		func() error { return c.Emit("S") },
		func() error { _, err := c.Advance(1000); return err },
		func() error { _, err := c.Query("SELECT ?X WHERE { Logan po ?X }"); return err },
		func() error { _, err := c.Explain("SELECT ?X\nWHERE { Logan po ?X }\n"); return err },
		func() error { _, err := c.Register(register); return err },
		func() error { _, err := c.Poll("QX"); return err },
	}
	for i, call := range calls {
		if err := call(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	want := []string{
		"STREAM S 100 ga gb\n",
		"LOAD id=" + id(1) + "\n<a> <p> <b> .\n_:c <p> \"d\" .\n\n.\n",
		"EMIT S id=" + id(2) + "\n" +
			"<Logan> <po> <T-15> . @150\n" +
			"_:b1 <ga> \"12\"^^<http://www.w3.org/2001/XMLSchema#integer> . @250\n" +
			"<s> <p> \"say \\\"hi\\\"\\t\\\\ x@y\" . @-3\n" +
			".\n",
		"EMIT S id=" + id(3) + "\n\n.\n",
		"ADVANCE 1000\n",
		"QUERY\nSELECT ?X WHERE { Logan po ?X }\n.\n",
		"EXPLAIN\nSELECT ?X\nWHERE { Logan po ?X }\n\n.\n",
		"REGISTER id=" + id(4) + "\n" + register + "\n.\n",
		"POLL QX\n",
	}
	got := requests()
	if len(got) != len(want) {
		t.Fatalf("server saw %d requests, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// TestMalformedRepliesAreErrors: a "+OK" whose number does not parse is an
// error that quotes the reply, not a zero.
func TestMalformedRepliesAreErrors(t *testing.T) {
	addr, _ := scriptedServer(t, map[string]string{
		"ADVANCE": "+OK now soon\n",
		"LOAD":    "+OK loaded x\n",
	}, false)
	c, err := DialOptions(addr, Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if now, err := c.Advance(5); err == nil || !strings.Contains(err.Error(), `"now soon"`) {
		t.Errorf("Advance on %q = %d, %v; want an error quoting the reply", "+OK now soon", now, err)
	}
	if n, err := c.Load("<a> <p> <b> ."); err == nil || !strings.Contains(err.Error(), `"loaded x"`) {
		t.Errorf("Load on %q = %d, %v; want an error quoting the reply", "+OK loaded x", n, err)
	}
}

// rowsReply is a "+OK" reply carrying n rows shaped like POLL's.
func rowsReply(n int) string {
	var b strings.Builder
	b.WriteString("+OK " + strconv.Itoa(n) + " rows dropped 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "@%d user-%d post-%d\n", 1000+i, i, 7*i)
	}
	b.WriteString(".\n")
	return b.String()
}

// emitTuples is an LSBench-shaped EMIT body: IRIs of users and posts, and a
// literal on every fifth tuple.
func emitTuples(n int) []rdf.Tuple {
	out := make([]rdf.Tuple, n)
	for i := range out {
		tr := rdf.T("http://lsbench/user"+strconv.Itoa(i%977), "http://lsbench/po", "http://lsbench/post"+strconv.Itoa(40000+i))
		if i%5 == 0 {
			tr.O = rdf.NewLiteral("[" + strconv.Itoa(i%90) + "," + strconv.Itoa(i%180) + "]")
		}
		out[i] = rdf.Tuple{Triple: tr, TS: rdf.Timestamp(1000 + i)}
	}
	return out
}

// TestClientAllocationBudget: an EMIT renders into the client's reused
// buffer, so its allocations do not grow with its tuples, and a reply's rows
// are one string, so a Query or Poll allocates the same whatever its rows.
func TestClientAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	allocs := func(rows int, f func(c *Client) error) float64 {
		addr, _ := scriptedServer(t, map[string]string{
			"EMIT":  "+OK emitted\n",
			"QUERY": rowsReply(rows),
			"POLL":  rowsReply(rows),
		}, false)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return testing.AllocsPerRun(200, func() {
			if err := f(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	emit := func(n int) func(*Client) error {
		tuples := emitTuples(n)
		return func(c *Client) error { return c.Emit("PO-L", tuples...) }
	}
	query := func(c *Client) error { _, err := c.Query("SELECT ?X WHERE { ?X po ?Y }"); return err }
	poll := func(c *Client) error { _, err := c.Poll("QX"); return err }

	if one, many := allocs(0, emit(1)), allocs(0, emit(215)); many > one {
		t.Errorf("Emit of 215 tuples allocates %.0f times, of 1 tuple %.0f; want no more", many, one)
	}
	for _, tc := range []struct {
		name string
		f    func(*Client) error
		max  float64
	}{{"Query", query, 3}, {"Poll", poll, 5}} {
		one, many := allocs(1, tc.f), allocs(300, tc.f)
		if many != one || many > tc.max {
			t.Errorf("%s allocates %.0f times for 1 row, %.0f for 300; want the same, ≤ %.0f", tc.name, one, many, tc.max)
		}
	}
}

// BenchmarkClientEmit: one EMIT of an LSBench-sized body against a server
// that only acknowledges, so the time is the client's rendering and write.
func BenchmarkClientEmit(b *testing.B) {
	const n = 3337
	tuples := emitTuples(n)
	addr, _ := scriptedServer(b, map[string]string{"EMIT": "+OK emitted\n"}, false)
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Emit("PO-L", tuples...); err != nil { // the buffer reaches its size
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Emit("PO-L", tuples...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*n), "allocs/tuple")
}
