package server

import (
	"bufio"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/rdf"
)

func TestReadBlockAllocatesOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var body strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&body, "<user-%d> <po> <post-%d> . @%d\n", i, i, 100+i)
	}
	block := body.String() + ".\n"
	input := strings.Repeat(block, 201)
	r := newLineReader(strings.NewReader(input))
	read := func() {
		got, err := r.readBlock()
		if err != nil {
			t.Fatal(err)
		}
		if got != body.String() {
			t.Fatalf("readBlock returned %d bytes, want the %d-byte body", len(got), body.Len())
		}
	}
	read() // the scanner and the block buffer reach their size
	if n := testing.AllocsPerRun(100, read); n != 1 {
		t.Errorf("readBlock of a 64-line block allocates %.0f times, want 1", n)
	}
}

// TestReadBlockTerminator: only a line that is "." after trimming ends a
// block; lines that merely contain a dot are body.
func TestReadBlockTerminator(t *testing.T) {
	r := newLineReader(strings.NewReader("<a> <p> <b> .\r\n . \n  .\t\r\nnext\n.\n"))
	for _, want := range []string{"<a> <p> <b> .\n", "", "next\n"} {
		got, err := r.readBlock()
		if err != nil || got != want {
			t.Fatalf("readBlock = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := r.readBlock(); err == nil {
		t.Fatal("readBlock at end of input: want an error")
	}
}

// TestCommandSplitsLikeFields: the reused-slice splitter is strings.Fields
// with the verb upper-cased.
func TestCommandSplitsLikeFields(t *testing.T) {
	lines := []string{
		"EMIT S id=c1-7", "  stream\tS2   100  ga gb \r", "poll Q1", "QUIT", "", "   ", "x",
		"STREAM a b c d e f g h",
	}
	r := newLineReader(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	for _, line := range lines {
		if !r.Scan() {
			t.Fatal("scanner ended early")
		}
		cmd, args := r.command()
		want := strings.Fields(line)
		if len(want) == 0 {
			if cmd != "" || len(args) != 0 {
				t.Errorf("%q: got %q %q, want nothing", line, cmd, args)
			}
			continue
		}
		if cmd != strings.ToUpper(want[0]) || strings.Join(args, "|") != strings.Join(want[1:], "|") {
			t.Errorf("%q: got %q %q, want %q %q", line, cmd, args, strings.ToUpper(want[0]), want[1:])
		}
	}
}

// TestStreamArgsSurviveTheNextCommand: the handler reuses its argument slice
// from line to line, and STREAM's arguments are kept for the engine's life.
func TestStreamArgsSurviveTheNextCommand(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	c.send("STREAM S1 100 ga gb")
	expectOK(t, c.status())
	c.send("STREAM S2 200 zz yy xx")
	expectOK(t, c.status())
	c.send("POLL overwrite the argument slice once more")
	c.status()
	cfgs := srv.eng.StreamConfigsOrdered()
	if len(cfgs) != 2 {
		t.Fatalf("%d streams registered, want 2", len(cfgs))
	}
	if got := cfgs[0].Name + " " + strings.Join(cfgs[0].TimingPredicates, " "); got != "S1 ga gb" {
		t.Errorf("first stream's kept config = %q, want %q", got, "S1 ga gb")
	}
	if got := cfgs[1].Name + " " + strings.Join(cfgs[1].TimingPredicates, " "); got != "S2 zz yy xx" {
		t.Errorf("second stream's kept config = %q, want %q", got, "S2 zz yy xx")
	}
}

// resultFixture loads a small graph and returns results of the shapes a
// firing can have: plain, DISTINCT, LIMIT, an aggregate (float cells) and an
// OPTIONAL that leaves cells unbound.
func resultFixture(t testing.TB) []*core.Result {
	t.Helper()
	eng, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	var triples []rdf.Triple
	for u := 0; u < 100; u++ {
		user := fmt.Sprintf("user-%d", u)
		for p := 0; p < 3; p++ {
			triples = append(triples, rdf.T(user, "po", fmt.Sprintf("post-%d-%d", u, p)))
		}
		triples = append(triples, rdf.Triple{S: rdf.NewIRI(user), P: rdf.NewIRI("age"), O: rdf.NewIntLiteral(int64(20 + u%7))})
		triples = append(triples, rdf.Triple{S: rdf.NewIRI(user), P: rdf.NewIRI("motto"), O: rdf.NewLiteral(`say "hi" \ bye`)})
		if u%3 == 0 {
			triples = append(triples, rdf.T(user, "fo", fmt.Sprintf("user-%d", (u+1)%100)))
		}
	}
	eng.LoadTriples(triples)
	var out []*core.Result
	for _, q := range []string{
		`SELECT ?U ?P WHERE { ?U po ?P }`,
		`SELECT DISTINCT ?U WHERE { ?U po ?P }`,
		`SELECT ?U ?P WHERE { ?U po ?P } LIMIT 7`,
		`SELECT ?U ?M ?A WHERE { ?U motto ?M . ?U age ?A }`,
		`SELECT ?A (COUNT(?U) AS ?N) (AVG(?A) AS ?M) WHERE { ?U age ?A } GROUP BY ?A`,
		`SELECT ?U ?F WHERE { ?U age ?A . OPTIONAL { ?U fo ?F } }`,
		`SELECT ?U WHERE { ?U po nobody }`,
	} {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out = append(out, res)
	}
	return out
}

// TestBufferResultRendersLikeStrings: what POLL delivers for a firing is
// "@<at> " + the row as Strings() renders it, row for row — the bytes the
// per-row renderer produced before firings were rendered as one block.
func TestBufferResultRendersLikeStrings(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := New(eng)
	var want []string
	rows := 0
	for i, res := range resultFixture(t) {
		at := rdf.Timestamp(100 * (i + 1))
		srv.BufferResult("Q", res, core.FireInfo{At: at})
		for _, s := range res.Strings() {
			want = append(want, fmt.Sprintf("@%d %s", at, s))
		}
		rows += res.Len()
	}
	if rows < 300 {
		t.Fatalf("fixture has %d rows, want a few hundred", rows)
	}
	var b strings.Builder
	w := bufio.NewWriter(&b)
	if err := srv.cmdPoll(w, []string{"Q"}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if got[0] != fmt.Sprintf("+OK %d rows dropped 0", len(want)) || got[len(got)-1] != "." {
		t.Fatalf("POLL framing: first line %q, last %q", got[0], got[len(got)-1])
	}
	got = got[1 : len(got)-1]
	if len(got) != len(want) {
		t.Fatalf("POLL delivered %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBufferResultAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	eng, err := core.New(core.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := New(eng)
	var res *core.Result
	for _, r := range resultFixture(t) {
		if r.Len() >= 100 && (res == nil || r.Len() > res.Len()) {
			res = r
		}
	}
	srv.BufferResult("Q", res, core.FireInfo{At: 100}) // creates the buffer and its gauge
	n := testing.AllocsPerRun(50, func() {
		srv.BufferResult("Q", res, core.FireInfo{At: 200})
		srv.mu.Lock()
		srv.results["Q"].rows = srv.results["Q"].rows[:0] // what POLL would take
		srv.mu.Unlock()
	})
	if n > 4 {
		t.Errorf("BufferResult of %d rows allocates %.0f times, want ≤ 4", res.Len(), n)
	}

	// Overflowing: drop-oldest costs the rows a firing appends and drops,
	// however many the buffer holds. Copying the buffer on each firing would
	// cost 16 bytes per buffered row: 16 KB a firing at PollBuffer 1 000,
	// 160 KB at the default.
	for _, limit := range []int{1_000, defaultPollBuffer} {
		srv.PollBuffer = limit
		for i := 0; i*res.Len() < 2*limit; i++ {
			srv.BufferResult("Q", res, core.FireInfo{At: 300})
		}
		const firings = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < firings; i++ {
			srv.BufferResult("Q", res, core.FireInfo{At: 400})
		}
		runtime.ReadMemStats(&after)
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / firings / float64(res.Len())
		t.Logf("PollBuffer %d: %.0f bytes per appended row", limit, perRow)
		if perRow > 160 {
			t.Errorf("PollBuffer %d: an overflowing firing allocates %.0f bytes per appended row, want ≤ 160", limit, perRow)
		}
	}
}

// TestOverflowingPollReturnsTheNewestRows: past PollBuffer, POLL returns the
// newest PollBuffer rows in firing order and counts every dropped row.
func TestOverflowingPollReturnsTheNewestRows(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := New(eng)
	srv.PollBuffer = 250
	var res *core.Result
	for _, r := range resultFixture(t) {
		if r.Len() >= 2 && (res == nil || r.Len() < res.Len()) {
			res = r
		}
	}
	var want []string
	for at := rdf.Timestamp(1); at <= 400; at++ {
		srv.BufferResult("Q", res, core.FireInfo{At: at})
		for _, row := range res.Strings() {
			want = append(want, fmt.Sprintf("@%d %s", at, row))
		}
	}
	var out strings.Builder
	w := bufio.NewWriter(&out)
	if err := srv.cmdPoll(w, []string{"Q"}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	dropped := len(want) - srv.PollBuffer
	if head := fmt.Sprintf("+OK %d rows dropped %d", srv.PollBuffer, dropped); lines[0] != head || lines[len(lines)-1] != "." {
		t.Fatalf("POLL framing: first line %q, last %q; want %q first", lines[0], lines[len(lines)-1], head)
	}
	got := lines[1 : len(lines)-1]
	if !slices.Equal(got, want[dropped:]) {
		t.Fatalf("POLL returned %d rows; want the newest %d of %d in order", len(got), srv.PollBuffer, len(want))
	}
	if q, total := srv.DroppedRows("Q"); q != int64(dropped) || total != int64(dropped) {
		t.Fatalf("DroppedRows = %d, %d; want %d", q, total, dropped)
	}
}
