package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/stream"
)

// This file model-tests the engine against a brute-force oracle: a naive
// in-memory reference that re-evaluates every window from the full tuple
// history with nested loops over term strings, sharing no code with exec,
// plan, store, sindex or tstore. Random (seeded) stream schedules drive
// both; any divergence in continuous-query results or one-shot visibility
// is a correctness bug in the hybrid store, stream index, transient store,
// window math, delta firing or VTS machinery.

// oracleTiming is the timing predicate of stream A: its tuples live only in
// the transient store and never reach the stored graph.
const oracleTiming = "g"

// oracleModel is the reference implementation.
type oracleModel struct {
	mu      sync.Mutex
	initial [][3]string         // s, p, o
	tuples  map[string][]oTuple // per stream
	seen    map[[3]string]bool  // every triple used so far, stored or streamed
}

type oTuple struct {
	s, p, o string
	ts      rdf.Timestamp
}

// fresh reports whether s p o is new to the model and records it. The
// scripts use every triple once, so the engine's bag semantics (a stream
// Expand keeps duplicate edges, a stream Check keeps a row once) and the
// model's agree.
func (m *oracleModel) fresh(s, p, o string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := [3]string{s, p, o}
	if m.seen[k] {
		return false
	}
	m.seen[k] = true
	return true
}

func (m *oracleModel) emit(stream, s, p, o string, ts rdf.Timestamp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tuples[stream] = append(m.tuples[stream], oTuple{s, p, o, ts})
}

// oPat is one triple pattern as the model reads it: a term starting with
// '?' is a variable, and graph "" is the stored graph.
type oPat struct{ graph, s, p, o string }

// triples returns the triples pattern pat ranges over: a stream window
// [at-rng, at) (batches are 100 ms and windows fire on batch boundaries),
// or the stored graph as a read at storedAsOf sees it — the initial load
// plus every timeless tuple of a batch sealed by then.
func (m *oracleModel) triples(pat oPat, rng int64, at, storedAsOf rdf.Timestamp) [][3]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out [][3]string
	if pat.graph != "" {
		for _, t := range m.tuples[pat.graph] {
			if t.p == pat.p && int64(t.ts) >= int64(at)-rng && t.ts < at {
				out = append(out, [3]string{t.s, t.p, t.o})
			}
		}
		return out
	}
	for _, tr := range m.initial {
		if tr[1] == pat.p {
			out = append(out, tr)
		}
	}
	cutoff := storedAsOf / 100 * 100
	for _, ts := range m.tuples {
		for _, t := range ts {
			if t.p == pat.p && t.p != oracleTiming && t.ts < cutoff {
				out = append(out, [3]string{t.s, t.p, t.o})
			}
		}
	}
	return out
}

// bind extends row with triple tr matched against pat, or reports a clash.
func bind(row map[string]string, pat oPat, tr [3]string) (map[string]string, bool) {
	out := make(map[string]string, len(row)+2)
	for k, v := range row {
		out[k] = v
	}
	for i, term := range []string{pat.s, pat.p, pat.o} {
		val := tr[i]
		if !strings.HasPrefix(term, "?") {
			if term != val {
				return nil, false
			}
			continue
		}
		if old, ok := out[term]; ok && old != val {
			return nil, false
		}
		out[term] = val
	}
	return out, true
}

// eval answers c's query for the window firing at `at` by nested loops.
func (m *oracleModel) eval(c oracleCase, at, storedAsOf rdf.Timestamp) []string {
	rows := []map[string]string{{}}
	for _, pat := range c.where {
		trs := m.triples(pat, c.windows[pat.graph], at, storedAsOf)
		var next []map[string]string
		for _, row := range rows {
			for _, tr := range trs {
				if nb, ok := bind(row, pat, tr); ok {
					next = append(next, nb)
				}
			}
		}
		rows = next
	}
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		cells := make([]string, len(c.vars))
		for i, v := range c.vars {
			cells[i] = row[v]
		}
		out = append(out, strings.Join(cells, " "))
	}
	sort.Strings(out)
	return out
}

// oracleCase is one continuous query of the table: its windows (stream →
// RANGE in ms; STEP is 100 ms), its WHERE clause and its SELECT list.
type oracleCase struct {
	name    string
	windows map[string]int64
	where   []oPat
	vars    []string
}

// text renders c as the REGISTER QUERY the engine is given.
func (c oracleCase) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "REGISTER QUERY oracle AS\nSELECT %s\n", strings.Join(c.vars, " "))
	streams := make([]string, 0, len(c.windows))
	for s := range c.windows {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	for _, s := range streams {
		fmt.Fprintf(&b, "FROM %s [RANGE %dms STEP 100ms]\n", s, c.windows[s])
	}
	pats := make([]string, len(c.where))
	for i, p := range c.where {
		pats[i] = fmt.Sprintf("%s %s %s", p.s, p.p, p.o)
		if p.graph != "" {
			pats[i] = fmt.Sprintf("GRAPH %s { %s }", p.graph, pats[i])
		}
	}
	fmt.Fprintf(&b, "WHERE { %s }", strings.Join(pats, " . "))
	return b.String()
}

// storedJoin is the original oracle query: a stream pattern joined with
// stored data that itself evolves from stream B.
var storedJoin = oracleCase{
	name:    "stored-join",
	windows: map[string]int64{"A": 500},
	where:   []oPat{{"A", "?x", "p", "?y"}, {"", "?y", "q", "?z"}},
	vars:    []string{"?x", "?y", "?z"},
}

// oracleCases covers the code that reads a mini-batch's indexes: the stream
// index's window candidates and spans (unanchored seeds), the transient
// store (timing data, as a seed and as an expand), two stream patterns
// joined across streams with different windows, and a deferred stream check
// (delta firing maintains those incrementally).
var oracleCases = []oracleCase{
	storedJoin,
	{
		name:    "unanchored",
		windows: map[string]int64{"A": 300},
		where:   []oPat{{"A", "?x", "p", "?y"}},
		vars:    []string{"?x", "?y"},
	},
	{
		name:    "timing-seed",
		windows: map[string]int64{"A": 300},
		where:   []oPat{{"A", "?x", oracleTiming, "?l"}},
		vars:    []string{"?x", "?l"},
	},
	{
		name:    "timing-join",
		windows: map[string]int64{"A": 400},
		where:   []oPat{{"A", "?x", "p", "?y"}, {"A", "?y", oracleTiming, "?l"}},
		vars:    []string{"?x", "?y", "?l"},
	},
	{
		name:    "stream-join",
		windows: map[string]int64{"A": 300, "B": 500},
		where:   []oPat{{"A", "?x", "p", "?y"}, {"B", "?y", "r", "?z"}},
		vars:    []string{"?x", "?y", "?z"},
	},
	{
		name:    "stream-check",
		windows: map[string]int64{"A": 400},
		where:   []oPat{{"A", "?x", "p", "?y"}, {"A", "?y", "p", "?x"}},
		vars:    []string{"?x", "?y"},
	},
}

func TestEngineMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOracle(t, seed, storedJoin, Config{Nodes: 3, WorkersPerNode: 2})
		})
	}
}

// TestOracleTable runs every case of the table on 1, 2 and 4 engine
// partitions, with delta firing on and off.
func TestOracleTable(t *testing.T) {
	for _, c := range oracleCases {
		for _, nodes := range []int{1, 2, 4} {
			for _, delta := range []string{DeltaModeAuto, DeltaModeOff} {
				for _, seed := range []int64{3, 11} {
					c, cfg, seed := c, Config{Nodes: nodes, WorkersPerNode: 2, DeltaMode: delta}, seed
					t.Run(fmt.Sprintf("%s/nodes=%d/delta=%s/seed=%d", c.name, nodes, delta, seed), func(t *testing.T) {
						runOracle(t, seed, c, cfg)
					})
				}
			}
		}
	}
}

func runOracle(t *testing.T, seed int64, c oracleCase, cfg Config) {
	rng := rand.New(rand.NewSource(seed))
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	model := &oracleModel{tuples: map[string][]oTuple{}, seen: map[[3]string]bool{}}

	// Initial stored graph: a few q-edges and p-edges.
	var initial []rdf.Triple
	ents := func(i int) string { return fmt.Sprintf("e%d", i) }
	for i := 0; i < 16; i++ {
		s, p, o := ents(rng.Intn(8)), "q", ents(8+rng.Intn(8))
		if i >= 12 {
			p, o = "p", ents(rng.Intn(8))
		}
		if model.fresh(s, p, o) {
			initial = append(initial, rdf.T(s, p, o))
			model.initial = append(model.initial, [3]string{s, p, o})
		}
	}
	e.LoadTriples(initial)

	srcA, err := e.RegisterStream(stream.Config{Name: "A", BatchInterval: 100 * time.Millisecond, TimingPredicates: []string{oracleTiming}})
	if err != nil {
		t.Fatal(err)
	}
	srcB, err := e.RegisterStream(stream.Config{Name: "B", BatchInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	type fire struct {
		at         rdf.Timestamp
		storedAsOf rdf.Timestamp
		rows       []string
	}
	var mu sync.Mutex
	var fires []fire
	_, err = e.RegisterContinuous(c.text(), func(r *Result, f FireInfo) {
		rows := r.Strings()
		sort.Strings(rows)
		mu.Lock()
		fires = append(fires, fire{at: f.At, storedAsOf: e.Now(), rows: rows})
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Random schedule: emit bursts with non-decreasing timestamps, advance
	// in random increments, and cross-check one-shot visibility as we go.
	// Stream A carries p-edges between the first eight entities and timing
	// g-edges to four locations; stream B carries q- and r-edges from them
	// to the next eight entities.
	now := rdf.Timestamp(0)
	emitTS := rdf.Timestamp(1)
	oneShot := oPat{"", "?x", "p", "?y"}
	for step := 0; step < 40; step++ {
		burst := rng.Intn(8)
		if emitTS <= now {
			emitTS = now + rdf.Timestamp(rng.Intn(50))
		}
		for i := 0; i < burst; i++ {
			emitTS += rdf.Timestamp(rng.Intn(60))
			strmName, src := "A", srcA
			if rng.Intn(3) == 0 {
				strmName, src = "B", srcB
			}
			s, pred, o := ents(rng.Intn(8)), "p", ents(rng.Intn(8))
			switch {
			case strmName == "A" && rng.Intn(3) == 0:
				pred, o = oracleTiming, fmt.Sprintf("l%d", rng.Intn(4))
			case strmName == "B":
				pred, o = "q", ents(8+rng.Intn(8))
				if rng.Intn(2) == 0 {
					pred = "r"
				}
			}
			if !model.fresh(s, pred, o) {
				continue
			}
			if err := src.Emit(rdf.Tuple{Triple: rdf.T(s, pred, o), TS: emitTS}); err != nil {
				t.Fatal(err)
			}
			model.emit(strmName, s, pred, o, emitTS)
		}
		now += rdf.Timestamp(100 * (1 + rng.Intn(3)))
		if emitTS > now {
			now = (emitTS/100 + 1) * 100
		}
		e.AdvanceTo(now)

		res, err := e.Query(`SELECT ?x ?y WHERE { ?x p ?y }`)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Strings()
		sort.Strings(got)
		want := model.eval(oracleCase{where: []oPat{oneShot}, vars: []string{"?x", "?y"}}, now, now)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("step %d @%d: one-shot mismatch\ngot:  %v\nwant: %v", step, now, got, want)
		}
	}

	// Every fired window must match the oracle exactly, as a multiset.
	mu.Lock()
	defer mu.Unlock()
	if len(fires) == 0 {
		t.Fatal("continuous query never fired")
	}
	rows := 0
	for _, f := range fires {
		want := model.eval(c, f.at, f.storedAsOf)
		if strings.Join(f.rows, "|") != strings.Join(want, "|") {
			t.Fatalf("window @%d mismatch\ngot:  %v\nwant: %v", f.at, f.rows, want)
		}
		rows += len(want)
	}
	if rows == 0 {
		t.Fatalf("%s: no firing produced a row; the script does not exercise the query", c.name)
	}
}
