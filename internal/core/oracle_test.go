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
//
// Both sides count by one rule: a window is a multiset of tuples and the
// stored graph a multiset of edges, and every pattern — whether the engine
// plans it as a seed, an Expand or a Check — matches each copy of a
// repeated triple once. The scripts repeat triples on purpose: inside one
// window, across windows, and in the stored graph.

// oracleTiming is the timing predicate of stream A: its tuples live only in
// the transient store and never reach the stored graph.
const oracleTiming = "g"

// oracleModel is the reference implementation.
type oracleModel struct {
	mu      sync.Mutex
	initial [][3]string         // s, p, o
	tuples  map[string][]oTuple // per stream
}

type oTuple struct {
	s, p, o string
	ts      rdf.Timestamp
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
// joined across streams with different windows, and a Check on a repeated
// edge, in a window and in the stored graph.
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
	{
		name:    "stored-check",
		windows: map[string]int64{"B": 400},
		where:   []oPat{{"B", "?x", "r", "?z"}, {"", "?x", "q", "?z"}},
		vars:    []string{"?x", "?z"},
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
	// The repeats draw from a source of their own, so the rest of the
	// script is what the seed alone makes it: its timing decides whether
	// a seed reaches the windows a GC or index mutation shows in.
	dup := rand.New(rand.NewSource(-seed))
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	model := &oracleModel{tuples: map[string][]oTuple{}}

	// Initial stored graph: a few q-edges and p-edges, then a second LOAD
	// that repeats about a third of them.
	var initial []rdf.Triple
	ents := func(i int) string { return fmt.Sprintf("e%d", i) }
	for i := 0; i < 16; i++ {
		s, p, o := ents(rng.Intn(8)), "q", ents(8+rng.Intn(8))
		if i >= 12 {
			p, o = "p", ents(rng.Intn(8))
		}
		initial = append(initial, rdf.T(s, p, o))
		model.initial = append(model.initial, [3]string{s, p, o})
	}
	e.LoadTriples(initial)
	var again []rdf.Triple
	for i := range initial {
		if dup.Intn(3) == 0 {
			again = append(again, initial[i])
			model.initial = append(model.initial, model.initial[i])
		}
	}
	e.LoadTriples(again)

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
	// to the next eight entities. After about a third of the tuples, one of
	// their stream's last few triples is emitted again, so it repeats in
	// the same window and often in the next ones.
	recent := map[string][][3]string{}
	now := rdf.Timestamp(0)
	emitTS := rdf.Timestamp(1)
	oneShot := oPat{"", "?x", "p", "?y"}
	advance := func(step int, to rdf.Timestamp) {
		now = to
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

	// A fixed early phase, whatever the seed: batch 1 holds a p-edge and a
	// timing edge from its object, and the first advance stops at 100, short
	// of every RANGE. The window that fires at 100 starts at batch 1, so a
	// GC that frees one batch too many drops it, and the windows that fire
	// next still reach it.
	x, y := ents(rng.Intn(8)), ents(rng.Intn(8))
	for _, tr := range [][3]string{{x, "p", y}, {y, oracleTiming, "l0"}} {
		if err := srcA.Emit(rdf.Tuple{Triple: rdf.T(tr[0], tr[1], tr[2]), TS: emitTS}); err != nil {
			t.Fatal(err)
		}
		model.emit("A", tr[0], tr[1], tr[2], emitTS)
		recent["A"] = append(recent["A"], tr)
	}
	advance(-1, 100)

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
			recent[strmName] = append(recent[strmName], [3]string{s, pred, o})
			trs := [][3]string{{s, pred, o}}
			if r := recent[strmName]; dup.Intn(3) == 0 {
				trs = append(trs, r[max(0, len(r)-1-dup.Intn(6))])
			}
			for _, tr := range trs {
				if err := src.Emit(rdf.Tuple{Triple: rdf.T(tr[0], tr[1], tr[2]), TS: emitTS}); err != nil {
					t.Fatal(err)
				}
				model.emit(strmName, tr[0], tr[1], tr[2], emitTS)
			}
		}
		next := now + rdf.Timestamp(100*(1+rng.Intn(3)))
		if emitTS > next {
			next = (emitTS/100 + 1) * 100
		}
		advance(step, next)
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
