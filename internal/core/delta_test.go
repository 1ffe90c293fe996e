package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/tstore"
)

// TestDeltaEquivalenceCrosscheck drives a two-stream query with a stored
// join and a stream Check through 20 sliding boundaries with crosscheck on:
// every delta firing re-runs the full evaluation and panics on divergence,
// so surviving the timeline IS the equivalence assertion. Recurring edges
// across batches exercise the Check's count: a row is kept once per
// matching edge in the window, which delta firing sums batch by batch.
func TestDeltaEquivalenceCrosscheck(t *testing.T) {
	r := obs.NewRegistry("deltaeq")
	e, err := New(Config{
		Nodes:           4,
		WorkersPerNode:  2,
		DeltaCrosscheck: true,
		Metrics:         r,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	e.LoadTriples(xlab())
	tweets, err := e.RegisterStream(stream.Config{Name: "S", BatchInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	likes, err := e.RegisterStream(stream.Config{Name: "L", BatchInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var col collector
	if _, err := e.RegisterContinuous(`
REGISTER QUERY QEQ AS
SELECT ?X ?Y ?Z
FROM S [RANGE 300ms STEP 100ms]
FROM L [RANGE 300ms STEP 100ms]
FROM X-Lab
WHERE {
  GRAPH S { ?X po ?Z }
  GRAPH X-Lab { ?X fo ?Y }
  GRAPH L { ?Y li ?Z }
}`, col.cb); err != nil {
		t.Fatal(err)
	}
	for ts := rdf.Timestamp(100); ts <= 2000; ts += 100 {
		// A fresh item per batch plus a recurring one (item index mod 2), so
		// successive window batches repeat the same like-edge.
		emit(t, tweets, ts-50, "Logan", "po", fmt.Sprintf("item%d", ts))
		emit(t, tweets, ts-50, "Erik", "po", fmt.Sprintf("rec%d", (ts/100)%2))
		emit(t, likes, ts-50, "Erik", "li", fmt.Sprintf("item%d", ts))
		emit(t, likes, ts-50, "Logan", "li", fmt.Sprintf("rec%d", (ts/100)%2))
		// Every third batch also repeats an old like, so a checked edge
		// recurs across batches inside one window.
		if ts%300 == 0 {
			emit(t, likes, ts-50, "Erik", "li", fmt.Sprintf("item%d", ts-100))
		}
		e.AdvanceTo(ts)
	}
	if col.fireCount() == 0 {
		t.Fatal("no firings observed")
	}
	if len(col.allRows()) == 0 {
		t.Fatal("no rows produced; the crosscheck never compared real results")
	}
	if n := counterValue(t, r, "cq_delta_firings_total"); n == 0 {
		t.Error("cq_delta_firings_total = 0, want delta-evaluated firings")
	}
	if n := counterValue(t, r, `cq_full_recompute_total{reason="cold"}`); n == 0 {
		t.Error("no cold rebuild counted; the first firing must recompute in full")
	}
}

// TestPlannerZeroCardinalityPredicate: an interned predicate with zero
// edges must plan cleanly (no NaN costs), run as in-place (nothing to
// scatter for), and return an empty result — one-shot and windowed.
func TestPlannerZeroCardinalityPredicate(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 4)
	e.StringServer().InternPredicate("zz")

	res, err := e.Query("SELECT ?A ?B FROM X-Lab WHERE { ?A zz ?B }")
	if err != nil {
		t.Fatalf("zero-cardinality one-shot: %v", err)
	}
	if res.Len() != 0 {
		t.Fatalf("rows = %d, want 0", res.Len())
	}

	q, err := sparql.Parse("SELECT ?A ?B FROM X-Lab WHERE { ?A zz ?B }")
	if err != nil {
		t.Fatal(err)
	}
	if got := modeOf(t, e, q); got != exec.InPlace {
		t.Errorf("mode(zero-cardinality) = %v, want in-place", got)
	}
	out, err := e.Explain("SELECT ?A ?B FROM X-Lab WHERE { ?A zz ?B }")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "in-place") {
		t.Errorf("Explain mode line missing in-place:\n%s", out)
	}
	if !strings.Contains(out, "estimated cost") {
		t.Errorf("Explain missing cost line:\n%s", out)
	}

	// Windowed: a stream pattern on the empty predicate fires empty results
	// through the delta path without tripping over the empty edge cache.
	var col collector
	if _, err := e.RegisterContinuous(`
REGISTER QUERY QZ AS
SELECT ?A ?B
FROM Tweet_Stream [RANGE 200ms STEP 100ms]
WHERE { GRAPH Tweet_Stream { ?A zz ?B } }`, col.cb); err != nil {
		t.Fatal(err)
	}
	for ts := rdf.Timestamp(100); ts <= 800; ts += 100 {
		emit(t, tweets, ts-50, "Logan", "po", fmt.Sprintf("t%d", ts)) // other-predicate noise
		e.AdvanceTo(ts)
	}
	if col.fireCount() == 0 {
		t.Fatal("zero-cardinality CQ never fired")
	}
	if rows := col.allRows(); len(rows) != 0 {
		t.Errorf("zero-cardinality CQ rows = %v, want none", rows)
	}
}

// modeOf compiles q over e's live statistics and returns the strategy
// decide picks for the plan.
func modeOf(t *testing.T, e *Engine, q *sparql.Query) exec.Mode {
	t.Helper()
	p, err := plan.Compile(q, e.ss, e.statsFor(q))
	if err != nil {
		t.Fatal(err)
	}
	return e.decide(p).Mode
}

// TestAdaptiveDriftFlipsDecision: the same continuous query is costed
// in-place over an empty window and fork-join once injected stream volume
// drives the window cardinality past the crossover — the decision tracks
// live statistics, not plan shape.
func TestAdaptiveDriftFlipsDecision(t *testing.T) {
	e, err := New(Config{Nodes: 8, WorkersPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	src, err := e.RegisterStream(stream.Config{Name: "PO", BatchInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const qText = `
REGISTER QUERY QDRIFT AS
SELECT ?U ?P
FROM PO [RANGE 500ms STEP 100ms]
WHERE { GRAPH PO { ?U po ?P } }`
	// Register the query so the stream actually injects (unconsumed streams
	// never seal batches) — this is also the shape being re-costed per tick.
	if _, err := e.RegisterContinuous(qText, nil); err != nil {
		t.Fatal(err)
	}
	q, err := sparql.Parse(qText)
	if err != nil {
		t.Fatal(err)
	}
	if got := modeOf(t, e, q); got != exec.InPlace {
		t.Fatalf("mode over empty window = %v, want in-place", got)
	}
	// 200 distinct subjects per batch across 5 batches: the unanchored seed's
	// estimated candidate set grows far past the scatter break-even.
	for ts := rdf.Timestamp(100); ts <= 500; ts += 100 {
		for i := 0; i < 200; i++ {
			emit(t, src, ts-50, fmt.Sprintf("u%d_%d", ts, i), "po", fmt.Sprintf("v%d_%d", ts, i))
		}
		e.AdvanceTo(ts)
	}
	if got := modeOf(t, e, q); got != exec.ForkJoin {
		t.Fatalf("mode after rate surge = %v, want fork-join (decision must flip with drift)", got)
	}
}

// TestDeltaExpireDropsEveryExpiredBatch: a firing never reads a cached
// vector or edge list outside its window, so one that expiry forgot would
// not change a row — only grow the cache for good. Expiry is checked here
// directly: after it, every cached coordinate lies inside its window.
func TestDeltaExpireDropsEveryExpiredBatch(t *testing.T) {
	ds := &deltaState{
		levels:   []map[vecKey]deltaEntry{{}, {}},
		segEdges: []map[tstore.BatchID]batchEdges{{}, {}},
	}
	for a := tstore.BatchID(1); a <= 6; a++ {
		ds.levels[0][vecKey{a}] = deltaEntry{vec: vecKey{a}}
		ds.segEdges[0][a], ds.segEdges[1][a] = nil, nil
		for b := tstore.BatchID(1); b <= 6; b++ {
			ds.levels[1][vecKey{a, b}] = deltaEntry{vec: vecKey{a, b}}
		}
	}
	wins := []batchRange{{from: 3, to: 5}, {from: 2, to: 6}}
	ds.expire(wins)
	for lvl, m := range ds.levels {
		for k := range m {
			for j := 0; j <= lvl; j++ {
				if k[j] < wins[j].from || k[j] > wins[j].to {
					t.Errorf("level %d keeps vector %v outside window %d %+v", lvl, k, j, wins[j])
				}
			}
		}
	}
	if len(ds.levels[0]) != 3 || len(ds.levels[1]) != 3*5 {
		t.Errorf("kept %d and %d vectors, want 3 and 15", len(ds.levels[0]), len(ds.levels[1]))
	}
	for lvl, m := range ds.segEdges {
		for b := range m {
			if b < wins[lvl].from || b > wins[lvl].to {
				t.Errorf("level %d keeps the edge list of batch %d outside %+v", lvl, b, wins[lvl])
			}
		}
	}
}

// keyCounter is an exec.Access whose Neighbors answers every key with its
// vertex alone and counts the keys it was asked for.
type keyCounter struct {
	exec.Access
	asked *int
}

func (a keyCounter) Neighbors(_ fabric.NodeID, keys []store.Key, out [][]rdf.ID) {
	*a.asked += len(keys)
	for i, k := range keys {
		out[i] = []rdf.ID{k.Vid}
	}
}

// TestMemoStoredReadsEachMissOnce: a frontier through the delta memo reads
// each distinct missing key once, however often it repeats in the frontier,
// and not again on a later firing; every position gets its key's values.
func TestMemoStoredReadsEachMissOnce(t *testing.T) {
	asked := 0
	m := memoStored{inner: keyCounter{asked: &asked}, memo: map[store.Key][]rdf.ID{}, miss: &memoMisses{}}
	keys := []store.Key{store.EdgeKey(1, 5, store.Out), store.EdgeKey(2, 5, store.Out), store.EdgeKey(1, 5, store.Out), store.EdgeKey(1, 5, store.In)}
	for round, want := range []int{3, 3} {
		out := make([][]rdf.ID, len(keys))
		m.Neighbors(0, keys, out)
		if asked != want {
			t.Fatalf("round %d: the inner access was asked for %d keys in all, want %d", round, asked, want)
		}
		for i, k := range keys {
			if len(out[i]) != 1 || out[i][0] != k.Vid {
				t.Fatalf("round %d: key %v read %v", round, k, out[i])
			}
		}
	}
}
