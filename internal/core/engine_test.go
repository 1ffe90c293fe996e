package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/rdf"
	"repro/internal/stream"
)

// qcText is the paper's Fig. 2 continuous query.
const qcText = `
REGISTER QUERY QC AS
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
FROM X-Lab
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  GRAPH X-Lab { ?X fo ?Y }
  GRAPH Like_Stream { ?Y li ?Z }
}`

// qsText is the paper's Fig. 2 one-shot query.
const qsText = `
SELECT ?X
FROM X-Lab
WHERE { Logan po ?X . ?X ht sosp17 . Erik li ?X }`

// xlab is the paper's Fig. 1 initially stored data.
func xlab() []rdf.Triple {
	var out []rdf.Triple
	for _, tr := range [][3]string{
		{"Logan", "ty", "X-Men"},
		{"Erik", "ty", "X-Men"},
		{"Logan", "fo", "Erik"},
		{"Erik", "fo", "Logan"},
		{"Logan", "po", "T-13"},
		{"Logan", "po", "T-14"},
		{"Erik", "po", "T-12"},
		{"T-12", "ht", "sosp17"},
		{"T-13", "ht", "sosp17"},
		{"Erik", "li", "T-13"},
	} {
		out = append(out, rdf.T(tr[0], tr[1], tr[2]))
	}
	return out
}

// figure1Engine builds an engine loaded with Fig. 1's stored data and both
// streams registered (100 ms batches).
func figure1Engine(t testing.TB, nodes int) (*Engine, *stream.Source, *stream.Source) {
	t.Helper()
	e, err := New(Config{Nodes: nodes, WorkersPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	e.LoadTriples(xlab())
	tweets, err := e.RegisterStream(stream.Config{
		Name:             "Tweet_Stream",
		BatchInterval:    100 * time.Millisecond,
		TimingPredicates: []string{"ga"},
	})
	if err != nil {
		t.Fatal(err)
	}
	likes, err := e.RegisterStream(stream.Config{
		Name:          "Like_Stream",
		BatchInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tweets, likes
}

// emit is a tuple-emission helper with fatal error checking.
func emit(t testing.TB, src *stream.Source, ts rdf.Timestamp, s, p, o string) {
	t.Helper()
	if err := src.Emit(rdf.Tuple{Triple: rdf.T(s, p, o), TS: ts}); err != nil {
		t.Fatal(err)
	}
}

// collector accumulates continuous-query results thread-safely.
type collector struct {
	mu    sync.Mutex
	fires []FireInfo
	rows  []string
}

func (c *collector) cb(r *Result, f FireInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fires = append(c.fires, f)
	c.rows = append(c.rows, r.Strings()...)
}

func (c *collector) allRows() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.rows...)
}

func (c *collector) fireCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fires)
}

func TestEndToEndFigure2(t *testing.T) {
	e, tweets, likes := figure1Engine(t, 4)
	var col collector
	cq, err := e.RegisterContinuous(qcText, col.cb)
	if err != nil {
		t.Fatal(err)
	}
	if cq.Name != "QC" {
		t.Errorf("Name = %q", cq.Name)
	}

	// The paper's timeline, scaled: Logan posts T-15, Erik likes it.
	emit(t, tweets, 200, "Logan", "po", "T-15")
	emit(t, tweets, 200, "T-15", "ga", "pos-31-121")
	emit(t, likes, 600, "Erik", "li", "T-15")
	e.AdvanceTo(1000) // first window boundary

	rows := col.allRows()
	found := false
	for _, r := range rows {
		if r == "Logan Erik T-15" {
			found = true
		}
	}
	if !found {
		t.Errorf("QC rows = %v, want to contain %q", rows, "Logan Erik T-15")
	}
	if col.fireCount() != 1 {
		t.Errorf("fires = %d, want 1", col.fireCount())
	}
}

func TestContinuousWindowSlides(t *testing.T) {
	e, tweets, likes := figure1Engine(t, 2)
	var col collector
	_, err := e.RegisterContinuous(`
REGISTER QUERY slide AS
SELECT ?X ?Z
FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } }`, col.cb)
	if err != nil {
		t.Fatal(err)
	}
	_ = likes
	emit(t, tweets, 100, "Logan", "po", "T-20")
	e.AdvanceTo(1000)
	emit(t, tweets, 1500, "Erik", "po", "T-21")
	e.AdvanceTo(2000)
	e.AdvanceTo(3000) // window (2s,3s] is empty

	if col.fireCount() != 3 {
		t.Fatalf("fires = %d, want 3", col.fireCount())
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.fires[0].Rows != 1 || col.fires[1].Rows != 1 || col.fires[2].Rows != 0 {
		t.Errorf("rows per fire = %d,%d,%d; want 1,1,0",
			col.fires[0].Rows, col.fires[1].Rows, col.fires[2].Rows)
	}
	if col.rows[0] != "Logan T-20" || col.rows[1] != "Erik T-21" {
		t.Errorf("rows = %v", col.rows)
	}
}

func TestOneShotSeesAbsorbedTimelessData(t *testing.T) {
	e, tweets, likes := figure1Engine(t, 4)
	// Before any stream data: QS returns T-13 only.
	res, err := e.Query(qsText)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Strings(); len(got) != 1 || got[0] != "T-13" {
		t.Errorf("QS = %v, want [T-13]", got)
	}

	// Logan posts T-15 with the hashtag; Erik likes it. After the batches
	// become stable, QS includes T-15: the store evolved.
	emit(t, tweets, 100, "Logan", "po", "T-15")
	emit(t, tweets, 110, "T-15", "ht", "sosp17")
	emit(t, likes, 150, "Erik", "li", "T-15")
	e.AdvanceTo(300)

	res, err = e.Query(qsText)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, s := range res.Strings() {
		got[s] = true
	}
	if !got["T-13"] || !got["T-15"] || len(got) != 2 {
		t.Errorf("QS after absorption = %v, want T-13 and T-15", got)
	}
}

func TestTimingDataNeverReachesOneShot(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	emit(t, tweets, 100, "Logan", "po", "T-15")
	emit(t, tweets, 120, "T-15", "ga", "pos-1")
	e.AdvanceTo(300)
	res, err := e.Query(`SELECT ?P WHERE { T-15 ga ?P }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("one-shot saw timing data: %v", res.Strings())
	}
}

func TestQueryRejectsContinuous(t *testing.T) {
	e, _, _ := figure1Engine(t, 1)
	if _, err := e.Query(qcText); err == nil {
		t.Error("one-shot Query accepted a continuous query")
	}
}

func TestRegisterContinuousValidation(t *testing.T) {
	e, _, _ := figure1Engine(t, 2)
	// One-shot text rejected.
	if _, err := e.RegisterContinuous(qsText, nil); err == nil {
		t.Error("RegisterContinuous accepted a one-shot query")
	}
	// Unknown stream rejected.
	_, err := e.RegisterContinuous(`
SELECT ?X FROM STREAM <NoSuch> [RANGE 1s STEP 1s]
WHERE { GRAPH STREAM <NoSuch> { ?X po ?Y } }`, nil)
	if err == nil || !strings.Contains(err.Error(), "unregistered stream") {
		t.Errorf("err = %v", err)
	}
	// Window not aligned to the batch interval rejected.
	_, err = e.RegisterContinuous(`
SELECT ?X FROM Tweet_Stream [RANGE 150ms STEP 100ms]
WHERE { GRAPH Tweet_Stream { ?X po ?Y } }`, nil)
	if err == nil || !strings.Contains(err.Error(), "multiple") {
		t.Errorf("err = %v", err)
	}
	// Duplicate name rejected.
	if _, err := e.RegisterContinuous(qcText, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterContinuous(qcText, nil); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestStreamIndexReplicatedToQueryHome(t *testing.T) {
	e, _, _ := figure1Engine(t, 4)
	cq, err := e.RegisterContinuous(qcText, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := e.streamOf("Tweet_Stream")
	if !ok {
		t.Fatal("stream missing")
	}
	if !st.index.ReplicatedOn(cq.Home()) {
		t.Error("stream index not replicated to the query's home node")
	}
}

func TestGCReclaimsExpiredWindows(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	_, err := e.RegisterContinuous(`
REGISTER QUERY g AS
SELECT ?X ?Z FROM Tweet_Stream [RANGE 500ms STEP 500ms]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		emit(t, tweets, rdf.Timestamp(i*100+10), "Logan", "po", fmt.Sprintf("T-%d", 100+i))
	}
	e.AdvanceTo(5000)
	st, _ := e.streamOf("Tweet_Stream")
	oldest, newest := st.index.Batches()
	if newest-oldest > 10 {
		t.Errorf("stream index retains %d batches; GC lagging", newest-oldest)
	}
	if st.index.Counters().GCRuns == 0 {
		t.Error("stream index never GCed")
	}
}

func TestInjectionStatsAccumulate(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	emit(t, tweets, 10, "Logan", "po", "T-15")
	emit(t, tweets, 20, "T-15", "ga", "p1")
	e.AdvanceTo(100)
	stats, batches, err := e.InjectionStats("Tweet_Stream")
	if err != nil {
		t.Fatal(err)
	}
	if stats.TimelessTuples != 1 || stats.TimingTuples != 1 || batches != 1 {
		t.Errorf("stats = %+v, batches = %d", stats, batches)
	}
	if _, _, err := e.InjectionStats("nope"); err == nil {
		t.Error("unknown stream accepted")
	}
	if _, err := e.StreamIndexBytes("Tweet_Stream"); err != nil {
		t.Error(err)
	}
}

func TestAdvanceToIdempotentAndMonotonic(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	emit(t, tweets, 10, "Logan", "po", "T-15")
	e.AdvanceTo(200)
	e.AdvanceTo(100) // going backwards is a no-op
	e.AdvanceTo(200) // repeat is a no-op
	if e.Now() != 200 {
		t.Errorf("Now = %d", e.Now())
	}
}

func TestContinuousQueryStats(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	cq, err := e.RegisterContinuous(`
REGISTER QUERY s AS
SELECT ?X ?Z FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	emit(t, tweets, 100, "Logan", "po", "T-15")
	e.AdvanceTo(3000)
	st := cq.Stats()
	if st.Executions != 3 {
		t.Errorf("Executions = %d, want 3", st.Executions)
	}
	if st.TotalRows != 1 {
		t.Errorf("TotalRows = %d, want 1", st.TotalRows)
	}
	if st.MedianLat <= 0 || st.P99Lat < st.MedianLat {
		t.Errorf("latencies: %+v", st)
	}
	if len(cq.Latencies()) != 3 {
		t.Errorf("Latencies len = %d", len(cq.Latencies()))
	}
}

func TestUnregisterStopsFiring(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	var col collector
	cq, err := e.RegisterContinuous(`
REGISTER QUERY u AS
SELECT ?X ?Z FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } }`, col.cb)
	if err != nil {
		t.Fatal(err)
	}
	emit(t, tweets, 100, "Logan", "po", "T-15")
	e.AdvanceTo(1000)
	e.Unregister(cq.Name)
	emit(t, tweets, 1100, "Logan", "po", "T-16")
	e.AdvanceTo(2000)
	if col.fireCount() != 1 {
		t.Errorf("fires after unregister = %d, want 1", col.fireCount())
	}
}

func TestExecuteNow(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	cq, err := e.RegisterContinuous(`
REGISTER QUERY n AS
SELECT ?X ?Z FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	emit(t, tweets, 100, "Logan", "po", "T-15")
	e.AdvanceTo(1000)
	res, lat, err := cq.ExecuteNow()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || lat <= 0 {
		t.Errorf("ExecuteNow = %v rows, %v", res.Len(), lat)
	}
}

func TestMultipleStreamsDifferentIntervals(t *testing.T) {
	e, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fast, err := e.RegisterStream(stream.Config{Name: "fast", BatchInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.RegisterStream(stream.Config{Name: "slow", BatchInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var col collector
	_, err = e.RegisterContinuous(`
REGISTER QUERY multi AS
SELECT ?A ?B
FROM fast [RANGE 1s STEP 1s]
FROM slow [RANGE 2s STEP 1s]
WHERE {
  GRAPH fast { ?A p1 ?X }
  GRAPH slow { ?X p2 ?B }
}`, col.cb)
	if err != nil {
		t.Fatal(err)
	}
	emit(t, fast, 150, "a", "p1", "x")
	emit(t, slow, 500, "x", "p2", "b")
	e.AdvanceTo(1000)
	rows := col.allRows()
	if len(rows) != 1 || rows[0] != "a b" {
		t.Errorf("rows = %v, want [a b]", rows)
	}
}

func TestOneShotLatencyAndTraceRecorded(t *testing.T) {
	e, _, _ := figure1Engine(t, 2)
	res, err := e.Query(qsText)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 || res.Trace == nil || len(res.Trace.Steps) == 0 {
		t.Errorf("latency/trace missing: %v %v", res.Latency, res.Trace)
	}
}

func TestForkJoinPlanMatchesInPlace(t *testing.T) {
	run := func(planMode, query string) []string {
		// ForkThreshold 1: the xlab tables are a few rows, below the default
		// threshold, and fork-join must really scatter to be compared.
		e, err := New(Config{Nodes: 4, PlanMode: planMode, ForkThreshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.LoadTriples(xlab())
		res, err := e.Query(query)
		if err != nil {
			t.Errorf("%s: %s: %v", planMode, query, err)
			return nil
		}
		res.Sort()
		return res.Strings()
	}
	for _, q := range []string{
		`SELECT ?X ?Y WHERE { ?X po ?Y . ?Y ht sosp17 }`,
		// A variable predicate: each partition's traversal adds ?R's
		// column, and so must the gathered table, projected or not, with
		// ?R already bound, and with ?Y bound (a check).
		`SELECT ?X ?R ?Y WHERE { ?X ty X-Men . ?X ?R ?Y }`,
		`SELECT ?X ?Y WHERE { ?X ty X-Men . ?X ?R ?Y }`,
		`SELECT ?X ?R ?Y ?Z WHERE { ?X ty X-Men . ?X ?R ?Y . ?Y ?R ?Z }`,
		`SELECT ?X ?R ?Y WHERE { ?X ty X-Men . ?Y ty X-Men . ?X ?R ?Y }`,
	} {
		a, b := run(PlanModeInPlace, q), run(PlanModeForkJoin, q)
		if len(a) == 0 || !slices.Equal(a, b) {
			t.Errorf("%s\nin-place  %q\nfork-join %q", q, a, b)
		}
	}
}

func TestPrefixIntegrityUnderConcurrentReads(t *testing.T) {
	// One-shot queries running concurrently with injection must always see
	// a consistent prefix: for each tweet T-k, if "Logan po T-k" is visible
	// then all earlier tweets T-j (j<k) are visible too (batches of one
	// stream become visible in order).
	e, tweets, _ := figure1Engine(t, 4)
	const total = 30
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			emit(t, tweets, rdf.Timestamp(i*100+10), "Logan", "po", fmt.Sprintf("TS-%03d", i))
			e.AdvanceTo(rdf.Timestamp((i + 1) * 100))
		}
	}()
	q := `SELECT ?X WHERE { Logan po ?X }`
	for {
		select {
		case <-done:
			return
		default:
		}
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		maxIdx := -1
		for _, s := range res.Strings() {
			if strings.HasPrefix(s, "TS-") {
				seen[s] = true
				var idx int
				fmt.Sscanf(s, "TS-%03d", &idx)
				if idx > maxIdx {
					maxIdx = idx
				}
			}
		}
		for j := 0; j <= maxIdx; j++ {
			if !seen[fmt.Sprintf("TS-%03d", j)] {
				t.Fatalf("prefix violated: TS-%03d visible but TS-%03d missing", maxIdx, j)
			}
		}
	}
}

func TestRecompileOnLateConstant(t *testing.T) {
	// A continuous query referencing an entity that first appears in the
	// stream must start returning results once the entity exists.
	e, tweets, _ := figure1Engine(t, 2)
	var col collector
	_, err := e.RegisterContinuous(`
REGISTER QUERY late AS
SELECT ?Z FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE { GRAPH Tweet_Stream { NewUser po ?Z } }`, col.cb)
	if err != nil {
		t.Fatal(err)
	}
	e.AdvanceTo(1000) // fires empty (NewUser unknown)
	emit(t, tweets, 1100, "NewUser", "po", "T-99")
	e.AdvanceTo(2000)
	rows := col.allRows()
	if len(rows) != 1 || rows[0] != "T-99" {
		t.Errorf("rows = %v, want [T-99]", rows)
	}
}

// TestCloseDuringAdvanceReturns: Close may land while AdvanceTo is injecting.
// Every share the closed cluster refuses must still be released, or the tick
// would wait forever in injectBatch — both calls have to return, and a tick
// driven entirely after Close (every submission refused) has to as well.
func TestCloseDuringAdvanceReturns(t *testing.T) {
	finish := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not return", what)
		}
	}
	for round := 0; round < 20; round++ {
		e, tweets, likes := figure1Engine(t, 3)
		if _, err := e.RegisterContinuous(qcText, func(*Result, FireInfo) {}); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 40; b++ {
			ts := rdf.Timestamp(b*100 + 50)
			emit(t, tweets, ts, "Logan", "po", fmt.Sprintf("T-%d", 100+b))
			emit(t, likes, ts, "Erik", "li", fmt.Sprintf("T-%d", 100+b))
		}
		advanced := make(chan struct{})
		go func() { defer close(advanced); e.AdvanceTo(4000) }()
		finish("Close racing AdvanceTo", e.Close)
		finish("AdvanceTo racing Close", func() { <-advanced })
		emit(t, tweets, 4050, "Logan", "po", "T-late")
		finish("AdvanceTo after Close", func() { e.AdvanceTo(4100) })
	}
}

// TestLatencyHistoryIsBounded pins the ring: a query that has fired more than
// latRing times remembers exactly the newest latRing latencies, oldest first,
// and Stats' percentiles cover those.
func TestLatencyHistoryIsBounded(t *testing.T) {
	cq := &ContinuousQuery{}
	const extra = 10
	for i := 0; i < latRing+extra; i++ {
		cq.recordLatLocked(time.Duration(i))
	}
	lats := cq.Latencies()
	if len(lats) != latRing {
		t.Fatalf("Latencies() holds %d, want %d", len(lats), latRing)
	}
	for i, l := range lats {
		if want := time.Duration(extra + i); l != want {
			t.Fatalf("Latencies()[%d] = %d, want %d (oldest first, the first %d overwritten)", i, l, want, extra)
		}
	}
	if len(cq.lats) != latRing || cap(cq.lats) > 2*latRing {
		t.Errorf("backing slice len %d cap %d, want a fixed ring of %d", len(cq.lats), cap(cq.lats), latRing)
	}
	st := cq.Stats()
	if want := time.Duration(extra + latRing/2); st.MedianLat != want {
		t.Errorf("MedianLat = %d, want %d (the median of the ring)", st.MedianLat, want)
	}
}

// TestRegisterStreamCopiesWhatItKeeps: the line-protocol handler hands
// RegisterStream slices of a request line in an argument slice it reuses, and
// the engine keeps the config for its whole life — so the name and the
// predicate lists must be copies, bytes and slice both.
func TestRegisterStreamCopiesWhatItKeeps(t *testing.T) {
	e, err := New(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	line := strings.Repeat("#", 1<<20) + "S1 ga gb"
	args := strings.Fields(line[1<<20:])
	src, err := e.RegisterStream(stream.Config{Name: args[0], BatchInterval: 100 * time.Millisecond, TimingPredicates: args[1:]})
	if err != nil {
		t.Fatal(err)
	}
	args[1], args[2] = "overwritten", "too"
	kept := e.StreamConfigsOrdered()[0]
	if kept.Name != "S1" || len(kept.TimingPredicates) != 2 || kept.TimingPredicates[0] != "ga" || kept.TimingPredicates[1] != "gb" {
		t.Errorf("kept config = %q %q, want S1 [ga gb]", kept.Name, kept.TimingPredicates)
	}
	inLine := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(line)))
		return p >= lo && p < lo+uintptr(len(line))
	}
	for _, s := range append([]string{kept.Name, src.Name()}, kept.TimingPredicates...) {
		if inLine(s) {
			t.Errorf("kept string %q points into the request line", s)
		}
	}
	for _, iri := range e.StringServer().PredicateIRIs() {
		if inLine(iri) {
			t.Errorf("interned predicate %q points into the request line", iri)
		}
	}
}
