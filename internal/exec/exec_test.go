package exec

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sindex"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/strserver"
	"repro/internal/tstore"
)

// fixture reproduces the paper's Fig. 1 dataset: the X-Lab stored graph plus
// a Tweet_Stream and Like_Stream window.
type fixture struct {
	fab     *fabric.Fabric
	cluster *fabric.Cluster
	ss      *strserver.Server
	stored  *store.Sharded
	tweetIx *sindex.Index
	likeIx  *sindex.Index
	tweetTS []*tstore.Store
	likeTS  []*tstore.Store
	ex      *Executor
}

func (f *fixture) id(name string) rdf.ID { return f.ss.InternEntity(rdf.NewIRI(name)) }

// pred interns a predicate; a fixture's handful always fits the space.
func (f *fixture) pred(iri string) rdf.ID {
	id, _ := f.ss.InternPredicate(iri)
	return id
}

func newFixture(t testing.TB, nodes int) *fixture {
	t.Helper()
	f := &fixture{
		fab: fabric.New(fabric.DefaultConfig(nodes)),
		ss:  strserver.New(),
	}
	f.cluster = fabric.NewCluster(f.fab, 2)
	t.Cleanup(f.cluster.Close)
	f.stored = store.NewSharded(f.fab, 0)
	f.ex = New(f.cluster)
	f.tweetIx = sindex.New(0)
	f.likeIx = sindex.New(0)
	for n := 0; n < nodes; n++ {
		f.tweetIx.Replicate(fabric.NodeID(n))
		f.likeIx.Replicate(fabric.NodeID(n))
		f.tweetTS = append(f.tweetTS, tstore.New(0))
		f.likeTS = append(f.likeTS, tstore.New(0))
	}

	// Stored data (X-Lab).
	for _, tr := range [][3]string{
		{"Logan", "fo", "Erik"},
		{"Erik", "fo", "Logan"},
		{"Logan", "po", "T-13"},
		{"Logan", "po", "T-14"},
		{"Erik", "po", "T-12"},
		{"T-12", "ht", "sosp17"},
		{"T-13", "ht", "sosp17"},
		{"Erik", "li", "T-13"},
	} {
		f.stored.Insert(f.enc(tr), store.BaseSN, false, nil)
	}

	// Stream batch 1: Logan posts T-15 (timeless, into the store + index);
	// T-15 carries a GPS position (timing, into the transient store).
	var spans []store.KeySpan
	f.stored.Insert(f.enc([3]string{"Logan", "po", "T-15"}), 1, false, &spans)
	for _, ks := range spans {
		f.tweetIx.AddBatch(1, []store.KeySpan{ks})
	}
	gps := f.id("pos-31-121")
	t15 := f.id("T-15")
	ga := f.pred("ga")
	home := f.stored.HomeOf(t15)
	f.tweetTS[home].Append(1, []tstore.Pair{{Key: store.EdgeKey(t15, ga, store.Out).Ord(), Val: gps}})

	// Stream batch 2 on Like_Stream: Erik likes T-15.
	spans = spans[:0]
	f.stored.Insert(f.enc([3]string{"Erik", "li", "T-15"}), 1, false, &spans)
	for _, ks := range spans {
		f.likeIx.AddBatch(2, []store.KeySpan{ks})
	}
	return f
}

func (f *fixture) enc(tr [3]string) strserver.EncodedTriple {
	return strserver.EncodedTriple{
		S: f.id(tr[0]),
		P: f.pred(tr[1]),
		O: f.id(tr[2]),
	}
}

// provider implements Provider over the fixture.
type provider struct{ f *fixture }

func (p provider) Access(g sparql.GraphRef) (Access, error) {
	switch {
	case g.Kind != sparql.StreamGraph:
		return StoredAccess{Store: p.f.stored, SN: 1}, nil
	case g.Name == "Tweet_Stream":
		return WindowAccess{Store: p.f.stored, Index: p.f.tweetIx, Transients: p.f.tweetTS, From: 1, To: 10}, nil
	case g.Name == "Like_Stream":
		return WindowAccess{Store: p.f.stored, Index: p.f.likeIx, Transients: p.f.likeTS, From: 1, To: 10}, nil
	default:
		return nil, fmt.Errorf("unknown stream %q", g.Name)
	}
}

// statsAdapter adapts the sharded store to plan.StatsProvider.
type statsAdapter struct{ f *fixture }

func (s statsAdapter) PredStats(pid rdf.ID) (int64, int64, int64) {
	return s.f.stored.Stats(pid)
}
func (s statsAdapter) WindowFraction(g sparql.GraphRef) float64 {
	if g.Kind == sparql.StreamGraph {
		return 0.3
	}
	return 1
}

func (f *fixture) run(t testing.TB, src string, mode Mode) *ResultSet {
	t.Helper()
	q := sparql.MustParse(src)
	p, err := plan.Compile(q, f.ss, statsAdapter{f})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := f.ex.Execute(Request{Node: 0, Mode: mode, Access: provider{f}, Resolver: f.ss}, p)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// names decodes a result column to entity names for assertion.
func (f *fixture) names(rs *ResultSet, col int) []string {
	var out []string
	for ri := 0; ri < rs.Len(); ri++ {
		row := rowOf(rs, ri)
		term, ok := f.ss.Entity(row[col].ID)
		if !ok {
			out = append(out, "?")
			continue
		}
		out = append(out, term.Value)
	}
	return out
}

func TestOneShotFigure2(t *testing.T) {
	f := newFixture(t, 4)
	// QS: tweets posted by Logan, tagged sosp17, liked by Erik → T-13.
	rs := f.run(t, `SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 . Erik li ?X }`, InPlace)
	if got := f.names(rs, 0); len(got) != 1 || got[0] != "T-13" {
		t.Errorf("QS = %v, want [T-13]", got)
	}
}

func TestContinuousFigure2(t *testing.T) {
	f := newFixture(t, 4)
	// QC: ?X posts ?Z in Tweet_Stream, ?X follows ?Y (stored), ?Y likes ?Z
	// in Like_Stream → Logan Erik T-15.
	rs := f.run(t, `
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  ?X fo ?Y .
  GRAPH Like_Stream { ?Y li ?Z }
}`, InPlace)
	if rs.Len() != 1 {
		t.Fatalf("QC rows = %d, want 1\n%s", rs.Len(), rs)
	}
	x, _ := f.ss.Entity(rs.Cell(0, 0).ID)
	y, _ := f.ss.Entity(rs.Cell(0, 1).ID)
	z, _ := f.ss.Entity(rs.Cell(0, 2).ID)
	if x.Value != "Logan" || y.Value != "Erik" || z.Value != "T-15" {
		t.Errorf("QC = %s %s %s, want Logan Erik T-15", x.Value, y.Value, z.Value)
	}
}

func TestWindowExcludesStoredData(t *testing.T) {
	f := newFixture(t, 4)
	// Only T-15 was posted within the stream window; T-13/T-14 are stored.
	rs := f.run(t, `
SELECT ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE { GRAPH Tweet_Stream { Logan po ?Z } }`, InPlace)
	if got := f.names(rs, 0); len(got) != 1 || got[0] != "T-15" {
		t.Errorf("window result = %v, want [T-15]", got)
	}
}

func TestStoredSnapshotIncludesAbsorbedStream(t *testing.T) {
	f := newFixture(t, 4)
	// One-shot at SN 1 sees the absorbed timeless tuple (Logan po T-15).
	rs := f.run(t, `SELECT ?Z WHERE { Logan po ?Z }`, InPlace)
	got := map[string]bool{}
	for _, n := range f.names(rs, 0) {
		got[n] = true
	}
	if !got["T-13"] || !got["T-14"] || !got["T-15"] {
		t.Errorf("snapshot read = %v, want T-13,T-14,T-15", got)
	}
}

func TestTimingDataViaTransient(t *testing.T) {
	f := newFixture(t, 4)
	rs := f.run(t, `
SELECT ?P
FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE { GRAPH Tweet_Stream { T-15 ga ?P } }`, InPlace)
	if got := f.names(rs, 0); len(got) != 1 || got[0] != "pos-31-121" {
		t.Errorf("timing data = %v", got)
	}
	// Timing data is NOT in the persistent store (one-shot sees nothing).
	rs = f.run(t, `SELECT ?P WHERE { T-15 ga ?P }`, InPlace)
	if rs.Len() != 0 {
		t.Errorf("timing data leaked into the persistent store: %s", rs)
	}
}

func TestForkJoinMatchesInPlace(t *testing.T) {
	f := newFixture(t, 4)
	queries := []string{
		`SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 . Erik li ?X }`,
		`SELECT ?X ?Y WHERE { ?X po ?Y }`,
		`SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } . ?X fo ?Y . GRAPH Like_Stream { ?Y li ?Z } }`,
	}
	for _, src := range queries {
		a := f.run(t, src, InPlace)
		b := f.run(t, src, ForkJoin)
		a.Sort()
		b.Sort()
		if a.String() != b.String() {
			t.Errorf("mode mismatch for %q:\nin-place:\n%s\nfork-join:\n%s", src, a, b)
		}
	}
}

func TestIndexSeedEnumeratesAll(t *testing.T) {
	f := newFixture(t, 4)
	rs := f.run(t, `SELECT ?X ?Y WHERE { ?X po ?Y }`, InPlace)
	if rs.Len() != 4 { // T-12..T-15
		t.Errorf("po edges = %d, want 4\n%s", rs.Len(), rs)
	}
}

func TestFilterNumeric(t *testing.T) {
	f := newFixture(t, 2)
	speed := f.pred("speed")
	for i, v := range []int64{10, 50, 90} {
		car := f.id(fmt.Sprintf("car%d", i))
		val := f.ss.InternEntity(rdf.NewIntLiteral(v))
		f.stored.Insert(strserver.EncodedTriple{S: car, P: speed, O: val}, store.BaseSN, false, nil)
	}
	rs := f.run(t, `SELECT ?c ?v WHERE { ?c speed ?v . FILTER (?v > 30 && ?v < 80) }`, InPlace)
	if got := f.names(rs, 0); len(got) != 1 || got[0] != "car1" {
		t.Errorf("filtered = %v, want [car1]", got)
	}
}

func TestFilterEqualityAndNot(t *testing.T) {
	f := newFixture(t, 2)
	rs := f.run(t, `SELECT ?X WHERE { Logan po ?X . FILTER (!(?X = T-13)) }`, InPlace)
	for _, n := range f.names(rs, 0) {
		if n == "T-13" {
			t.Error("negated equality kept T-13")
		}
	}
	rs = f.run(t, `SELECT ?X WHERE { Logan po ?X . FILTER (?X = T-13 || ?X = T-14) }`, InPlace)
	if rs.Len() != 2 {
		t.Errorf("OR filter rows = %d, want 2", rs.Len())
	}
	// Unknown constant in filter: equality never holds.
	rs = f.run(t, `SELECT ?X WHERE { Logan po ?X . FILTER (?X = GhostEntity) }`, InPlace)
	if rs.Len() != 0 {
		t.Errorf("unknown-constant filter rows = %d, want 0", rs.Len())
	}
}

func TestAggregates(t *testing.T) {
	f := newFixture(t, 2)
	speed := f.pred("speed")
	road := f.pred("road")
	r1 := f.id("road1")
	for i, v := range []int64{10, 20, 60} {
		obs := f.id(fmt.Sprintf("obs%d", i))
		val := f.ss.InternEntity(rdf.NewIntLiteral(v))
		f.stored.Insert(strserver.EncodedTriple{S: obs, P: speed, O: val}, store.BaseSN, false, nil)
		f.stored.Insert(strserver.EncodedTriple{S: obs, P: road, O: r1}, store.BaseSN, false, nil)
	}
	rs := f.run(t, `
SELECT ?r (AVG(?v) AS ?avg) (COUNT(*) AS ?n) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SUM(?v) AS ?sum)
WHERE { ?o road ?r . ?o speed ?v }
GROUP BY ?r`, InPlace)
	if rs.Len() != 1 {
		t.Fatalf("groups = %d\n%s", rs.Len(), rs)
	}
	row := rowOf(rs, 0)
	if row[1].Num != 30 || row[2].Num != 3 || row[3].Num != 10 || row[4].Num != 60 || row[5].Num != 90 {
		t.Errorf("aggregates = %v", row)
	}
	if name, _ := f.ss.Entity(row[0].ID); name.Value != "road1" {
		t.Errorf("group key = %v", name)
	}
}

func TestDistinctAndLimit(t *testing.T) {
	f := newFixture(t, 2)
	rs := f.run(t, `SELECT DISTINCT ?X WHERE { ?X po ?Y }`, InPlace)
	if rs.Len() != 2 { // Logan, Erik
		t.Errorf("distinct posters = %d, want 2\n%s", rs.Len(), rs)
	}
	rs = f.run(t, `SELECT ?X WHERE { ?X po ?Y } LIMIT 2`, InPlace)
	if rs.Len() != 2 {
		t.Errorf("limited rows = %d, want 2", rs.Len())
	}
}

func TestEmptyPlanShortCircuits(t *testing.T) {
	f := newFixture(t, 2)
	f.fab.ResetStats()
	rs := f.run(t, `SELECT ?X WHERE { NonExistentEntity po ?X }`, InPlace)
	if rs.Len() != 0 {
		t.Errorf("rows = %d", rs.Len())
	}
	if f.fab.Stats().RDMAReads != 0 {
		t.Error("empty plan touched the network")
	}
}

func TestTraceRecordsSteps(t *testing.T) {
	f := newFixture(t, 2)
	q := sparql.MustParse(`SELECT ?X WHERE { Logan po ?X . Erik li ?X }`)
	p, err := plan.Compile(q, f.ss, statsAdapter{f})
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := f.ex.Execute(Request{Node: 0, Mode: InPlace, Access: provider{f}, Resolver: f.ss}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Steps) != len(p.Steps) {
		t.Errorf("trace has %d steps, plan has %d", len(trace.Steps), len(p.Steps))
	}
	if trace.Total <= 0 {
		t.Error("no total time recorded")
	}
}

func TestSelfLoopPattern(t *testing.T) {
	f := newFixture(t, 2)
	selfp := f.pred("self")
	a := f.id("selfnode")
	f.stored.Insert(strserver.EncodedTriple{S: a, P: selfp, O: a}, store.BaseSN, false, nil)
	b := f.id("othernode")
	f.stored.Insert(strserver.EncodedTriple{S: b, P: selfp, O: a}, store.BaseSN, false, nil)
	rs := f.run(t, `SELECT ?X WHERE { ?X self ?X }`, InPlace)
	if got := f.names(rs, 0); len(got) != 1 || got[0] != "selfnode" {
		t.Errorf("self loops = %v", got)
	}
}

func TestResultSetSortDeterministic(t *testing.T) {
	rs := ResultOf([]string{"a"},
		[]Value{{ID: 3}}, []Value{{ID: 1}}, []Value{{Num: 2.5, IsNum: true}}, []Value{{ID: 2}},
	)
	rs.Sort()
	if rs.Cell(0, 0).IsNum || rs.Cell(0, 0).ID != 1 {
		t.Errorf("sorted = %v", rs)
	}
	if !rs.Cell(3, 0).IsNum {
		t.Error("numeric row should sort last")
	}
}

// TestCheckCountsRepeatedEdges: a Check keeps a row once per matching edge,
// as an Expand emits one row per edge, so a stored graph that holds a triple
// twice keeps the row twice — in place and fork-join, with a fixed and a
// variable predicate.
func TestCheckCountsRepeatedEdges(t *testing.T) {
	f := newFixture(t, 4)
	f.stored.Insert(f.enc([3]string{"Logan", "fo", "Erik"}), store.BaseSN, false, nil) // now twice
	logan, erik, fo := f.id("Logan"), f.id("Erik"), f.pred("fo")
	in := &Table{Vars: []string{"x", "y"}}
	for _, row := range [][]rdf.ID{{logan, erik}, {erik, logan}, {logan, logan}} {
		in.AppendRow(row)
	}
	x, y := plan.Endpoint{Var: "x"}, plan.Endpoint{Var: "y"}
	for _, c := range []struct {
		name string
		st   plan.Step
		want int
	}{
		{"fixed", plan.Step{Kind: plan.Check, Pid: fo, From: x, To: y, Dir: store.Out}, 3},
		{"constant", plan.Step{Kind: plan.Check, Pid: fo, From: x, To: plan.Endpoint{Const: erik}, Dir: store.Out}, 4},
		{"variable", plan.Step{Kind: plan.Check, PVar: "r", From: x, To: y, Dir: store.Out}, 3},
	} {
		for _, mode := range []Mode{InPlace, ForkJoin} {
			out, err := f.ex.ApplySteps(Request{Node: 0, Mode: mode, Access: provider{f}, Resolver: f.ss, ForkThreshold: 1},
				[]plan.Step{c.st}, in)
			if err != nil {
				t.Fatal(err)
			}
			counts := map[[2]rdf.ID]int{}
			for i := 0; i < out.Len(); i++ {
				r := out.Row(i)
				counts[[2]rdf.ID{r[0], r[1]}]++
			}
			if out.Len() != c.want || counts[[2]rdf.ID{logan, erik}] != 2 {
				t.Errorf("%s/%v: %d rows %v, want %d with (Logan, Erik) twice", c.name, mode, out.Len(), counts, c.want)
			}
		}
	}
}
