package wukongext

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// must unwraps an encoding the test's few predicates always fit.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func fixture(t *testing.T, nodes int) (*System, *strserver.Server) {
	t.Helper()
	ss := strserver.New()
	fab := fabric.New(fabric.DefaultConfig(nodes))
	s := NewSystem(fab, ss, 2)
	t.Cleanup(s.Close)
	var base []strserver.EncodedTriple
	for _, tr := range [][3]string{
		{"Logan", "fo", "Erik"},
		{"Logan", "po", "T-13"},
		{"Erik", "li", "T-13"},
	} {
		base = append(base, must(ss.EncodeTriple(rdf.T(tr[0], tr[1], tr[2]))))
	}
	s.LoadBase(base)
	s.Inject([]strserver.EncodedTuple{
		must(ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("Logan", "po", "T-15"), TS: 802})),
		must(ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("Erik", "li", "T-15"), TS: 806})),
	})
	return s, ss
}

func TestWindowedContinuous(t *testing.T) {
	s, ss := fixture(t, 4)
	q := sparql.MustParse(`
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  ?X fo ?Y .
  GRAPH Like_Stream { ?Y li ?Z }
}`)
	rs, lat, err := s.ExecuteContinuous(q, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Error("no latency")
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
	x, _ := ss.Entity(rs.Cell(0, 0).ID)
	z, _ := ss.Entity(rs.Cell(0, 2).ID)
	if x.Value != "Logan" || z.Value != "T-15" {
		t.Errorf("row = %v %v", x, z)
	}
}

func TestWindowFiltersByTimestamp(t *testing.T) {
	s, _ := fixture(t, 2)
	q := sparql.MustParse(`
SELECT ?Z FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE { GRAPH Tweet_Stream { Logan po ?Z } }`)
	// Window (99000,100000]: the tuple at 802 is outside.
	rs, _, err := s.ExecuteContinuous(q, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Errorf("rows = %d, want 0", rs.Len())
	}
	// Window (0,1000] includes it.
	rs, _, err = s.ExecuteContinuous(q, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Errorf("rows = %d, want 1", rs.Len())
	}
}

func TestOneShotSeesEverything(t *testing.T) {
	// Unlike the composite and Spark baselines, Wukong/Ext is stateful:
	// absorbed stream data reaches one-shot queries (but so do timestamps
	// it can never GC).
	s, ss := fixture(t, 2)
	q := sparql.MustParse(`SELECT ?Z WHERE { Logan po ?Z }`)
	rs, _, err := s.QueryOneShot(q)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for ri := 0; ri < rs.Len(); ri++ {
		term, _ := ss.Entity(rs.Cell(ri, 0).ID)
		got[term.Value] = true
	}
	if !got["T-13"] || !got["T-15"] {
		t.Errorf("one-shot = %v", got)
	}
}

func TestMemoryGrowsWithoutGC(t *testing.T) {
	s, ss := fixture(t, 2)
	before := s.Store().MemoryBytes()
	var tuples []strserver.EncodedTuple
	for i := 0; i < 100; i++ {
		tuples = append(tuples, must(ss.EncodeTuple(rdf.Tuple{
			Triple: rdf.T("Logan", "po", "T-13"), TS: rdf.Timestamp(1000 + i),
		})))
	}
	s.Inject(tuples)
	after := s.Store().MemoryBytes()
	// 100 duplicate tuples × 2 directions × 16 bytes: nothing is deduped or
	// collected, and each value drags its timestamp along.
	if after-before < 100*2*16 {
		t.Errorf("memory grew by %d, want >= %d", after-before, 100*2*16)
	}
}

func TestPredStats(t *testing.T) {
	s, ss := fixture(t, 2)
	po, _ := ss.LookupPredicate("po")
	edges, subj, obj := s.Store().PredStats(po)
	if edges != 2 || subj != 1 || obj != 2 {
		t.Errorf("stats = %d %d %d", edges, subj, obj)
	}
	if e, _, _ := s.Store().PredStats(999); e != 0 {
		t.Error("unseen predicate has stats")
	}
	if f := s.Store().WindowFraction(sparql.GraphRef{Kind: sparql.StreamGraph, Name: "x"}); f != 1 {
		t.Errorf("WindowFraction = %v, want 1 (no stream statistics)", f)
	}
}

func TestIndexSeedQuery(t *testing.T) {
	s, _ := fixture(t, 4)
	q := sparql.MustParse(`SELECT ?X ?Z WHERE { ?X po ?Z }`)
	rs, _, err := s.QueryOneShot(q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 { // T-13, T-15
		t.Errorf("rows = %d, want 2", rs.Len())
	}
}
