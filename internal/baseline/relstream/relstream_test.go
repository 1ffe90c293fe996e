package relstream

import (
	"errors"
	"testing"
	"time"

	"repro/internal/baseline/rel"
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

func fixture(t *testing.T, mode Mode) (*System, *strserver.Server, rel.Windows) {
	t.Helper()
	ss := strserver.New()
	fab := fabric.New(fabric.DefaultConfig(1))
	s := NewSystem(fab, ss, Config{Mode: mode, StageOverhead: time.Microsecond})
	var base []strserver.EncodedTriple
	for _, tr := range [][3]string{
		{"Logan", "fo", "Erik"},
		{"Logan", "po", "T-13"},
		{"Erik", "li", "T-13"},
	} {
		base = append(base, must(ss.EncodeTriple(rdf.T(tr[0], tr[1], tr[2]))))
	}
	s.LoadBase(base)
	tweet := []strserver.EncodedTuple{must(ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("Logan", "po", "T-15"), TS: 802}))}
	like := []strserver.EncodedTuple{must(ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("Erik", "li", "T-15"), TS: 806}))}
	s.Absorb("Tweet_Stream", tweet)
	s.Absorb("Like_Stream", like)
	return s, ss, rel.Windows{"Tweet_Stream": tweet, "Like_Stream": like}
}

const twoStreamQuery = `
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  ?X fo ?Y .
  GRAPH Like_Stream { ?Y li ?Z }
}`

const oneStreamQuery = `
SELECT ?X ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } . ?X fo ?Y }`

func TestSparkStreamingTwoStreams(t *testing.T) {
	s, ss, w := fixture(t, SparkStreaming)
	q := sparql.MustParse(twoStreamQuery)
	tbl, lat, err := s.ExecuteContinuous(q, w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Error("no latency")
	}
	if tbl.Len() != 1 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	x, _ := ss.Entity(tbl.Cell(0, 0).ID)
	if x.Value != "Logan" {
		t.Errorf("X = %v", x)
	}
}

func TestStructuredStreamingRejectsStreamStreamJoin(t *testing.T) {
	s, _, w := fixture(t, StructuredStreaming)
	q := sparql.MustParse(twoStreamQuery)
	_, _, err := s.ExecuteContinuous(q, w, 1000)
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestStructuredStreamingSingleStream(t *testing.T) {
	s, _, w := fixture(t, StructuredStreaming)
	q := sparql.MustParse(oneStreamQuery)
	tbl, _, err := s.ExecuteContinuous(q, w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("rows = %d", tbl.Len())
	}
}

func TestStructuredStreamingScansHistory(t *testing.T) {
	// A tuple outside the window exists only in history; Structured
	// Streaming scans it but the window filter must still exclude it.
	s, ss, _ := fixture(t, StructuredStreaming)
	old := []strserver.EncodedTuple{must(ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("Erik", "po", "T-99"), TS: 900}))}
	s.Absorb("Tweet_Stream", old)
	q := sparql.MustParse(oneStreamQuery)
	// Window (90000,100000]: nothing inside.
	tbl, _, err := s.ExecuteContinuous(q, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Errorf("rows = %d, want 0", tbl.Len())
	}
}

func TestSchedulingOverheadCharged(t *testing.T) {
	ss := strserver.New()
	fab := fabric.New(fabric.DefaultConfig(1))
	s := NewSystem(fab, ss, Config{Mode: SparkStreaming, StageOverhead: time.Millisecond})
	s.LoadBase([]strserver.EncodedTriple{must(ss.EncodeTriple(rdf.T("a", "p", "b")))})
	q := sparql.MustParse(`SELECT ?x ?y WHERE { ?x p ?y }`)
	if _, _, err := s.ExecuteContinuous(q, nil, 0); err != nil {
		t.Fatal(err)
	}
	if fab.Stats().ChargedTime < time.Millisecond {
		t.Errorf("ChargedTime = %v, want >= 1ms", fab.Stats().ChargedTime)
	}
}

func TestFiltersAndAggregatesPath(t *testing.T) {
	s, ss, w := fixture(t, SparkStreaming)
	_ = ss
	q := sparql.MustParse(`
SELECT ?X ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } FILTER (?X = Logan) }`)
	tbl, _, err := s.ExecuteContinuous(q, w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("rows = %d", tbl.Len())
	}
}

func TestModeString(t *testing.T) {
	if SparkStreaming.String() != "spark-streaming" || StructuredStreaming.String() != "structured-streaming" {
		t.Error("Mode strings wrong")
	}
}
