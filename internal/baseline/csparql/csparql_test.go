package csparql

import (
	"testing"

	"repro/internal/baseline/rel"
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

func fixture(t *testing.T) (*System, *strserver.Server, rel.Windows) {
	t.Helper()
	ss := strserver.New()
	s := NewSystem(ss)
	var base []strserver.EncodedTriple
	for _, tr := range [][3]string{
		{"Logan", "fo", "Erik"},
		{"Logan", "po", "T-13"},
		{"T-13", "ht", "sosp17"},
		{"Erik", "li", "T-13"},
	} {
		base = append(base, must(ss.EncodeTriple(rdf.T(tr[0], tr[1], tr[2]))))
	}
	s.LoadBase(base)
	w := rel.Windows{
		"Tweet_Stream": {must(ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("Logan", "po", "T-15"), TS: 802}))},
		"Like_Stream":  {must(ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("Erik", "li", "T-15"), TS: 806}))},
	}
	return s, ss, w
}

func TestContinuousQuery(t *testing.T) {
	s, ss, w := fixture(t)
	q := sparql.MustParse(`
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  ?X fo ?Y .
  GRAPH Like_Stream { ?Y li ?Z }
}`)
	tbl, lat, err := s.ExecuteContinuous(q, w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Error("no latency measured")
	}
	if tbl.Len() != 1 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	x, _ := ss.Entity(tbl.Cell(0, 0).ID)
	z, _ := ss.Entity(tbl.Cell(0, 2).ID)
	if x.Value != "Logan" || z.Value != "T-15" {
		t.Errorf("row = %v %v", x, z)
	}
}

func TestOneShotStaticOnly(t *testing.T) {
	s, ss, _ := fixture(t)
	q := sparql.MustParse(`SELECT ?Z WHERE { Logan po ?Z }`)
	tbl, _, err := s.QueryOneShot(q)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	z, _ := ss.Entity(tbl.Cell(0, 0).ID)
	if z.Value != "T-13" {
		t.Errorf("row = %v", z)
	}
	if s.StoredTriples() != 4 {
		t.Errorf("StoredTriples = %d", s.StoredTriples())
	}
}

func TestUnknownConstantEmpty(t *testing.T) {
	s, _, w := fixture(t)
	q := sparql.MustParse(`
SELECT ?Z FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE { GRAPH Tweet_Stream { Ghost po ?Z } }`)
	tbl, _, err := s.ExecuteContinuous(q, w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Errorf("rows = %d", tbl.Len())
	}
}

func TestFilters(t *testing.T) {
	s, _, w := fixture(t)
	q := sparql.MustParse(`
SELECT ?X ?Z FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } FILTER (?Z = T-15) }`)
	tbl, _, err := s.ExecuteContinuous(q, w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("rows = %d", tbl.Len())
	}
}
