package composite

import (
	"testing"

	"repro/internal/baseline/storm"
	"repro/internal/exec"
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

const qcText = `
REGISTER QUERY QC AS
SELECT ?X ?Y ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
FROM Like_Stream [RANGE 5s STEP 1s]
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  ?X fo ?Y .
  GRAPH Like_Stream { ?Y li ?Z }
}`

func fixture(t *testing.T, cfg Config) (*System, *strserver.Server, Windows) {
	t.Helper()
	ss := strserver.New()
	fab := fabric.New(fabric.DefaultConfig(2))
	s := NewSystem(fab, ss, cfg)
	t.Cleanup(s.Close)
	var base []strserver.EncodedTriple
	for _, tr := range [][3]string{
		{"Logan", "fo", "Erik"},
		{"Erik", "fo", "Logan"},
		{"Logan", "po", "T-13"},
		{"T-13", "ht", "sosp17"},
		{"Erik", "li", "T-13"},
	} {
		base = append(base, must(ss.EncodeTriple(rdf.T(tr[0], tr[1], tr[2]))))
	}
	s.LoadBase(base)
	w := Windows{
		"Tweet_Stream": {must(ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("Logan", "po", "T-15"), TS: 802}))},
		"Like_Stream":  {must(ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("Erik", "li", "T-15"), TS: 806}))},
	}
	return s, ss, w
}

func decode(ss *strserver.Server, rs *exec.ResultSet) []string {
	var out []string
	for ri := 0; ri < rs.Len(); ri++ {
		s := ""
		for i := range rs.Vars {
			if i > 0 {
				s += " "
			}
			term, _ := ss.Entity(rs.Cell(ri, i).ID)
			s += term.Value
		}
		out = append(out, s)
	}
	return out
}

func TestExecuteContinuousBothPlans(t *testing.T) {
	for _, mode := range []PlanMode{Interleaved, StreamFirst} {
		for _, v := range []storm.Variant{storm.Storm, storm.Heron} {
			s, ss, w := fixture(t, Config{Variant: v, PlanMode: mode})
			q := sparql.MustParse(qcText)
			tbl, bd, err := s.ExecuteContinuous(q, w, 1000)
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, v, err)
			}
			got := decode(ss, tbl)
			if len(got) != 1 || got[0] != "Logan Erik T-15" {
				t.Errorf("%v/%v: rows = %v", mode, v, got)
			}
			if bd.Crossings == 0 || bd.Cross <= 0 {
				t.Errorf("%v/%v: no cross-system cost recorded: %+v", mode, v, bd)
			}
			if bd.Total() <= 0 {
				t.Errorf("%v/%v: breakdown empty", mode, v)
			}
		}
	}
}

func TestPlanModesCrossingCounts(t *testing.T) {
	// Interleaved crosses twice per stored stage (in and out); StreamFirst
	// has exactly one stored stage.
	sI, _, wI := fixture(t, Config{PlanMode: Interleaved})
	q := sparql.MustParse(qcText)
	_, bdI, err := sI.ExecuteContinuous(q, wI, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sF, _, wF := fixture(t, Config{PlanMode: StreamFirst})
	_, bdF, err := sF.ExecuteContinuous(q, wF, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if bdI.Crossings != 2 || bdF.Crossings != 2 {
		t.Errorf("crossings: interleaved=%d stream-first=%d, want 2 and 2",
			bdI.Crossings, bdF.Crossings)
	}
}

func TestWindowScoping(t *testing.T) {
	s, ss, w := fixture(t, Config{})
	// A tweet outside the 10s window must not match at time 20000.
	q := sparql.MustParse(qcText)
	tbl, _, err := s.ExecuteContinuous(q, w, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Errorf("expired window matched: %v", decode(ss, tbl))
	}
}

func TestStreamOnlyQueryNeverCrosses(t *testing.T) {
	s, _, w := fixture(t, Config{})
	q := sparql.MustParse(`
SELECT ?X ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } }`)
	_, bd, err := s.ExecuteContinuous(q, w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Crossings != 0 || bd.Stored != 0 {
		t.Errorf("stream-only query crossed systems: %+v", bd)
	}
}

func TestOneShotIgnoresStreams(t *testing.T) {
	// The composite design is not completely stateful: one-shot queries run
	// on static stored data and never see absorbed stream tuples.
	s, ss, _ := fixture(t, Config{})
	q := sparql.MustParse(`SELECT ?Z WHERE { Logan po ?Z }`)
	rs, lat, err := s.QueryOneShot(q)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Error("no latency measured")
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (T-13 only)", rs.Len())
	}
	term, _ := ss.Entity(rs.Cell(0, 0).ID)
	if term.Value != "T-13" {
		t.Errorf("row = %v", term)
	}
}

func TestFiltersApplied(t *testing.T) {
	s, ss, w := fixture(t, Config{})
	_ = ss
	q := sparql.MustParse(`
SELECT ?X ?Z
FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } FILTER (?X != Logan) }`)
	tbl, _, err := s.ExecuteContinuous(q, w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Errorf("filter not applied: %d rows", tbl.Len())
	}
}

func TestPlanModeString(t *testing.T) {
	if Interleaved.String() != "interleaved" || StreamFirst.String() != "stream-first" {
		t.Error("PlanMode strings wrong")
	}
}
