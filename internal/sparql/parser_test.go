package sparql

import (
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
)

// The paper's Fig. 2 continuous query, in C-SPARQL shorthand syntax.
const figure2QC = `
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

// The paper's Fig. 2 one-shot query.
const figure2QS = `
SELECT ?X
FROM X-Lab
WHERE {
  Logan po ?X .
  ?X ht hashtag_sosp17 .
  Erik li ?X .
}`

func TestParseFigure2Continuous(t *testing.T) {
	q, err := Parse(figure2QC)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Continuous || q.Name != "QC" {
		t.Errorf("Continuous=%v Name=%q", q.Continuous, q.Name)
	}
	if len(q.Select) != 3 || q.Select[0].Var != "X" {
		t.Errorf("Select = %v", q.Select)
	}
	if len(q.Windows) != 2 {
		t.Fatalf("Windows = %v", q.Windows)
	}
	w, ok := q.Window("Tweet_Stream")
	if !ok || w.Range != 10*time.Second || w.Step != time.Second {
		t.Errorf("Tweet_Stream window = %+v, %v", w, ok)
	}
	if len(q.Graphs) != 1 || q.Graphs[0] != "X-Lab" {
		t.Errorf("Graphs = %v", q.Graphs)
	}
	if len(q.Patterns) != 3 {
		t.Fatalf("Patterns = %v", q.Patterns)
	}
	// GRAPH over a declared stream is recognized as a stream scope even
	// without the STREAM keyword.
	if q.Patterns[0].Graph.Kind != StreamGraph || q.Patterns[0].Graph.Name != "Tweet_Stream" {
		t.Errorf("pattern 0 graph = %v", q.Patterns[0].Graph)
	}
	if q.Patterns[1].Graph.Kind != NamedGraph {
		t.Errorf("pattern 1 graph = %v", q.Patterns[1].Graph)
	}
	if got := q.Streams(); len(got) != 2 {
		t.Errorf("Streams = %v", got)
	}
}

func TestParseFigure2OneShot(t *testing.T) {
	q, err := Parse(figure2QS)
	if err != nil {
		t.Fatal(err)
	}
	if q.Continuous {
		t.Error("one-shot query parsed as continuous")
	}
	if len(q.Patterns) != 3 {
		t.Fatalf("Patterns = %v", q.Patterns)
	}
	if q.Patterns[0].S.IsVar || q.Patterns[0].S.Term.Value != "Logan" {
		t.Errorf("subject = %v", q.Patterns[0].S)
	}
	if !q.Patterns[0].O.IsVar || q.Patterns[0].O.Var != "X" {
		t.Errorf("object = %v", q.Patterns[0].O)
	}
}

func TestParsePrefixes(t *testing.T) {
	q, err := Parse(`
PREFIX ex: <http://example.org/>
PREFIX : <http://default.org/>
SELECT ?x WHERE { ?x ex:knows :alice }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Patterns[0].P.Term.Value != "http://example.org/knows" {
		t.Errorf("predicate = %v", q.Patterns[0].P)
	}
	if q.Patterns[0].O.Term.Value != "http://default.org/alice" {
		t.Errorf("object = %v", q.Patterns[0].O)
	}
}

func TestParseUndeclaredPrefix(t *testing.T) {
	_, err := Parse(`SELECT ?x WHERE { ?x nope:p ?y }`)
	if err == nil || !strings.Contains(err.Error(), "undeclared prefix") {
		t.Errorf("err = %v", err)
	}
}

func TestParseExplicitStreamSyntax(t *testing.T) {
	q, err := Parse(`
SELECT ?x
FROM STREAM <http://ex/s1> [RANGE 3s STEP 1s]
WHERE { GRAPH STREAM <http://ex/s1> { ?x <p> ?y } }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Continuous {
		t.Error("stream query not marked continuous")
	}
	if q.Windows[0].Stream != "http://ex/s1" || q.Windows[0].Range != 3*time.Second {
		t.Errorf("window = %+v", q.Windows[0])
	}
	if q.Patterns[0].Graph.Kind != StreamGraph {
		t.Errorf("graph = %v", q.Patterns[0].Graph)
	}
}

func TestParseWindowUnits(t *testing.T) {
	cases := []struct {
		text string
		want time.Duration
	}{
		{"[RANGE 100ms STEP 100ms]", 100 * time.Millisecond},
		{"[RANGE 2m STEP 2m]", 2 * time.Minute},
		{"[RANGE 500 STEP 500]", 500 * time.Millisecond},
		{"[RANGE 1h STEP 1h]", time.Hour},
	}
	for _, c := range cases {
		q, err := Parse("SELECT ?x FROM STREAM <s> " + c.text + " WHERE { GRAPH STREAM <s> { ?x <p> ?y } }")
		if err != nil {
			t.Errorf("%s: %v", c.text, err)
			continue
		}
		if q.Windows[0].Range != c.want {
			t.Errorf("%s: range = %v, want %v", c.text, q.Windows[0].Range, c.want)
		}
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse(`
SELECT ?road (AVG(?speed) AS ?avg) (COUNT(*) AS ?n)
WHERE { ?obs <road> ?road . ?obs <speed> ?speed }
GROUP BY ?road`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasAggregates() {
		t.Error("HasAggregates = false")
	}
	if len(q.Select) != 3 {
		t.Fatalf("Select = %v", q.Select)
	}
	if q.Select[1].Agg != AggAvg || q.Select[1].Var != "speed" || q.Select[1].As != "avg" {
		t.Errorf("AVG projection = %+v", q.Select[1])
	}
	if q.Select[2].Agg != AggCount || q.Select[2].Var != "*" {
		t.Errorf("COUNT projection = %+v", q.Select[2])
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "road" {
		t.Errorf("GroupBy = %v", q.GroupBy)
	}
}

func TestParseAggregateValidation(t *testing.T) {
	// Plain projection not in GROUP BY alongside an aggregate.
	_, err := Parse(`
SELECT ?road (AVG(?speed) AS ?a)
WHERE { ?obs <road> ?road . ?obs <speed> ?speed }`)
	if err == nil || !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("err = %v", err)
	}
	// SUM(*) is invalid.
	if _, err := Parse(`SELECT (SUM(*) AS ?s) WHERE { ?x <p> ?y }`); err == nil {
		t.Error("SUM(*) accepted")
	}
}

func TestParseFilters(t *testing.T) {
	q, err := Parse(`
SELECT ?x WHERE {
  ?x <speed> ?v .
  FILTER (?v > 30 && ?v <= 120)
  FILTER (!(?x = <bad>) || ?v != 99)
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Filters) != 2 {
		t.Fatalf("Filters = %v", q.Filters)
	}
	and, ok := q.Filters[0].(And)
	if !ok || len(and.Exprs) != 2 {
		t.Fatalf("filter 0 = %v", q.Filters[0])
	}
	cmp := and.Exprs[0].(Cmp)
	if cmp.Op != OpGT || !cmp.LHS.IsVar || cmp.LHS.Var != "v" {
		t.Errorf("cmp = %+v", cmp)
	}
	if v, ok := cmp.RHS.Term.Numeric(); !ok || v != 30 {
		t.Errorf("RHS = %+v", cmp.RHS)
	}
	or, ok := q.Filters[1].(Or)
	if !ok || len(or.Exprs) != 2 {
		t.Fatalf("filter 1 = %v", q.Filters[1])
	}
	if _, ok := or.Exprs[0].(Not); !ok {
		t.Errorf("negation = %v", or.Exprs[0])
	}
}

func TestParseFilterLessThanVsIRI(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x <p> ?v . FILTER (?v < 5 && ?x = <http://e/a>) }`)
	if err != nil {
		t.Fatal(err)
	}
	and := q.Filters[0].(And)
	if and.Exprs[0].(Cmp).Op != OpLT {
		t.Errorf("op = %v", and.Exprs[0])
	}
	if and.Exprs[1].(Cmp).RHS.Term.Value != "http://e/a" {
		t.Errorf("IRI operand = %v", and.Exprs[1])
	}
}

func TestParseTypeKeyword(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x a <Person> }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Patterns[0].P.Term.Value != RDFType {
		t.Errorf("predicate = %v", q.Patterns[0].P)
	}
}

func TestParseDistinctAndLimit(t *testing.T) {
	q, err := Parse(`SELECT DISTINCT ?x WHERE { ?x <p> ?y } LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct || q.Limit != 10 {
		t.Errorf("Distinct=%v Limit=%d", q.Distinct, q.Limit)
	}
}

func TestParseLiteralsInPatterns(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x <name> "Logan" . ?x <age> 35 . ?x <score> 4.5 }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Patterns[0].O.Term != rdf.NewLiteral("Logan") {
		t.Errorf("string literal = %v", q.Patterns[0].O)
	}
	if q.Patterns[1].O.Term != rdf.NewTypedLiteral("35", rdf.XSDInteger) {
		t.Errorf("int literal = %v", q.Patterns[1].O)
	}
	if q.Patterns[2].O.Term != rdf.NewTypedLiteral("4.5", rdf.XSDDouble) {
		t.Errorf("float literal = %v", q.Patterns[2].O)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT WHERE { ?x <p> ?y }`,
		`SELECT * WHERE { ?x <p> ?y }`,
		`SELECT ?x WHERE { }`,
		`SELECT ?x WHERE { ?x <p> }`,
		`SELECT ?x WHERE { ?x <p> ?y`,
		`SELECT ?x FROM STREAM <s> [RANGE 0s STEP 1s] WHERE { GRAPH STREAM <s> { ?x <p> ?y } }`,
		`SELECT ?z WHERE { ?x <p> ?y }`,                          // unbound projection
		`SELECT ?x WHERE { GRAPH STREAM <s> { ?x <p> ?y } }`,     // stream without window
		`SELECT ?x WHERE { ?x <p> ?y . FILTER (?nope > 3) }`,     // unbound filter var
		`SELECT ?x WHERE { ?x <p> ?y } GROUP BY ?q`,              // unbound group var
		`SELECT ?x WHERE { ?x <p> ?y } LIMIT -3`,                 // bad limit
		`SELECT (FOO(?x) AS ?y) WHERE { ?x <p> ?y }`,             // unknown aggregate
		`SELECT ?x WHERE { ?x <p> ?y } trailing`,                 // trailing junk
		`REGISTER QUERY SELECT ?x WHERE { ?x <p> ?y }`,           // missing name
		`SELECT ?x WHERE { ?x <p> "unterminated }`,               // bad string
		`SELECT ?x WHERE { ?x <p ?y }`,                           // unterminated IRI
		`SELECT ?x WHERE { ?x <p> ?y . FILTER (?y >) }`,          // missing operand
		`SELECT ?x FROM STREAM <s> [RANGE 1s] WHERE { ?x a ?y }`, // missing STEP
		// Forms of full SPARQL outside this subset.
		`BASE <http://example.org/> SELECT ?x WHERE { ?x <p> ?y }`,
		`SELECT REDUCED ?x WHERE { ?x <p> ?y }`,
		`CONSTRUCT { ?x <p> ?y } WHERE { ?y <p> ?x }`,
		`DESCRIBE ?x WHERE { ?x <p> ?y }`,
		`ASK { ?x <p> ?y }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := Parse("SELECT ?x\nWHERE { ?x <p> }\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("not a query")
}

func TestRegisterWithoutAS(t *testing.T) {
	q, err := Parse(`REGISTER QUERY q1 SELECT ?x FROM STREAM <s> [RANGE 1s STEP 1s] WHERE { GRAPH STREAM <s> { ?x <p> ?y } }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "q1" {
		t.Errorf("Name = %q", q.Name)
	}
}

func TestPatternVars(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE { ?x <p> ?x }`)
	if vars := q.Patterns[0].Vars(); len(vars) != 1 || vars[0] != "x" {
		t.Errorf("Vars = %v", vars)
	}
}

func TestCommentsIgnored(t *testing.T) {
	q, err := Parse("# header\nSELECT ?x # trailing\nWHERE { ?x <p> ?y }")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 1 {
		t.Errorf("Patterns = %v", q.Patterns)
	}
}

func TestExprStrings(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE { ?x <p> ?v . FILTER (!(?v > 3) && (?v < 9 || ?v = 0)) }`)
	s := q.Filters[0].String()
	for _, want := range []string{"!", "&&", "||", ">", "<", "="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestProjectionString(t *testing.T) {
	p := Projection{Agg: AggCount, Var: "*", As: "n"}
	if got := p.String(); got != "(COUNT(*) AS ?n)" {
		t.Errorf("String = %q", got)
	}
	p2 := Projection{Var: "x", As: "x"}
	if got := p2.String(); got != "?x" {
		t.Errorf("String = %q", got)
	}
}

func TestGraphRefString(t *testing.T) {
	if got := (GraphRef{Kind: StreamGraph, Name: "s"}).String(); got != "GRAPH STREAM <s>" {
		t.Errorf("String = %q", got)
	}
	if got := (GraphRef{}).String(); got != "GRAPH DEFAULT" {
		t.Errorf("String = %q", got)
	}
}

func TestWindowString(t *testing.T) {
	w := StreamWindow{Stream: "s", Range: time.Second, Step: 100 * time.Millisecond}
	if got := w.String(); !strings.Contains(got, "RANGE 1s STEP 100ms") {
		t.Errorf("String = %q", got)
	}
}
