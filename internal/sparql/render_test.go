package sparql

import (
	"reflect"
	"testing"
)

// corpus covers every language construct for round-trip testing.
var renderCorpus = []string{
	figure2QC,
	figure2QS,
	`SELECT ?x WHERE { ?x <http://ex/p> "lit" . ?x <http://ex/q> 42 }`,
	`SELECT DISTINCT ?x ?y WHERE { ?x <p> ?y } ORDER BY DESC(?x) ?y LIMIT 5 OFFSET 2`,
	`SELECT ?r (AVG(?v) AS ?a) (COUNT(*) AS ?n) WHERE { ?s <road> ?r . ?s <speed> ?v } GROUP BY ?r`,
	`SELECT ?x WHERE { ?x <p> ?v . FILTER (?v > 3 && (?v < 9 || !(?x = <bad>))) }`,
	`SELECT ?u ?e WHERE { ?u <ty> <Person> . OPTIONAL { ?u <email> ?e . FILTER (?e != <spam>) } }`,
	`SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y . FILTER (?y != <z>) } }`,
	`REGISTER QUERY W AS
SELECT ?a ?b
FROM STREAM <S1> [RANGE 2s STEP 500ms]
FROM STREAM <S2> [RANGE 1m STEP 2s]
FROM <Base>
WHERE { GRAPH STREAM <S1> { ?a <p> ?b } . GRAPH <Base> { ?b <q> ?a } }`,
	`SELECT ?x WHERE { ?x a <Person> }`,
	`ASK WHERE { <Logan> <fo> <Erik> . ?x <po> ?y }`,
}

// normalize strips fields that legitimately differ across a render cycle.
func normalize(q *Query) *Query {
	c := *q
	c.Text = ""
	return &c
}

func TestRenderRoundTrip(t *testing.T) {
	for _, src := range renderCorpus {
		orig, err := Parse(src)
		if err != nil {
			t.Fatalf("corpus entry failed to parse: %v\n%s", err, src)
		}
		rendered := orig.String()
		re, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered text failed to parse: %v\nrendered:\n%s", err, rendered)
		}
		if !reflect.DeepEqual(normalize(orig), normalize(re)) {
			t.Errorf("round trip changed the query\noriginal: %#v\nreparsed: %#v\nrendered:\n%s",
				normalize(orig), normalize(re), rendered)
		}
	}
}

func TestRenderDuration(t *testing.T) {
	cases := map[string]string{
		"[RANGE 1h STEP 1h]":       "1h",
		"[RANGE 2m STEP 2m]":       "2m",
		"[RANGE 10s STEP 10s]":     "10s",
		"[RANGE 500ms STEP 500ms]": "500ms",
	}
	for w, want := range cases {
		q := MustParse("SELECT ?x FROM STREAM <s> " + w + " WHERE { GRAPH STREAM <s> { ?x <p> ?y } }")
		got := renderDuration(q.Windows[0].Range)
		if got != want {
			t.Errorf("%s -> %q, want %q", w, got, want)
		}
	}
}

// FuzzParse feeds arbitrary text to Parse. Every input parses or returns an
// error, never panics; and a query that parses renders to text that parses
// back to the same query, so what the parser accepts it understood. The
// seeds add the forms a fuller SPARQL parser (trigo's) takes and this
// subset must reject cleanly or read right: PREFIX and BASE, DISTINCT and
// REDUCED, and CONSTRUCT, ASK and DESCRIBE heads.
func FuzzParse(f *testing.F) {
	for _, src := range renderCorpus {
		f.Add(src)
	}
	for _, src := range []string{
		`PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:knows ?y }`,
		`PREFIX : <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n . ?p :age 42 }`,
		`BASE <http://example.org/> SELECT ?x WHERE { ?x <knows> ?y }`,
		`BASE <http://example.org/> PREFIX ex: <ns#> SELECT ?x WHERE { ?x ex:p ?y }`,
		`SELECT DISTINCT ?x WHERE { ?x <p> ?y }`,
		`SELECT REDUCED ?x WHERE { ?x <p> ?y }`,
		`SELECT * WHERE { ?s ?p ?o }`,
		`CONSTRUCT { ?x <knows> ?y } WHERE { ?y <knows> ?x }`,
		`CONSTRUCT WHERE { ?x <p> ?y }`,
		`ASK { <Logan> <fo> <Erik> }`,
		`ASK WHERE { ?x <p> "lit"@en }`,
		`DESCRIBE ?x WHERE { ?x <p> ?y }`,
		`DESCRIBE <http://example.org/alice>`,
		`SELECT ?x WHERE { ?x <p> "a\"b\\c" . ?x <q> "x"^^<http://www.w3.org/2001/XMLSchema#integer> }`,
		`SELECT ?x WHERE { ?x <p> -3.5e2 . FILTER (?x != <a>) } LIMIT 10`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		rendered := q.String()
		re, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered text failed to parse: %v\ninput: %q\nrendered:\n%s", err, src, rendered)
		}
		if !reflect.DeepEqual(normalize(q), normalize(re)) {
			t.Fatalf("round trip changed the query\ninput: %q\nrendered:\n%s\noriginal: %#v\nreparsed: %#v",
				src, rendered, normalize(q), normalize(re))
		}
	})
}
