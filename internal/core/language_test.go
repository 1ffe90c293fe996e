package core

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

// TestTimeBasedOneShotQueries demonstrates the paper's footnote 10: the
// engine discards stream timestamps for timeless data, but time-based
// one-shot queries are supported compositionally via a Time-ontology-style
// vocabulary — producers emit explicit creation-time triples, which absorb
// into the store like any other timeless fact and filter numerically.
func TestTimeBasedOneShotQueries(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	// Each post carries a creation-time triple (xsd:integer literal).
	for i, ts := range []rdf.Timestamp{110, 250, 390} {
		post := []rune("T-20")
		post[3] += rune(i)
		emit(t, tweets, ts, "Logan", "po", string(post))
		if err := tweets.Emit(rdf.Tuple{
			Triple: rdf.Triple{
				S: rdf.NewIRI(string(post)),
				P: rdf.NewIRI("createdAt"),
				O: rdf.NewIntLiteral(int64(ts)),
			},
			TS: ts,
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTo(500)

	res, err := e.Query(`
SELECT ?P ?T WHERE { Logan po ?P . ?P createdAt ?T . FILTER (?T >= 200 && ?T < 400) }
ORDER BY ?T`)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Strings()
	if len(got) != 2 || !strings.HasPrefix(got[0], "T-21") || !strings.HasPrefix(got[1], "T-22") {
		t.Errorf("time-ranged posts = %v", got)
	}
}

// TestOptionalThroughEngine runs OPTIONAL via the public one-shot API.
func TestOptionalThroughEngine(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	emit(t, tweets, 100, "Logan", "po", "T-15")
	emit(t, tweets, 110, "T-15", "ht", "sosp17")
	e.AdvanceTo(300)
	res, err := e.Query(`
SELECT ?P ?T WHERE { Logan po ?P . OPTIONAL { ?P ht ?T } } ORDER BY ?P`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Strings()
	// T-13 and T-15 have hashtags; T-14 has none (unbound → empty cell).
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if !strings.Contains(rows[0], "sosp17") { // T-13 sosp17
		t.Errorf("row 0 = %q", rows[0])
	}
	if strings.TrimSpace(rows[1]) != "T-14" { // unbound tag renders empty
		t.Errorf("row 1 = %q", rows[1])
	}
}

// TestUnionThroughEngine runs UNION via the public API, across a stream
// window and the stored graph.
func TestUnionThroughEngine(t *testing.T) {
	e, tweets, likes := figure1Engine(t, 2)
	emit(t, tweets, 100, "Logan", "po", "T-15")
	emit(t, likes, 150, "Thor", "li", "T-13")
	e.AdvanceTo(300)
	res, err := e.Query(`
SELECT DISTINCT ?X WHERE {
  { ?X po T-15 }
  UNION
  { ?X li T-13 }
}`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range res.Strings() {
		got[r] = true
	}
	// Logan posted T-15 (absorbed); Erik liked T-13 initially, Thor via the
	// stream.
	if !got["Logan"] || !got["Erik"] || !got["Thor"] || len(got) != 3 {
		t.Errorf("union rows = %v", got)
	}
}

// TestContinuousWithOptional registers a continuous query using OPTIONAL
// over the stream window.
func TestContinuousWithOptional(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	var col collector
	_, err := e.RegisterContinuous(`
REGISTER QUERY opt AS
SELECT ?X ?Z ?T
FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  OPTIONAL { GRAPH Tweet_Stream { ?Z ht ?T } }
}`, col.cb)
	if err != nil {
		t.Fatal(err)
	}
	emit(t, tweets, 100, "Logan", "po", "T-20")
	emit(t, tweets, 150, "Logan", "po", "T-21")
	emit(t, tweets, 160, "T-21", "ht", "sosp17")
	e.AdvanceTo(1000)
	rows := col.allRows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	tagged, untagged := false, false
	for _, r := range rows {
		if strings.Contains(r, "sosp17") {
			tagged = true
		} else {
			untagged = true
		}
	}
	if !tagged || !untagged {
		t.Errorf("optional over window: rows = %v", rows)
	}
}

// TestAskQueries exercises the ASK form through the public API.
func TestAskQueries(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	ok, err := e.Ask(`ASK WHERE { Logan fo Erik }`)
	if err != nil || !ok {
		t.Errorf("ASK existing = %v, %v", ok, err)
	}
	ok, err = e.Ask(`ASK WHERE { Erik fo GhostEntity }`)
	if err != nil || ok {
		t.Errorf("ASK missing = %v, %v", ok, err)
	}
	// The evolving store answers ASK over absorbed stream data too.
	emit(t, tweets, 100, "Logan", "po", "T-42")
	e.AdvanceTo(300)
	ok, err = e.Ask(`ASK WHERE { Logan po T-42 }`)
	if err != nil || !ok {
		t.Errorf("ASK absorbed = %v, %v", ok, err)
	}
	// Modifiers on ASK are rejected.
	if _, err := e.Ask(`ASK WHERE { ?x po ?y } ORDER BY ?x`); err == nil {
		t.Error("ASK with ORDER BY accepted")
	}
}

// TestVarPredicateThroughEngine checks end-to-end variable-predicate
// queries, including predicate-IRI decoding in results.
func TestVarPredicateThroughEngine(t *testing.T) {
	e, tweets, _ := figure1Engine(t, 2)
	emit(t, tweets, 100, "Logan", "po", "T-15")
	e.AdvanceTo(300)
	res, err := e.Query(`SELECT ?p ?o WHERE { Logan ?p ?o } ORDER BY ?o`)
	if err != nil {
		t.Fatal(err)
	}
	preds := map[string]int{}
	for i := 0; i < res.Len(); i++ {
		preds[res.Row(i)[0].Value]++
	}
	// Logan: ty X-Men, fo Erik, po T-13/T-14 + absorbed T-15.
	if preds["ty"] != 1 || preds["fo"] != 1 || preds["po"] != 3 {
		t.Errorf("predicates = %v", preds)
	}
	out, err := e.Explain(`SELECT ?p ?o WHERE { Logan ?p ?o }`)
	if err != nil || !strings.Contains(out, "?p") {
		t.Errorf("explain: %v %q", err, out)
	}
}
