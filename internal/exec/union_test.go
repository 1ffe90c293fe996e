package exec

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/strserver"
)

// unionFixture: people connected by either "fo" (follows) or "fr" (friends).
func unionFixture(t *testing.T) *fixture {
	f := newFixture(t, 2)
	fr := f.pred("fr")
	f.stored.Insert(strserver.EncodedTriple{S: f.id("Logan"), P: fr, O: f.id("Charles")}, store.BaseSN, false, nil)
	f.stored.Insert(strserver.EncodedTriple{S: f.id("Logan"), P: fr, O: f.id("Erik")}, store.BaseSN, false, nil)
	return f
}

func runUnion(t *testing.T, f *fixture, src string) *ResultSet {
	t.Helper()
	q := sparql.MustParse(src)
	p, err := plan.Compile(q, f.ss, statsAdapter{f})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := f.ex.Execute(Request{Node: 0, Mode: InPlace, Access: provider{f}, Resolver: f.ss}, p)
	if err != nil {
		t.Fatal(err)
	}
	rs.Sort()
	return rs
}

func TestUnionCombinesBranches(t *testing.T) {
	f := unionFixture(t)
	// Logan follows Erik (fo, from the Fig.1 fixture) and has two friends.
	rs := runUnion(t, f, `
SELECT ?x WHERE { { Logan fo ?x } UNION { Logan fr ?x } }`)
	if rs.Len() != 3 {
		t.Fatalf("rows = %d, want 3\n%s", rs.Len(), rs)
	}
}

func TestUnionDistinct(t *testing.T) {
	f := unionFixture(t)
	// Erik appears in both branches; DISTINCT collapses the duplicate.
	rs := runUnion(t, f, `
SELECT DISTINCT ?x WHERE { { Logan fo ?x } UNION { Logan fr ?x } }`)
	if rs.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (Charles, Erik)\n%s", rs.Len(), rs)
	}
}

func TestUnionWithFiltersPerBranch(t *testing.T) {
	f := unionFixture(t)
	rs := runUnion(t, f, `
SELECT ?x WHERE {
  { Logan fo ?x . FILTER (?x != Erik) }
  UNION
  { Logan fr ?x . FILTER (?x != Charles) }
}`)
	if rs.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (Erik via fr)\n%s", rs.Len(), rs)
	}
	term, _ := f.ss.Entity(rs.Cell(0, 0).ID)
	if term.Value != "Erik" {
		t.Errorf("row = %v", term)
	}
}

func TestUnionUnknownBranchDropped(t *testing.T) {
	f := unionFixture(t)
	// The second branch references an unknown predicate: it can never
	// match, but the first branch still answers.
	rs := runUnion(t, f, `
SELECT ?x WHERE { { Logan fr ?x } UNION { Logan ghostpred ?x } }`)
	if rs.Len() != 2 {
		t.Fatalf("rows = %d, want 2\n%s", rs.Len(), rs)
	}
	// All branches unknown: empty result.
	rs = runUnion(t, f, `
SELECT ?x WHERE { { Logan ghost1 ?x } UNION { Logan ghost2 ?x } }`)
	if rs.Len() != 0 {
		t.Errorf("rows = %d, want 0", rs.Len())
	}
}

func TestUnionWithModifiers(t *testing.T) {
	f := unionFixture(t)
	// Not via runUnion: its Sort() would clobber the ORDER BY under test.
	q := sparql.MustParse(`
SELECT ?x WHERE { { Logan fo ?x } UNION { Logan fr ?x } } ORDER BY ?x LIMIT 2`)
	p, err := plan.Compile(q, f.ss, statsAdapter{f})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := f.ex.Execute(Request{Node: 0, Mode: InPlace, Access: provider{f}, Resolver: f.ss}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("rows = %d, want 2\n%s", rs.Len(), rs)
	}
	a, _ := f.ss.Entity(rs.Cell(0, 0).ID)
	b, _ := f.ss.Entity(rs.Cell(1, 0).ID)
	if a.Value > b.Value {
		t.Errorf("not ordered: %s, %s", a.Value, b.Value)
	}
}

func TestUnionOverStreams(t *testing.T) {
	f := unionFixture(t)
	// One branch over the stream window, one over stored data.
	rs := runUnion(t, f, `
SELECT ?x ?z
FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE {
  { GRAPH Tweet_Stream { ?x po ?z } }
  UNION
  { ?x po ?z . ?z ht sosp17 }
}`)
	// Stream branch: Logan po T-15. Stored branch: posts with the hashtag
	// (T-13 by Logan, and T-15 absorbed with... T-15 has no ht in fixture).
	if rs.Len() < 2 {
		t.Fatalf("rows = %d\n%s", rs.Len(), rs)
	}
}

func TestUnionValidation(t *testing.T) {
	cases := []string{
		// Projected var missing from one branch.
		`SELECT ?y WHERE { { Logan fo ?y } UNION { Logan fr ?x } }`,
		// Aggregates over unions unsupported.
		`SELECT (COUNT(?x) AS ?n) WHERE { { Logan fo ?x } UNION { Logan fr ?x } }`,
		// Branch filter over var from the other branch.
		`SELECT ?x WHERE { { Logan fo ?x } UNION { Logan fr ?x . FILTER (?y > 1) } }`,
		// OPTIONAL inside a branch.
		`SELECT ?x WHERE { { Logan fo ?x . OPTIONAL { ?x fo ?z } } UNION { Logan fr ?x } }`,
	}
	for _, src := range cases {
		if _, err := sparql.Parse(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
	// A single braced group is just a group.
	q := sparql.MustParse(`SELECT ?x WHERE { { Logan fo ?x } }`)
	if len(q.Unions) != 0 || len(q.Patterns) != 1 {
		t.Errorf("single group mis-parsed: %+v", q)
	}
}
