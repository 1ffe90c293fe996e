package exec

import (
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/strserver"
)

// orderFixture loads entities with numeric scores for ORDER BY tests.
func orderFixture(t *testing.T) *fixture {
	f := newFixture(t, 2)
	score := f.pred("score")
	for i, v := range []int64{30, 10, 50, 20, 40} {
		item := f.id(fmt.Sprintf("item%d", i))
		val := f.ss.InternEntity(rdf.NewIntLiteral(v))
		f.stored.Insert(strserver.EncodedTriple{S: item, P: score, O: val}, store.BaseSN, false, nil)
	}
	return f
}

func runOrder(t *testing.T, f *fixture, src string) *ResultSet {
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
	return rs
}

func nums(t *testing.T, f *fixture, rs *ResultSet, col int) []float64 {
	t.Helper()
	var out []float64
	for ri := 0; ri < rs.Len(); ri++ {
		row := rowOf(rs, ri)
		v, ok := f.ss.Numeric(row[col].ID)
		if !ok {
			t.Fatalf("row %v not numeric", row)
		}
		out = append(out, v)
	}
	return out
}

func TestOrderByAscending(t *testing.T) {
	f := orderFixture(t)
	rs := runOrder(t, f, `SELECT ?i ?v WHERE { ?i score ?v } ORDER BY ?v`)
	got := nums(t, f, rs, 1)
	want := []float64{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestOrderByDescending(t *testing.T) {
	f := orderFixture(t)
	rs := runOrder(t, f, `SELECT ?i ?v WHERE { ?i score ?v } ORDER BY DESC(?v)`)
	got := nums(t, f, rs, 1)
	if got[0] != 50 || got[4] != 10 {
		t.Errorf("order = %v", got)
	}
}

func TestOrderByLexical(t *testing.T) {
	f := orderFixture(t)
	rs := runOrder(t, f, `SELECT ?i WHERE { ?i score ?v } ORDER BY ?i`)
	var names []string
	for i := 0; i < rs.Len(); i++ {
		term, _ := f.ss.Entity(rs.Cell(i, 0).ID)
		names = append(names, term.Value)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("lexical order violated: %v", names)
		}
	}
}

func TestOffsetAndLimit(t *testing.T) {
	f := orderFixture(t)
	rs := runOrder(t, f, `SELECT ?v WHERE { ?i score ?v } ORDER BY ?v OFFSET 1 LIMIT 2`)
	got := nums(t, f, rs, 0)
	if len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Errorf("page = %v, want [20 30]", got)
	}
	// Offset beyond the result set yields nothing.
	rs = runOrder(t, f, `SELECT ?v WHERE { ?i score ?v } OFFSET 99`)
	if rs.Len() != 0 {
		t.Errorf("rows = %d", rs.Len())
	}
}

func TestOrderByAggregate(t *testing.T) {
	f := newFixture(t, 2)
	score := f.pred("score")
	kind := f.pred("kind")
	for i, v := range []int64{5, 7, 1, 2} {
		item := f.id(fmt.Sprintf("it%d", i))
		k := f.id(fmt.Sprintf("k%d", i%2))
		f.stored.Insert(strserver.EncodedTriple{S: item, P: score, O: f.ss.InternEntity(rdf.NewIntLiteral(v))}, store.BaseSN, false, nil)
		f.stored.Insert(strserver.EncodedTriple{S: item, P: kind, O: k}, store.BaseSN, false, nil)
	}
	rs := runOrder(t, f, `
SELECT ?k (SUM(?v) AS ?s) WHERE { ?i kind ?k . ?i score ?v }
GROUP BY ?k ORDER BY DESC(?s)`)
	if rs.Len() != 2 {
		t.Fatalf("groups = %d", rs.Len())
	}
	if rs.Cell(0, 1).Num < rs.Cell(1, 1).Num {
		t.Errorf("aggregate order wrong: %v", rs)
	}
}

func TestOrderByValidation(t *testing.T) {
	if _, err := sparql.Parse(`SELECT ?v WHERE { ?i score ?v } ORDER BY ?nope`); err == nil {
		t.Error("ORDER BY over unprojected name accepted")
	}
	if _, err := sparql.Parse(`SELECT ?v WHERE { ?i score ?v } ORDER BY`); err == nil {
		t.Error("empty ORDER BY accepted")
	}
	if _, err := sparql.Parse(`SELECT ?v WHERE { ?i score ?v } OFFSET -1`); err == nil {
		t.Error("negative OFFSET accepted")
	}
	q := sparql.MustParse(`SELECT ?v WHERE { ?i score ?v } ORDER BY ASC(?v) DESC(?v)`)
	if len(q.OrderBy) != 2 || q.OrderBy[0].Desc || !q.OrderBy[1].Desc {
		t.Errorf("OrderBy = %v", q.OrderBy)
	}
	if q.OrderBy[0].String() != "?v" || q.OrderBy[1].String() != "DESC(?v)" {
		t.Errorf("OrderKey strings: %v", q.OrderBy)
	}
}
