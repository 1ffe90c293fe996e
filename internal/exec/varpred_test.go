package exec

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/sparql"
)

// names decodes (entity or predicate) cells for assertions.
func decodeCell(f *fixture, v Value) string {
	if pid, ok := UntagPred(v.ID); ok {
		iri, _ := f.ss.Predicate(pid)
		return iri
	}
	term, _ := f.ss.Entity(v.ID)
	return term.Value
}

func runVP(t *testing.T, f *fixture, src string) [][]string {
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
	var out [][]string
	for ri := 0; ri < rs.Len(); ri++ {
		row := rowOf(rs, ri)
		var cells []string
		for _, v := range row {
			cells = append(cells, decodeCell(f, v))
		}
		out = append(out, cells)
	}
	sort.Slice(out, func(i, j int) bool { return strings.Join(out[i], " ") < strings.Join(out[j], " ") })
	return out
}

func TestVarPredicateEnumeratesEdges(t *testing.T) {
	f := newFixture(t, 4) // Fig. 1 data
	rows := runVP(t, f, `SELECT ?p ?o WHERE { Logan ?p ?o }`)
	// Logan in the exec fixture: fo Erik, po T-13/T-14/T-15.
	preds := map[string]int{}
	for _, r := range rows {
		preds[r[0]]++
	}
	if preds["fo"] != 1 || preds["po"] != 3 || len(preds) != 2 {
		t.Errorf("predicate histogram = %v (rows %v)", preds, rows)
	}
}

func TestVarPredicateIncomingDirection(t *testing.T) {
	f := newFixture(t, 2)
	rows := runVP(t, f, `SELECT ?p ?s WHERE { ?s ?p T-13 }`)
	// T-13: po from Logan, li from Erik (ht edge points OUT of T-13).
	got := map[string]string{}
	for _, r := range rows {
		got[r[0]] = r[1]
	}
	if got["po"] != "Logan" || got["li"] != "Erik" || len(got) != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestVarPredicateSharedAcrossPatterns(t *testing.T) {
	f := newFixture(t, 2)
	// Same-predicate join: relations Logan and Erik share toward anything.
	rows := runVP(t, f, `SELECT ?p ?x ?y WHERE { Logan ?p ?x . Erik ?p ?y }`)
	for _, r := range rows {
		if r[0] == "" {
			t.Fatalf("unbound predicate in %v", rows)
		}
	}
	// Both have ty, fo, po, li... Logan has no li; intersection must not
	// contain ht (neither subject has out-ht).
	for _, r := range rows {
		if r[0] == "ht" {
			t.Errorf("impossible shared predicate ht: %v", r)
		}
	}
}

func TestVarPredicateWithFilterEquality(t *testing.T) {
	f := newFixture(t, 2)
	rows := runVP(t, f, `SELECT ?p ?o WHERE { Logan ?p ?o . FILTER (?p = po) }`)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r[0] != "po" {
			t.Errorf("filtered predicate = %v", r)
		}
	}
	rows = runVP(t, f, `SELECT ?p ?o WHERE { Logan ?p ?o . FILTER (?p != po) }`)
	for _, r := range rows {
		if r[0] == "po" {
			t.Errorf("negated filter kept po: %v", r)
		}
	}
}

func TestVarPredicateRejections(t *testing.T) {
	f := newFixture(t, 2)
	// No bound endpoint anywhere: rejected.
	q := sparql.MustParse(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if _, err := plan.Compile(q, f.ss, statsAdapter{f}); err == nil {
		t.Error("fully unbound variable-predicate pattern accepted")
	}
	// Over a stream window: rejected.
	q = sparql.MustParse(`
SELECT ?p ?o FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE { GRAPH Tweet_Stream { Logan ?p ?o } }`)
	if _, err := plan.Compile(q, f.ss, statsAdapter{f}); err == nil {
		t.Error("variable predicate over a stream accepted")
	}
}

func TestVarPredicateAfterBindingPattern(t *testing.T) {
	f := newFixture(t, 2)
	// ?x binds from the first pattern; the var-pred pattern then explores
	// from the bound ?x.
	rows := runVP(t, f, `SELECT ?x ?p ?y WHERE { Logan po ?x . ?x ?p ?y }`)
	// Posts have outgoing ht edges (T-13 ht sosp17).
	found := false
	for _, r := range rows {
		if r[0] == "T-13" && r[1] == "ht" && r[2] == "sosp17" {
			found = true
		}
	}
	if !found {
		t.Errorf("rows = %v", rows)
	}
}
