package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/race"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// AppendRows is the one row renderer (Strings, QUERY replies and POLL
// buffers all go through it), so it is pinned against the rendering Strings
// used before it existed: every cell decoded to a term by Row, the terms'
// values joined by one space.
func TestAppendRowsMatchesTermValues(t *testing.T) {
	ss := strserver.New()
	iri := ss.InternEntity(rdf.NewIRI("http://example.org/Logan"))
	plain := ss.InternEntity(rdf.NewLiteral("a plain literal"))
	typed := ss.InternEntity(rdf.NewIntLiteral(42))
	blank := ss.InternEntity(rdf.NewBlank("b0"))
	quoted := ss.InternEntity(rdf.NewLiteral(`say "hi" twice`))
	po, _ := ss.InternPredicate("po")
	pred := exec.TagPred(po)
	id := func(v rdf.ID) exec.Value { return exec.Value{ID: v} }
	num := func(f float64) exec.Value { return exec.Value{Num: f, IsNum: true} }

	cases := []struct {
		name string
		row  []exec.Value
		want string
	}{
		{"IRI", []exec.Value{id(iri)}, "http://example.org/Logan"},
		{"literals", []exec.Value{id(plain), id(typed), id(quoted)}, `a plain literal 42 say "hi" twice`},
		{"blank node", []exec.Value{id(blank), id(iri)}, "b0 http://example.org/Logan"},
		{"floats", []exec.Value{num(2.5), num(3), num(1e21), num(-0.125)}, "2.5 3 1e+21 -0.125"},
		{"float edges", []exec.Value{num(math.NaN()), num(math.Inf(1)), num(math.Inf(-1)), num(math.Copysign(0, -1)), num(5e-324), num(1.2345678901234568e+17)},
			"NaN +Inf -Inf -0 5e-324 1.2345678901234568e+17"},
		{"unbound cells", []exec.Value{id(0), id(iri), id(0), id(0)}, " http://example.org/Logan  "},
		{"tagged predicate", []exec.Value{id(pred), id(iri)}, "po http://example.org/Logan"},
		{"unknown tagged predicate falls through to the entity table", []exec.Value{id(exec.TagPred(999))}, "unknown-id-4611686018427388903"},
		{"unknown entity", []exec.Value{id(iri), id(987654)}, "http://example.org/Logan unknown-id-987654"},
		{"no columns", nil, ""},
	}
	for _, c := range cases {
		vars := make([]string, len(c.row))
		for j := range vars {
			vars[j] = fmt.Sprintf("v%d", j)
		}
		// Each case is a one-row result of its own: a row is as wide as
		// its result's Vars.
		r := &Result{set: exec.ResultOf(vars, c.row), ss: ss}
		if got := termValues(r, 0); got != c.want {
			t.Errorf("%s: the term rendering is %q, the table expects %q", c.name, got, c.want)
		}
		checkRendering(t, c.name, r)
	}
}

// termValues is row i as Row decodes it, the terms' values joined by one
// space: the rendering AppendRows must reproduce.
func termValues(r *Result, i int) string {
	terms := r.Row(i)
	values := make([]string, len(terms))
	for j, term := range terms {
		values[j] = term.Value
	}
	return strings.Join(values, " ")
}

// checkRendering compares every row AppendRows renders, with and without a
// prefix, and every row of Strings, against termValues.
func checkRendering(t *testing.T, name string, r *Result) {
	t.Helper()
	for _, prefix := range []string{"", "@100 "} {
		var rows []string
		out := r.AppendRows([]byte("head"), []byte(prefix), func(row []byte) []byte {
			rows = append(rows, string(row))
			return row[:0]
		})
		if r.Len() == 0 && string(out) != "head" {
			t.Errorf("%s: AppendRows of no rows left %q", name, out)
		}
		if len(rows) != r.Len() {
			t.Fatalf("%s: AppendRows ended %d rows, want %d", name, len(rows), r.Len())
		}
		for i, got := range rows {
			want := prefix + termValues(r, i)
			if i == 0 {
				want = "head" + want
			}
			if got != want {
				t.Errorf("%s: row %d with prefix %q = %q, want %q", name, i, prefix, got, want)
			}
		}
	}
	all := r.Strings()
	if len(all) != r.Len() {
		t.Fatalf("%s: Strings has %d rows, want %d", name, len(all), r.Len())
	}
	for i, got := range all {
		if want := termValues(r, i); got != want {
			t.Errorf("%s: Strings()[%d] = %q, want %q", name, i, got, want)
		}
	}
}

// A result renders a block of strserver.Block cells per string-server read,
// so blocks end inside rows and results end inside blocks. Every row count
// around a block's size, on every narrow width, mixing every cell kind,
// renders as Row decodes it — through a result that owns its cells and
// through a plain SELECT's view of a wider binding table.
func TestAppendRowsAcrossBlockEdges(t *testing.T) {
	ss := strserver.New()
	po, _ := ss.InternPredicate("po")
	var ents []rdf.ID
	for i := 0; i < 40; i++ {
		ents = append(ents,
			ss.InternEntity(rdf.NewIRI(fmt.Sprintf("http://example.org/e%d", i))),
			ss.InternEntity(rdf.NewIntLiteral(int64(i))),
			ss.InternEntity(rdf.NewLiteral(fmt.Sprintf(`say "%d"`, i))))
	}
	// cell k of a result: mostly entities, with numbers, unbound cells,
	// tagged predicates (known and not) and unknown IDs among them.
	cell := func(k int) exec.Value {
		switch k % 11 {
		case 3:
			return exec.Value{Num: float64(k) / 4, IsNum: true}
		case 5:
			return exec.Value{} // unbound
		case 7:
			return exec.Value{ID: exec.TagPred(po)}
		case 8:
			if k%2 == 0 {
				return exec.Value{ID: exec.TagPred(999)}
			}
			return exec.Value{ID: 987654 + rdf.ID(k)} // unknown
		}
		return exec.Value{ID: ents[(k*7)%len(ents)]}
	}
	for _, rows := range []int{0, 1, 63, 64, 65, 200} {
		for width := 1; width <= 3; width++ {
			vars := []string{"a", "b", "c"}[:width]
			vals := make([][]exec.Value, rows)
			for i := range vals {
				for j := 0; j < width; j++ {
					vals[i] = append(vals[i], cell(i*width+j))
				}
			}
			name := fmt.Sprintf("%d rows × %d", rows, width)
			checkRendering(t, name, &Result{set: exec.ResultOf(vars, vals...), ss: ss})

			// The same ID cells (numbers left unbound) as a view over a
			// four-column table, projected out of order.
			tbl := &exec.Table{Vars: []string{"a", "x", "c", "b"}}
			for i := range vals {
				row := make([]rdf.ID, 4)
				for j, c := range []int{0, 3, 2}[:width] {
					row[c] = vals[i][j].ID
				}
				row[1] = ents[i%len(ents)]
				tbl.AppendRow(row)
			}
			q := "SELECT " + []string{"?a", "?b ?a", "?c ?a ?b"}[width-1] + " WHERE { ?a ?x ?b . ?b ?x ?c }"
			view, err := exec.Project(sparql.MustParse(q), tbl, ss)
			if err != nil {
				t.Fatal(err)
			}
			checkRendering(t, name+" (view)", &Result{set: view, ss: ss})
		}
	}
}

// Rendering into a buffer with room copies bytes out of the string server
// and formats numbers in place: no cell kind allocates, nor does a block
// read.
func TestAppendRowsDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ss := strserver.New()
	po, _ := ss.InternPredicate("po")
	row := []exec.Value{
		{ID: ss.InternEntity(rdf.NewIRI("http://example.org/Logan"))},
		{ID: exec.TagPred(po)},
		{ID: ss.InternEntity(rdf.NewLiteral("T-13"))},
		{}, // unbound
		{ID: ss.InternEntity(rdf.NewIntLiteral(7))},
		{Num: 2.5, IsNum: true},
		{ID: 987654}, // unknown
	}
	r := &Result{set: exec.ResultOf([]string{"s", "p", "o", "u", "n", "a", "x"}, row), ss: ss}
	buf := make([]byte, 0, 256)
	keep := func(row []byte) []byte { return row }
	if allocs := testing.AllocsPerRun(200, func() { buf = r.AppendRows(buf[:0], nil, keep) }); allocs != 0 {
		t.Errorf("AppendRows into a pre-sized buffer allocates %v times per row", allocs)
	}
	if got, want := string(buf), "http://example.org/Logan po T-13  7 2.5 unknown-id-987654"; got != want {
		t.Errorf("rendered %q, want %q", got, want)
	}

	// A plain SELECT's row is read through its column map, straight out of
	// the binding table: no allocation either.
	tbl := exec.TableOf([]string{"s", "p", "o", "u"}, []rdf.ID{row[0].ID, row[1].ID, row[2].ID, 0})
	view, err := exec.Project(sparql.MustParse(`SELECT ?o ?u ?p ?s WHERE { ?s ?p ?o . ?o ?p ?u }`), tbl, ss)
	if err != nil {
		t.Fatal(err)
	}
	r = &Result{set: view, ss: ss}
	if allocs := testing.AllocsPerRun(200, func() { buf = r.AppendRows(buf[:0], nil, keep) }); allocs != 0 {
		t.Errorf("AppendRows of a projected view allocates %v times per row", allocs)
	}
	if got, want := string(buf), "T-13  po http://example.org/Logan"; got != want {
		t.Errorf("rendered %q, want %q", got, want)
	}

	// Many rows, so blocks end inside rows: still nothing per row or block.
	rows := make([][]exec.Value, 200)
	for i := range rows {
		rows[i] = row[i%5 : i%5+3]
	}
	r = &Result{set: exec.ResultOf([]string{"a", "b", "c"}, rows...), ss: ss}
	buf, prefix := make([]byte, 0, 64<<10), []byte("@100 ")
	if allocs := testing.AllocsPerRun(50, func() { buf = r.AppendRows(buf[:0], prefix, keep) }); allocs != 0 {
		t.Errorf("AppendRows of 200 rows allocates %v times", allocs)
	}
}
