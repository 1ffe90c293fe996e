package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/race"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// TestRowArenaRowsDoNotShareCapacity: rows carved from one chunk are at full
// capacity, so appending to one copies it instead of writing into the next.
func TestRowArenaRowsDoNotShareCapacity(t *testing.T) {
	var a RowArena
	a.Grow(6)
	r1 := a.Extend([]rdf.ID{1, 2}, 3)
	r2 := a.Extend([]rdf.ID{4, 5}, 6)
	if len(r1) != 3 || cap(r1) != 3 || len(r2) != 3 || cap(r2) != 3 {
		t.Fatalf("rows len/cap = %d/%d and %d/%d, want 3/3 each", len(r1), cap(r1), len(r2), cap(r2))
	}
	if &r1[:cap(r1)][2] == &r2[0] {
		t.Fatal("rows overlap")
	}
	grown := append(r1, 99)
	grown[0] = 77
	if !reflect.DeepEqual(r2, []rdf.ID{4, 5, 6}) {
		t.Errorf("appending to a row changed its neighbour: %v", r2)
	}
	if r1[0] != 1 {
		t.Errorf("appending to a row wrote through to it: %v", r1)
	}
	// A thousand more rows, of mixed widths, stay zeroed, distinct and intact.
	var rows [][]rdf.ID
	for i := 0; i < 1000; i++ {
		r := a.Row(1 + i%4)
		for _, c := range r {
			if c != 0 {
				t.Fatalf("row %d is not zeroed: %v", i, r)
			}
		}
		for j := range r {
			r[j] = rdf.ID(i)
		}
		rows = append(rows, r)
	}
	for i, r := range rows {
		for _, c := range r {
			if c != rdf.ID(i) {
				t.Fatalf("row %d was overwritten: %v", i, r)
			}
		}
	}
}

// projectReference is Project's plain-projection loop as it was before the
// cells were carved from one chunk: one []Value per row, Rows grown by append.
func projectReference(q *sparql.Query, tbl *Table, res TermResolver) *ResultSet {
	rs := &ResultSet{}
	cols := make([]int, len(q.Select))
	for i, pr := range q.Select {
		rs.Vars = append(rs.Vars, pr.As)
		cols[i] = tbl.Col(pr.Var)
	}
	earlyLimit := q.Limit > 0 && len(q.OrderBy) == 0 && q.Offset == 0
	seen := map[string]bool{}
	for _, row := range tbl.Rows {
		out := make([]Value, len(cols))
		for i, c := range cols {
			out[i] = Value{ID: row[c]}
		}
		if q.Distinct {
			k := rowKeyVals(out)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		rs.Rows = append(rs.Rows, out)
		if earlyLimit && len(rs.Rows) >= q.Limit {
			break
		}
	}
	return applyModifiers(q, rs, res)
}

func seededTable(rows int) *Table {
	rng := rand.New(rand.NewSource(11))
	tbl := &Table{Vars: []string{"A", "B", "C"}}
	for i := 0; i < rows; i++ {
		// Few distinct values (DISTINCT has work to do) and some unbound cells.
		tbl.Rows = append(tbl.Rows, []rdf.ID{rdf.ID(1 + rng.Intn(9)), rdf.ID(rng.Intn(4)), rdf.ID(1 + rng.Intn(500))})
	}
	return tbl
}

func TestProjectMatchesReference(t *testing.T) {
	ss := strserver.New()
	for i := 0; i < 600; i++ {
		ss.InternEntity(rdf.NewIRI(fmt.Sprintf("e%03d", (i*7919)%600)))
	}
	for _, rows := range []int{0, 1, 500} {
		tbl := seededTable(rows)
		for _, text := range []string{
			`SELECT ?A ?B ?C WHERE { ?A p ?B . ?B p ?C }`,
			`SELECT ?C ?A WHERE { ?A p ?B . ?B p ?C }`,
			`SELECT DISTINCT ?A ?B WHERE { ?A p ?B . ?B p ?C }`,
			`SELECT ?A ?C WHERE { ?A p ?B . ?B p ?C } LIMIT 7`,
			`SELECT DISTINCT ?A WHERE { ?A p ?B . ?B p ?C } LIMIT 4`,
			`SELECT ?A ?C WHERE { ?A p ?B . ?B p ?C } ORDER BY ?C LIMIT 9`,
			`SELECT ?A ?C WHERE { ?A p ?B . ?B p ?C } ORDER BY DESC(?C) OFFSET 5 LIMIT 9`,
			`SELECT DISTINCT ?B ?A WHERE { ?A p ?B . ?B p ?C } OFFSET 3`,
		} {
			q, err := sparql.Parse(text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			got, err := Project(q, tbl, ss)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			want := projectReference(q, tbl, ss)
			if !reflect.DeepEqual(got.Vars, want.Vars) || len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s over %d rows: vars %v rows %d, want vars %v rows %d",
					text, rows, got.Vars, len(got.Rows), want.Vars, len(want.Rows))
			}
			for i := range got.Rows {
				if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
					t.Fatalf("%s over %d rows: row %d = %v, want %v", text, rows, i, got.Rows[i], want.Rows[i])
				}
				if cap(got.Rows[i]) != len(got.Rows[i]) {
					t.Fatalf("%s: row %d has spare capacity %d; an append would reach its neighbour",
						text, i, cap(got.Rows[i])-len(got.Rows[i]))
				}
			}
		}
	}
}

func TestProjectAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	q, err := sparql.Parse(`SELECT ?A ?C WHERE { ?A p ?B . ?B p ?C }`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, ss := seededTable(500), strserver.New()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Project(q, tbl, ss); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("Project of 500 rows allocates %.0f times, want ≤ 3", n)
	}
}
