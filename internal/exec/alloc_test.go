package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
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
			k := fmtRowKey(out)
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

// fmtRowKey is the DISTINCT key as text, as it was built before appendRowKey:
// the equality appendRowKey keeps.
func fmtRowKey(vals []Value) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d|%g|%v;", v.ID, v.Num, v.IsNum)
	}
	return b.String()
}

// TestRowKeyKeepsTextKeyEquality: two rows share a binary key exactly when
// they shared a text key — -0 and 0 stay apart, every NaN is one NaN, and a
// tagged predicate never meets the entity with its low bits.
func TestRowKeyKeepsTextKeyEquality(t *testing.T) {
	num := func(f float64) Value { return Value{Num: f, IsNum: true} }
	cells := []Value{
		{}, {ID: 5}, {ID: TagPred(5)}, {ID: 5, Num: 0, IsNum: true},
		num(0), num(math.Copysign(0, -1)), num(1), num(math.Nextafter(1, 2)),
		num(math.NaN()), num(math.Float64frombits(0x7ff8000000000001)), num(math.Float64frombits(0xfff8000000000000)),
		num(math.Inf(1)), num(math.Inf(-1)), {Num: 1, IsNum: false},
	}
	var rows [][]Value
	for _, a := range cells {
		rows = append(rows, []Value{a})
		for _, b := range cells {
			rows = append(rows, []Value{a, b})
		}
	}
	for _, a := range rows {
		ka := string(appendRowKey(nil, a))
		if len(ka) != rowKeyWidth*len(a) {
			t.Fatalf("key of %v is %d bytes, want %d", a, len(ka), rowKeyWidth*len(a))
		}
		for _, b := range rows {
			text := fmtRowKey(a) == fmtRowKey(b)
			if bin := ka == string(appendRowKey(nil, b)); bin != text {
				t.Errorf("%v vs %v: binary keys equal = %v, text keys equal = %v", a, b, bin, text)
			}
		}
	}

	// Through Project: a tagged predicate and the entity with its ID are two
	// rows, a repeat of either is not.
	q, err := sparql.Parse(`SELECT DISTINCT ?A WHERE { ?A p ?B }`)
	if err != nil {
		t.Fatal(err)
	}
	tbl := &Table{Vars: []string{"A", "B"}, Rows: [][]rdf.ID{{5, 1}, {TagPred(5), 1}, {5, 2}, {TagPred(5), 3}}}
	rs, err := Project(q, tbl, strserver.New())
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]Value{{{ID: 5}}, {{ID: TagPred(5)}}}; !reflect.DeepEqual(rs.Rows, want) {
		t.Errorf("DISTINCT rows = %v, want %v", rs.Rows, want)
	}
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

// DISTINCT and GROUP BY allocate per distinct key (its string, and a group's
// state), never per input row. The ceilings are 1.5× what this tree
// measures, 46 and 64; with fmt-built text keys the same calls made 1 510
// and 1 545 allocations.
func TestProjectKeyAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tbl, ss := seededTable(500), strserver.New()
	for _, c := range []struct {
		text string
		max  float64
	}{
		// 36 (A, B) pairs; 9 groups of A.
		{`SELECT DISTINCT ?A ?B WHERE { ?A p ?B . ?B p ?C }`, 69},
		{`SELECT ?A (COUNT(*) AS ?N) WHERE { ?A p ?B . ?B p ?C } GROUP BY ?A`, 96},
	} {
		q, err := sparql.Parse(c.text)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(100, func() {
			if _, err := Project(q, tbl, ss); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.max {
			t.Errorf("%s over 500 rows allocates %.0f times, want ≤ %.0f", c.text, n, c.max)
		}
	}
}
