package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// TestTableRowsDoNotShareCapacity: a row is at full capacity, so appending
// to it copies instead of writing into the next row; a table built by every
// append form holds exactly the cells appended.
func TestTableRowsDoNotShareCapacity(t *testing.T) {
	tbl := &Table{Vars: []string{"a", "b", "c"}}
	tbl.Grow(2)
	tbl.AppendExtended([]rdf.ID{1, 2}, 3)
	tbl.AppendExtended([]rdf.ID{4, 5}, 6)
	r1, r2 := tbl.Row(0), tbl.Row(1)
	if len(r1) != 3 || cap(r1) != 3 || len(r2) != 3 || cap(r2) != 3 {
		t.Fatalf("rows len/cap = %d/%d and %d/%d, want 3/3 each", len(r1), cap(r1), len(r2), cap(r2))
	}
	grown := append(r1, 99)
	grown[0] = 77
	if !reflect.DeepEqual(tbl.Row(1), []rdf.ID{4, 5, 6}) {
		t.Errorf("appending to a row changed its neighbour: %v", tbl.Row(1))
	}
	if tbl.Row(0)[0] != 1 {
		t.Errorf("appending to a row wrote through to it: %v", tbl.Row(0))
	}
	// A thousand more rows stay zeroed when added, and intact afterwards.
	for i := 0; i < 1000; i++ {
		r := tbl.AddRow()
		for _, c := range r {
			if c != 0 {
				t.Fatalf("row %d is not zeroed: %v", i, r)
			}
		}
		r[0], r[1], r[2] = rdf.ID(i), rdf.ID(i), rdf.ID(i)
	}
	if tbl.Len() != 1002 || len(tbl.Cells) != 3*1002 {
		t.Fatalf("%d rows in %d cells, want 1002 in %d", tbl.Len(), len(tbl.Cells), 3*1002)
	}
	for i := 0; i < 1000; i++ {
		if r := tbl.Row(2 + i); !reflect.DeepEqual(r, []rdf.ID{rdf.ID(i), rdf.ID(i), rdf.ID(i)}) {
			t.Fatalf("row %d was overwritten: %v", 2+i, r)
		}
	}
	// The unit seed is one row of no cells.
	if u := Unit(); u.Len() != 1 || len(u.Row(0)) != 0 {
		t.Errorf("unit seed: %d rows, row 0 = %v", u.Len(), u.Row(0))
	}
}

// TestSubsetSharesUntilItSkips: a subset that keeps every row is its source,
// one that keeps a prefix shares the source's cells, and one that skips a
// row copies.
func TestSubsetSharesUntilItSkips(t *testing.T) {
	src := TableOf([]string{"a"}, []rdf.ID{1}, []rdf.ID{2}, []rdf.ID{3})
	keep := func(rows ...int) *Table {
		s := NewSubset(src)
		for _, i := range rows {
			s.Keep(i)
		}
		return s.Table()
	}
	if got := keep(0, 1, 2); got != src {
		t.Errorf("keeping every row made a new table: %v", got.Cells)
	}
	if got := keep(0, 1); got.Len() != 2 || &got.Cells[0] != &src.Cells[0] {
		t.Errorf("a kept prefix: %v, shared = %v", got.Cells, &got.Cells[0] == &src.Cells[0])
	}
	if got := keep(0, 2); !reflect.DeepEqual(got.Cells, []rdf.ID{1, 3}) || &got.Cells[0] == &src.Cells[0] {
		t.Errorf("skipping a row: %v", got.Cells)
	}
	if got := keep(); got.Len() != 0 {
		t.Errorf("keeping nothing: %d rows", got.Len())
	}
}

// projectReference is Project's plain projection as it was before results
// were flat: one []Value per row, Rows grown by append, modifiers applied
// to the row slices.
func projectReference(q *sparql.Query, tbl *Table, res TermResolver) (vars []string, rows [][]Value) {
	cols := make([]int, len(q.Select))
	for i, pr := range q.Select {
		vars = append(vars, pr.As)
		cols[i] = tbl.Col(pr.Var)
	}
	earlyLimit := q.Limit > 0 && len(q.OrderBy) == 0 && q.Offset == 0
	seen := map[string]bool{}
	for r := 0; r < tbl.Len(); r++ {
		row := tbl.Row(r)
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
		rows = append(rows, out)
		if earlyLimit && len(rows) >= q.Limit {
			break
		}
	}
	if len(q.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range q.OrderBy {
				c := slices.Index(vars, k.Var)
				cmp := compareValues(rows[i][c], rows[j][c], res)
				if cmp == 0 {
					continue
				}
				if k.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
	}
	rows = rows[min(q.Offset, len(rows)):]
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return vars, rows
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

// TestRowKeyKeepsTextKeyEquality: two rows of ID cells share a binary key
// exactly when they shared a text key — a tagged predicate never meets the
// entity with its low bits, and an unbound cell is a value of its own.
func TestRowKeyKeepsTextKeyEquality(t *testing.T) {
	cells := []rdf.ID{Unbound, 1, 5, TagPred(5), 256, 1<<46 - 1, TagPred(1<<46 - 1)}
	var rows [][]rdf.ID
	for _, a := range cells {
		rows = append(rows, []rdf.ID{a})
		for _, b := range cells {
			rows = append(rows, []rdf.ID{a, b})
		}
	}
	text := func(row []rdf.ID) string {
		vals := make([]Value, len(row))
		for i, id := range row {
			vals[i] = Value{ID: id}
		}
		return fmtRowKey(vals)
	}
	for _, a := range rows {
		cols := identityCols(len(a))
		ka := string(appendRowKey(nil, a, cols))
		if len(ka) != 8*len(a) {
			t.Fatalf("key of %v is %d bytes, want %d", a, len(ka), 8*len(a))
		}
		for _, b := range rows {
			same := text(a) == text(b)
			if bin := ka == string(appendRowKey(nil, b, identityCols(len(b)))); bin != same {
				t.Errorf("%v vs %v: binary keys equal = %v, text keys equal = %v", a, b, bin, same)
			}
		}
	}

	// Through Project: a tagged predicate and the entity with its ID are two
	// rows, a repeat of either is not.
	q, err := sparql.Parse(`SELECT DISTINCT ?A WHERE { ?A p ?B }`)
	if err != nil {
		t.Fatal(err)
	}
	tbl := TableOf([]string{"A", "B"}, []rdf.ID{5, 1}, []rdf.ID{TagPred(5), 1}, []rdf.ID{5, 2}, []rdf.ID{TagPred(5), 3})
	rs, err := Project(q, tbl, strserver.New())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultRows(rs), [][]Value{{{ID: 5}}, {{ID: TagPred(5)}}}; !reflect.DeepEqual(got, want) {
		t.Errorf("DISTINCT rows = %v, want %v", got, want)
	}
}

// rowOf copies row i of a result set out.
func rowOf(rs *ResultSet, i int) []Value {
	row := make([]Value, len(rs.Vars))
	for j := range row {
		row[j] = rs.Cell(i, j)
	}
	return row
}

// resultRows copies a result set's rows out, one slice each.
func resultRows(rs *ResultSet) [][]Value {
	rows := make([][]Value, rs.Len())
	for i := range rows {
		rows[i] = rowOf(rs, i)
	}
	return rows
}

func seededTable(rows int) *Table {
	rng := rand.New(rand.NewSource(11))
	tbl := &Table{Vars: []string{"A", "B", "C"}}
	for i := 0; i < rows; i++ {
		// Few distinct values (DISTINCT has work to do) and some unbound cells.
		tbl.AppendRow([]rdf.ID{rdf.ID(1 + rng.Intn(9)), rdf.ID(rng.Intn(4)), rdf.ID(1 + rng.Intn(500))})
	}
	return tbl
}

// TestProjectMatchesReference: every projection, view or copy, reads the
// rows the row-slice projection built, and none writes the table it reads.
func TestProjectMatchesReference(t *testing.T) {
	ss := strserver.New()
	for i := 0; i < 600; i++ {
		ss.InternEntity(rdf.NewIRI(fmt.Sprintf("e%03d", (i*7919)%600)))
	}
	for _, rows := range []int{0, 1, 500} {
		tbl := seededTable(rows)
		before := tbl.Clone()
		for _, text := range []string{
			`SELECT ?A ?B ?C WHERE { ?A p ?B . ?B p ?C }`,
			`SELECT ?C ?A WHERE { ?A p ?B . ?B p ?C }`,
			`SELECT DISTINCT ?A ?B WHERE { ?A p ?B . ?B p ?C }`,
			`SELECT ?A ?C WHERE { ?A p ?B . ?B p ?C } LIMIT 7`,
			`SELECT ?A ?C WHERE { ?A p ?B . ?B p ?C } OFFSET 490 LIMIT 7`,
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
			wantVars, want := projectReference(q, tbl, ss)
			if !reflect.DeepEqual(got.Vars, wantVars) || got.Len() != len(want) {
				t.Fatalf("%s over %d rows: vars %v rows %d, want vars %v rows %d",
					text, rows, got.Vars, got.Len(), wantVars, len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(rowOf(got, i), want[i]) {
					t.Fatalf("%s over %d rows: row %d = %v, want %v", text, rows, i, rowOf(got, i), want[i])
				}
			}
			got.Sort()
			if !reflect.DeepEqual(tbl.Cells, before.Cells) {
				t.Fatalf("%s: projecting and sorting the result wrote the table's cells", text)
			}
		}
	}
}

// ORDER BY resolves each key cell once, a block of lexical forms per
// string-server read, and must order rows exactly as compareValues does on
// every comparison: over numbers (NaN among them, which ties with every
// number), literals, IRIs, unbound cells, tagged predicates and unknown IDs,
// on one key and two, ascending and descending, on ID results and on
// aggregate results, across block edges.
func TestOrderByMatchesCompareValues(t *testing.T) {
	ss := strserver.New()
	var cells []Value
	for i := 0; i < 12; i++ {
		cells = append(cells,
			Value{ID: ss.InternEntity(rdf.NewIRI(fmt.Sprintf("e%02d", (i*5)%12)))},
			Value{ID: ss.InternEntity(rdf.NewLiteral(fmt.Sprintf("lit %d", i%4)))},
			Value{ID: ss.InternEntity(rdf.NewIntLiteral(int64(i%5 - 2)))},
			Value{Num: float64(i % 3), IsNum: true})
	}
	cells = append(cells,
		Value{ID: ss.InternEntity(rdf.NewTypedLiteral("NaN", rdf.XSDDouble))},
		Value{Num: math.NaN(), IsNum: true},
		Value{ID: Unbound}, Value{ID: TagPred(3)}, Value{ID: 987654})
	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{0, 1, 63, 64, 65, 300} {
		for _, agg := range []bool{false, true} {
			vals := make([][]Value, rows)
			for i := range vals {
				for j := 0; j < 3; j++ {
					v := cells[rng.Intn(len(cells))]
					if !agg && v.IsNum {
						v = Value{ID: Unbound}
					}
					vals[i] = append(vals[i], v)
				}
			}
			for _, order := range []string{"?a", "DESC(?b)", "?c DESC(?a)", "DESC(?b) ?c ?a"} {
				q := sparql.MustParse("SELECT ?a ?b ?c WHERE { ?a p ?b . ?b p ?c } ORDER BY " + order)
				rs := ResultOf([]string{"a", "b", "c"}, vals...)
				if !agg {
					tbl := &Table{Vars: []string{"a", "b", "c"}}
					for _, row := range vals {
						tbl.AppendRow([]rdf.ID{row[0].ID, row[1].ID, row[2].ID})
					}
					rs, _ = Project(q, tbl, ss)
				} else {
					rs = applyModifiers(q, rs, ss)
				}
				want := slices.Clone(vals)
				sort.SliceStable(want, func(i, j int) bool {
					for _, k := range q.OrderBy {
						c := slices.Index([]string{"a", "b", "c"}, k.Var)
						if cmp := compareValues(want[i][c], want[j][c], ss); cmp != 0 {
							return cmp < 0 != k.Desc
						}
					}
					return false
				})
				got := resultRows(rs)
				for i := range want {
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Fatalf("%d rows (aggregate %v) ORDER BY %s: row %d = %v, want %v", rows, agg, order, i, got[i], want[i])
					}
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
	}); n > 1 {
		t.Errorf("Project of 500 rows allocates %.0f times, want ≤ 1: a plain SELECT copies no cell", n)
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

// compareValues is ORDER BY's comparison as it was before sort keys were
// resolved once per row: numbers numerically (aggregates and numeric
// literals), then terms lexically, then raw IDs, each cell resolved again
// on every comparison.
func compareValues(a, b Value, res TermResolver) int {
	an, aok := valueNum(a, res)
	bn, bok := valueNum(b, res)
	switch {
	case aok && bok:
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		default:
			return 0
		}
	case aok:
		return -1 // numbers order before non-numbers, as in SPARQL
	case bok:
		return 1
	}
	if tl, ok := res.(interface {
		Lexical(rdf.ID) (string, bool)
	}); ok {
		al, aok := tl.Lexical(a.ID)
		bl, bok := tl.Lexical(b.ID)
		if aok && bok {
			return strings.Compare(al, bl)
		}
	}
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}
