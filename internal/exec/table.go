// Package exec implements Wukong+S's graph-exploration query executor.
//
// A query plan (package plan) is a sequence of steps over a binding table.
// Execution has two modes, mirroring the paper (§5 "Leveraging RDMA"):
//
//   - InPlace: a single worker on one node runs the whole plan, fetching
//     remote data with one-sided reads. Best for selective queries — the
//     paper's default for continuous queries.
//   - ForkJoin: expansion steps scatter table partitions to the data's home
//     nodes, apply the step locally in parallel, and gather results. Best
//     for non-selective queries and the only option without RDMA.
//
// Data access is abstracted: stored patterns read the persistent store at a
// snapshot number, stream patterns read their window through the stream
// index and the transient store.
package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Table is a binding table: a column per variable and rows of entity IDs,
// stored flat, row after row, in one cell slice. Row i is
// Cells[i*w:(i+1)*w] with w = len(Vars). A table is immutable once built:
// later steps, fork-join branches, projected results and delta firing's
// cache may all read its cells, so nothing writes them again.
type Table struct {
	Vars  []string
	Cells []rdf.ID
	// rows is the row count: len(Cells)/len(Vars), except for a zero-width
	// table (the unit seed), whose rows hold no cells.
	rows int
}

// Unit returns the unit seed: one row that binds nothing.
func Unit() *Table { return &Table{rows: 1} }

// TableOf returns a table holding rows, each len(vars) cells.
func TableOf(vars []string, rows ...[]rdf.ID) *Table {
	t := &Table{Vars: vars, Cells: make([]rdf.ID, 0, len(vars)*len(rows))}
	for _, r := range rows {
		t.AppendRow(r)
	}
	return t
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.rows }

// Row returns row i. It shares the table's cells, so it is read-only; it is
// at full capacity, so appending to it copies.
func (t *Table) Row(i int) []rdf.ID {
	w := len(t.Vars)
	return t.Cells[i*w : (i+1)*w : (i+1)*w]
}

// Grow makes room for rows more rows without another allocation.
func (t *Table) Grow(rows int) {
	t.Cells = slices.Grow(t.Cells, rows*len(t.Vars))
}

// AppendRow appends a row of len(Vars) cells.
func (t *Table) AppendRow(row []rdf.ID) {
	t.Cells = append(t.Cells, row...)
	t.rows++
}

// AppendExtended appends row followed by last: the row of a table one
// column narrower, extended by its new variable.
func (t *Table) AppendExtended(row []rdf.ID, last rdf.ID) {
	t.Cells = append(append(t.Cells, row...), last)
	t.rows++
}

// AddRow appends a zeroed row (every cell Unbound) and returns it for the
// caller to fill before the next append.
func (t *Table) AddRow() []rdf.ID {
	w := len(t.Vars)
	n := len(t.Cells)
	t.Cells = slices.Grow(t.Cells, w)[:n+w]
	clear(t.Cells[n:])
	t.rows++
	return t.Cells[n : n+w : n+w]
}

// Concat returns one table holding every part's rows in order. The parts
// share vars; a single non-empty part is returned as it is.
func Concat(vars []string, parts []*Table) *Table {
	var only *Table
	total, nonEmpty := 0, 0
	for _, p := range parts {
		if p != nil && p.rows > 0 {
			only = p
			total += p.rows
			nonEmpty++
		}
	}
	if nonEmpty == 1 {
		return only
	}
	out := &Table{Vars: vars, Cells: make([]rdf.ID, 0, total*len(vars)), rows: total}
	for _, p := range parts {
		if p != nil {
			out.Cells = append(out.Cells, p.Cells...)
		}
	}
	return out
}

// prefix returns the table of t's first n rows, sharing its cells.
func (t *Table) prefix(n int) *Table {
	w := len(t.Vars)
	return &Table{Vars: t.Vars, Cells: t.Cells[: n*w : n*w], rows: n}
}

// Subset builds a table of some of a source table's rows, in order. While
// every row so far has been kept it copies nothing: the result is the source
// itself, or a prefix sharing its cells.
type Subset struct {
	src  *Table
	out  *Table // nil until a row is skipped
	seen int    // rows of src considered while out is nil, all kept
}

// NewSubset starts a subset of src.
func NewSubset(src *Table) Subset { return Subset{src: src} }

// Keep adds src's row i. Rows must be kept in non-decreasing order; a row
// kept twice appears twice.
func (s *Subset) Keep(i int) {
	if s.out == nil {
		if i == s.seen {
			s.seen++
			return
		}
		s.out = &Table{Vars: s.src.Vars}
		s.out.Cells = append(make([]rdf.ID, 0, len(s.src.Cells)), s.src.Cells[:s.seen*len(s.src.Vars)]...)
		s.out.rows = s.seen
	}
	s.out.AppendRow(s.src.Row(i))
}

// Table returns the rows kept so far.
func (s *Subset) Table() *Table {
	switch {
	case s.out != nil:
		return s.out
	case s.seen == s.src.rows:
		return s.src
	default:
		return s.src.prefix(s.seen)
	}
}

// WithVars returns a copy of vars extended by more, allocated once at its
// final size.
func WithVars(vars []string, more ...string) []string {
	out := make([]string, 0, len(vars)+len(more))
	return append(append(out, vars...), more...)
}

// Col returns the column index of a variable, or -1.
func (t *Table) Col(v string) int {
	for i, name := range t.Vars {
		if name == v {
			return i
		}
	}
	return -1
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	return &Table{Vars: slices.Clone(t.Vars), Cells: slices.Clone(t.Cells), rows: t.rows}
}

// ByteSize approximates the wire size of the table (for network charging).
func (t *Table) ByteSize() int {
	return 8 * len(t.Cells)
}

// Value is one cell of a result set: an entity ID or an aggregate number.
type Value struct {
	ID    rdf.ID
	Num   float64
	IsNum bool
}

func (v Value) String() string {
	if v.IsNum {
		return fmt.Sprintf("%g", v.Num)
	}
	return fmt.Sprintf("#%d", v.ID)
}

// ResultSet is the projected output of a query, read cell by cell.
//
// An ID result reads row i's column j at ids[i*stride+cols[j]]. A plain
// SELECT's result is a view: ids are its binding table's cells, stride the
// table's width and cols the projected columns, so projecting copies no
// cell. Every other ID result (DISTINCT, ORDER BY, UNION) owns compact
// cells: stride len(Vars), cols the identity. An aggregate result holds
// Values instead, len(Vars) per row, so its aggregate columns keep their
// numbers.
type ResultSet struct {
	Vars []string

	n      int
	ids    []rdf.ID
	stride int
	cols   []int
	shared bool    // ids are a binding table's cells: copy before reordering
	vals   []Value // an aggregate result's cells; nil for an ID result
}

// ResultOf returns a result set holding rows of Values, each len(vars)
// cells.
func ResultOf(vars []string, rows ...[]Value) *ResultSet {
	rs := &ResultSet{Vars: vars, n: len(rows), vals: make([]Value, 0, len(vars)*len(rows))}
	for _, r := range rows {
		rs.vals = append(rs.vals, r...)
	}
	return rs
}

// Len returns the number of result rows.
func (r *ResultSet) Len() int { return r.n }

// Cell returns row i's column j.
func (r *ResultSet) Cell(i, j int) Value {
	if r.vals != nil {
		return r.vals[i*len(r.Vars)+j]
	}
	return Value{ID: r.ids[i*r.stride+r.cols[j]]}
}

// identityCols returns the column map 0..k-1.
func identityCols(k int) []int {
	cols := make([]int, k)
	for j := range cols {
		cols[j] = j
	}
	return cols
}

// idResult returns an empty ID result over vars that owns compact cells.
func idResult(vars []string) *ResultSet {
	return &ResultSet{Vars: vars, stride: len(vars), cols: identityCols(len(vars))}
}

// own makes r's ID cells its own and compact, so they can be reordered.
func (r *ResultSet) own() {
	if !r.shared {
		return
	}
	k := len(r.Vars)
	ids := make([]rdf.ID, 0, r.n*k)
	for i := 0; i < r.n; i++ {
		row := r.ids[i*r.stride:]
		for _, c := range r.cols {
			ids = append(ids, row[c])
		}
	}
	r.ids, r.stride, r.cols, r.shared = ids, k, identityCols(k), false
}

// permute reorders r's rows so that row i is the old row perm[i], into
// compact cells of its own.
func (r *ResultSet) permute(perm []int) {
	k := len(r.Vars)
	if r.vals != nil {
		vals := make([]Value, 0, len(perm)*k)
		for _, i := range perm {
			vals = append(vals, r.vals[i*k:(i+1)*k]...)
		}
		r.vals = vals
		return
	}
	ids := make([]rdf.ID, 0, len(perm)*k)
	for _, i := range perm {
		row := r.ids[i*r.stride:]
		for _, c := range r.cols {
			ids = append(ids, row[c])
		}
	}
	if r.shared {
		r.cols, r.shared = identityCols(k), false
	}
	r.ids, r.stride = ids, k
}

// drop removes the first k rows.
func (r *ResultSet) drop(k int) {
	k = min(k, r.n)
	if r.vals != nil {
		r.vals = r.vals[k*len(r.Vars):]
	} else {
		r.ids = r.ids[k*r.stride:]
	}
	r.n -= k
}

// truncate keeps at most the first k rows.
func (r *ResultSet) truncate(k int) {
	r.n = min(r.n, k)
}

// rowOrder sorts a result set's compact rows under less.
type rowOrder struct {
	r    *ResultSet
	less func(i, j int) bool
}

func (o rowOrder) Len() int           { return o.r.n }
func (o rowOrder) Less(i, j int) bool { return o.less(i, j) }
func (o rowOrder) Swap(i, j int) {
	k := len(o.r.Vars)
	if o.r.vals != nil {
		a, b := o.r.vals[i*k:(i+1)*k], o.r.vals[j*k:(j+1)*k]
		for c := range a {
			a[c], b[c] = b[c], a[c]
		}
		return
	}
	a, b := o.r.ids[i*k:(i+1)*k], o.r.ids[j*k:(j+1)*k]
	for c := range a {
		a[c], b[c] = b[c], a[c]
	}
}

// sortStable orders r's rows under less, keeping equal rows in order.
func (r *ResultSet) sortStable(less func(i, j int) bool) {
	r.own()
	sort.Stable(rowOrder{r: r, less: less})
}

// Sort orders rows lexicographically for deterministic comparison. Fork-join
// gathering is order-nondeterministic, so tests and clients that diff
// results should sort first.
func (r *ResultSet) Sort() {
	r.sortStable(func(i, j int) bool {
		for k := range r.Vars {
			a, b := r.Cell(i, k), r.Cell(j, k)
			if a.IsNum != b.IsNum {
				return !a.IsNum
			}
			if a.IsNum {
				if a.Num != b.Num {
					return a.Num < b.Num
				}
				continue
			}
			if a.ID != b.ID {
				return a.ID < b.ID
			}
		}
		return false
	})
}

func (r *ResultSet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", r.Vars)
	for i := 0; i < r.n; i++ {
		for j := range r.Vars {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(r.Cell(i, j).String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
