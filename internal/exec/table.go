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
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Table is a binding table: a column per variable, rows of entity IDs.
type Table struct {
	Vars []string
	Rows [][]rdf.ID
}

// RowArena carves binding rows out of chunks, so a step that produces n rows
// allocates a few chunks instead of n slices. Every row is handed out at full
// capacity (len == cap): appending to one copies it and can never write into
// its neighbour. The first chunk is exactly what was first asked for, so a
// one-row table costs what it did without an arena; later chunks double from
// rowChunkMin to rowChunkMax cells. The zero value is ready to use; an arena
// serves one goroutine — in practice the one call that builds one table.
type RowArena struct {
	free []rdf.ID
	next int // cells in the next chunk
}

const (
	rowChunkMin = 64   // 512 B
	rowChunkMax = 8192 // 64 KiB: a row keeps its whole chunk alive
)

// Grow makes room for cells more cells without another allocation — a hint
// for a caller that knows how many rows it is about to carve.
func (a *RowArena) Grow(cells int) {
	if len(a.free) >= cells {
		return
	}
	n := max(a.next, cells)
	a.next = min(max(2*n, rowChunkMin), rowChunkMax)
	a.free = make([]rdf.ID, n)
}

// Row returns a zeroed row of the given width.
func (a *RowArena) Row(width int) []rdf.ID {
	a.Grow(width)
	r := a.free[:width:width]
	a.free = a.free[width:]
	return r
}

// Extend returns a new row holding row's cells followed by last.
func (a *RowArena) Extend(row []rdf.ID, last rdf.ID) []rdf.ID {
	nr := a.Row(len(row) + 1)
	copy(nr, row)
	nr[len(row)] = last
	return nr
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
	out := &Table{Vars: append([]string(nil), t.Vars...)}
	out.Rows = make([][]rdf.ID, len(t.Rows))
	for i, r := range t.Rows {
		out.Rows[i] = append([]rdf.ID(nil), r...)
	}
	return out
}

// ByteSize approximates the wire size of the table (for network charging).
func (t *Table) ByteSize() int {
	return 8 * len(t.Rows) * len(t.Vars)
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

// ResultSet is the projected output of a query.
type ResultSet struct {
	Vars []string
	Rows [][]Value
}

// Len returns the number of result rows.
func (r *ResultSet) Len() int { return len(r.Rows) }

// Sort orders rows lexicographically for deterministic comparison. Fork-join
// gathering is order-nondeterministic, so tests and clients that diff
// results should sort first.
func (r *ResultSet) Sort() {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if a[k].IsNum != b[k].IsNum {
				return !a[k].IsNum
			}
			if a[k].IsNum {
				if a[k].Num != b[k].Num {
					return a[k].Num < b[k].Num
				}
				continue
			}
			if a[k].ID != b[k].ID {
				return a[k].ID < b[k].ID
			}
		}
		return false
	})
}

func (r *ResultSet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", r.Vars)
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
