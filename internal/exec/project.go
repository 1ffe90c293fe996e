package exec

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Project applies a query's SELECT clause to a binding table: plain
// projection, DISTINCT, GROUP BY aggregation, ORDER BY, OFFSET, and LIMIT.
func Project(q *sparql.Query, tbl *Table, res TermResolver) (*ResultSet, error) {
	if q.HasAggregates() {
		rs, err := projectAggregates(q, tbl, res)
		if err != nil {
			return nil, err
		}
		return applyModifiers(q, rs, res), nil
	}
	// One allocation carries the result header and, for the usual short
	// SELECT list, its Vars; the column map lives on the stack.
	hdr := new(struct {
		rs   ResultSet
		vars [4]string
	})
	rs := &hdr.rs
	rs.Vars = hdr.vars[:0]
	var colBuf [8]int
	cols := colBuf[:0]
	for _, pr := range q.Select {
		rs.Vars = append(rs.Vars, pr.As)
		c := tbl.Col(pr.Var)
		if c < 0 {
			return nil, fmt.Errorf("exec: projected ?%s not bound", pr.Var)
		}
		cols = append(cols, c)
	}
	// Early LIMIT only when no modifier needs the full row set first.
	earlyLimit := q.Limit > 0 && len(q.OrderBy) == 0 && q.Offset == 0
	n := len(tbl.Rows)
	if earlyLimit && q.Limit < n {
		n = q.Limit
	}
	var seen map[string]bool
	if q.Distinct {
		seen = make(map[string]bool)
	}
	// The output rows are carved from one chunk of cells, each at full
	// capacity, and Rows is sized up front: two allocations however many rows.
	rs.Rows = make([][]Value, 0, n)
	cells := make([]Value, n*len(cols))
	for _, row := range tbl.Rows {
		if len(rs.Rows) == n {
			break
		}
		out := cells[:len(cols):len(cols)]
		for i, c := range cols {
			out[i] = Value{ID: row[c]}
		}
		if q.Distinct {
			k := rowKeyVals(out)
			if seen[k] {
				continue // the cells are reused by the next row
			}
			seen[k] = true
		}
		cells = cells[len(cols):]
		rs.Rows = append(rs.Rows, out)
	}
	return applyModifiers(q, rs, res), nil
}

// applyModifiers applies ORDER BY, OFFSET, and (if not already applied)
// LIMIT to a projected result set.
func applyModifiers(q *sparql.Query, rs *ResultSet, res TermResolver) *ResultSet {
	if len(q.OrderBy) > 0 {
		keys := make([]int, len(q.OrderBy))
		for i, k := range q.OrderBy {
			for c, v := range rs.Vars {
				if v == k.Var {
					keys[i] = c
				}
			}
		}
		sort.SliceStable(rs.Rows, func(i, j int) bool {
			for ki, k := range q.OrderBy {
				c := keys[ki]
				cmp := compareValues(rs.Rows[i][c], rs.Rows[j][c], res)
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
	if q.Offset > 0 {
		if q.Offset >= len(rs.Rows) {
			rs.Rows = nil
		} else {
			rs.Rows = rs.Rows[q.Offset:]
		}
	}
	if q.Limit > 0 && len(rs.Rows) > q.Limit {
		rs.Rows = rs.Rows[:q.Limit]
	}
	return rs
}

// termLookup is the optional reverse-mapping side of a resolver (the string
// server implements it); ORDER BY uses it for lexical comparison of
// non-numeric values.
type termLookup interface {
	Entity(id rdf.ID) (rdf.Term, bool)
}

// compareValues orders two result cells: numbers numerically (aggregates
// and numeric literals), then terms lexically, then raw IDs.
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
	if tl, ok := res.(termLookup); ok {
		at, aok := tl.Entity(a.ID)
		bt, bok := tl.Entity(b.ID)
		if aok && bok {
			return strings.Compare(at.Value, bt.Value)
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

func valueNum(v Value, res TermResolver) (float64, bool) {
	if v.IsNum {
		return v.Num, true
	}
	return res.Numeric(v.ID)
}

func rowKeyVals(vals []Value) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d|%g|%v;", v.ID, v.Num, v.IsNum)
	}
	return b.String()
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sum   float64
	min   float64
	max   float64
	any   bool
}

func (a *aggState) add(v float64) {
	a.count++
	a.sum += v
	if !a.any || v < a.min {
		a.min = v
	}
	if !a.any || v > a.max {
		a.max = v
	}
	a.any = true
}

func (a *aggState) result(kind sparql.AggKind) Value {
	switch kind {
	case sparql.AggCount:
		return Value{Num: float64(a.count), IsNum: true}
	case sparql.AggSum:
		return Value{Num: a.sum, IsNum: true}
	case sparql.AggAvg:
		if a.count == 0 {
			return Value{Num: math.NaN(), IsNum: true}
		}
		return Value{Num: a.sum / float64(a.count), IsNum: true}
	case sparql.AggMin:
		return Value{Num: a.min, IsNum: true}
	case sparql.AggMax:
		return Value{Num: a.max, IsNum: true}
	default:
		return Value{}
	}
}

func projectAggregates(q *sparql.Query, tbl *Table, res TermResolver) (*ResultSet, error) {
	rs := &ResultSet{}
	for _, pr := range q.Select {
		rs.Vars = append(rs.Vars, pr.As)
	}
	groupCols := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		groupCols[i] = tbl.Col(g)
		if groupCols[i] < 0 {
			return nil, fmt.Errorf("exec: GROUP BY ?%s not bound", g)
		}
	}
	argCols := make([]int, len(q.Select))
	for i, pr := range q.Select {
		argCols[i] = -1
		if pr.Agg != sparql.AggNone && pr.Var != "*" {
			argCols[i] = tbl.Col(pr.Var)
			if argCols[i] < 0 {
				return nil, fmt.Errorf("exec: aggregated ?%s not bound", pr.Var)
			}
		} else if pr.Agg == sparql.AggNone {
			argCols[i] = tbl.Col(pr.Var)
			if argCols[i] < 0 {
				return nil, fmt.Errorf("exec: projected ?%s not bound", pr.Var)
			}
		}
	}

	type group struct {
		key  []rdf.ID
		aggs []aggState
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range tbl.Rows {
		var kb strings.Builder
		key := make([]rdf.ID, len(groupCols))
		for i, c := range groupCols {
			key[i] = row[c]
			fmt.Fprintf(&kb, "%d;", row[c])
		}
		k := kb.String()
		g, ok := groups[k]
		if !ok {
			g = &group{key: key, aggs: make([]aggState, len(q.Select))}
			groups[k] = g
			order = append(order, k)
		}
		for i, pr := range q.Select {
			if pr.Agg == sparql.AggNone {
				continue
			}
			if pr.Agg == sparql.AggCount && pr.Var == "*" {
				g.aggs[i].count++
				g.aggs[i].any = true
				continue
			}
			id := row[argCols[i]]
			if pr.Agg == sparql.AggCount {
				g.aggs[i].count++
				g.aggs[i].any = true
				continue
			}
			v, ok := res.Numeric(id)
			if !ok {
				continue // non-numeric values are skipped, as in SPARQL 1.1
			}
			g.aggs[i].add(v)
		}
	}
	for _, k := range order {
		g := groups[k]
		out := make([]Value, len(q.Select))
		for i, pr := range q.Select {
			if pr.Agg == sparql.AggNone {
				// A grouped plain projection: find its position in GroupBy.
				for gi, gv := range q.GroupBy {
					if gv == pr.Var {
						out[i] = Value{ID: g.key[gi]}
					}
				}
				continue
			}
			out[i] = g.aggs[i].result(pr.Agg)
		}
		rs.Rows = append(rs.Rows, out)
		if q.Limit > 0 && len(q.OrderBy) == 0 && q.Offset == 0 && len(rs.Rows) >= q.Limit {
			break
		}
	}
	return rs, nil
}
