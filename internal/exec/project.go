package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Project applies a query's SELECT clause to a binding table: plain
// projection, DISTINCT, GROUP BY aggregation, ORDER BY, OFFSET, and LIMIT.
// A plain SELECT's result is a view over the table's cells through a column
// map: it copies none of them.
func Project(q *sparql.Query, tbl *Table, res TermResolver) (*ResultSet, error) {
	if q.HasAggregates() {
		rs, err := projectAggregates(q, tbl, res)
		if err != nil {
			return nil, err
		}
		return applyModifiers(q, rs, res), nil
	}
	// One allocation carries the result header and, for the usual short
	// SELECT list, its Vars and column map.
	hdr := new(struct {
		rs   ResultSet
		vars [4]string
		cols [4]int
	})
	rs := &hdr.rs
	rs.Vars, rs.cols = hdr.vars[:0], hdr.cols[:0]
	for _, pr := range q.Select {
		rs.Vars = append(rs.Vars, pr.As)
		c := tbl.Col(pr.Var)
		if c < 0 {
			return nil, fmt.Errorf("exec: projected ?%s not bound", pr.Var)
		}
		rs.cols = append(rs.cols, c)
	}
	if q.Distinct {
		projectDistinct(q, rs, tbl)
	} else {
		rs.ids, rs.stride, rs.n, rs.shared = tbl.Cells, len(tbl.Vars), tbl.Len(), true
	}
	return applyModifiers(q, rs, res), nil
}

// projectDistinct fills rs with the first occurrence of each distinct
// projected row, copied into cells of its own.
func projectDistinct(q *sparql.Query, rs *ResultSet, tbl *Table) {
	// Early LIMIT only when no modifier needs the full row set first.
	limit := tbl.Len()
	if q.Limit > 0 && len(q.OrderBy) == 0 && q.Offset == 0 {
		limit = min(limit, q.Limit)
	}
	seen := make(map[string]bool)
	var keyBuf [4 * 8]byte
	for i := 0; i < tbl.Len() && rs.n < limit; i++ {
		row := tbl.Row(i)
		key := appendRowKey(keyBuf[:0], row, rs.cols)
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		for _, c := range rs.cols {
			rs.ids = append(rs.ids, row[c])
		}
		rs.n++
	}
	rs.stride, rs.cols = len(rs.cols), identityCols(len(rs.cols))
}

// appendRowKey appends the DISTINCT key of a row's projected cells to dst:
// eight bytes per cell, so two rows share a key exactly when their cells are
// equal (a tagged predicate never meets the entity with its low bits).
func appendRowKey(dst []byte, row []rdf.ID, cols []int) []byte {
	for _, c := range cols {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(row[c]))
	}
	return dst
}

// applyModifiers applies ORDER BY, OFFSET, and LIMIT to a projected result
// set.
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
		rs.sortStable(func(i, j int) bool {
			for ki, k := range q.OrderBy {
				c := keys[ki]
				cmp := compareValues(rs.Cell(i, c), rs.Cell(j, c), res)
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
		rs.drop(q.Offset)
	}
	if q.Limit > 0 {
		rs.truncate(q.Limit)
	}
	return rs
}

// EmptyResult is the projection of no solutions: no rows, except that an
// aggregate query without GROUP BY makes one group of them (SPARQL 1.1
// §18.5), whose row is COUNT 0, SUM 0, AVG 0 and MIN, MAX unbound.
func EmptyResult(q *sparql.Query) *ResultSet {
	vars := make([]string, len(q.Select))
	for i, pr := range q.Select {
		vars[i] = pr.As
	}
	if q.HasAggregates() && len(q.GroupBy) == 0 {
		rs := ResultOf(vars, emptyGroupRow(q))
		if q.Offset > 0 {
			rs.drop(q.Offset)
		}
		return rs
	}
	return &ResultSet{Vars: vars}
}

// emptyGroupRow is the row of a group with no solutions.
func emptyGroupRow(q *sparql.Query) []Value {
	row := make([]Value, len(q.Select))
	for i, pr := range q.Select {
		switch pr.Agg {
		case sparql.AggCount, sparql.AggSum, sparql.AggAvg:
			row[i] = Value{IsNum: true}
		default:
			row[i] = Value{ID: Unbound}
		}
	}
	return row
}

// termLookup is the optional reverse-mapping side of a resolver (the string
// server implements it); ORDER BY uses it for lexical comparison of
// non-numeric values.
type termLookup interface {
	Lexical(id rdf.ID) (string, bool)
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

func valueNum(v Value, res TermResolver) (float64, bool) {
	if v.IsNum {
		return v.Num, true
	}
	return res.Numeric(v.ID)
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
	var order []*group
	var kb []byte
	for r := 0; r < tbl.Len(); r++ {
		row := tbl.Row(r)
		// The group key is the grouped IDs, eight bytes each; a row of a
		// known group allocates nothing.
		kb = appendRowKey(kb[:0], row, groupCols)
		g, ok := groups[string(kb)]
		if !ok {
			key := make([]rdf.ID, len(groupCols))
			for i, c := range groupCols {
				key[i] = row[c]
			}
			g = &group{key: key, aggs: make([]aggState, len(q.Select))}
			groups[string(kb)] = g
			order = append(order, g)
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
	if len(order) == 0 && len(groupCols) == 0 {
		// No GROUP BY: the solutions are one group even when there are none.
		rs.vals, rs.n = emptyGroupRow(q), 1
		return rs, nil
	}
	rs.vals = make([]Value, 0, len(order)*len(q.Select))
	for _, g := range order {
		for i, pr := range q.Select {
			if pr.Agg == sparql.AggNone {
				// A grouped plain projection: find its position in GroupBy.
				var v Value
				for gi, gv := range q.GroupBy {
					if gv == pr.Var {
						v = Value{ID: g.key[gi]}
					}
				}
				rs.vals = append(rs.vals, v)
				continue
			}
			rs.vals = append(rs.vals, g.aggs[i].result(pr.Agg))
		}
		rs.n++
		if q.Limit > 0 && len(q.OrderBy) == 0 && q.Offset == 0 && rs.n >= q.Limit {
			break
		}
	}
	return rs, nil
}
