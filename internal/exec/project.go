package exec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
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
		orderBy(rs, q.OrderBy, res)
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
// server implements it): ORDER BY compares non-numeric values by their
// lexical forms, read a block of strserver.Block IDs at a time, with a mask
// bit set for each ID it knows, and a predicate cell by its IRI, which is
// what the cell renders as.
type termLookup interface {
	Lexicals(ids []rdf.ID, lex []string) uint64
	Predicate(pid rdf.ID) (string, bool)
}

// orderKey is one ORDER BY cell resolved for comparison: its number if it
// is an aggregate or a numeric literal, else its lexical form if the
// resolver knows one, and its raw ID.
type orderKey struct {
	num          float64
	lex          string
	id           rdf.ID
	isNum, isLex bool
}

// compare orders two resolved cells: numbers numerically, before every
// non-number, then terms lexically, then raw IDs (a term with a lexical form
// and one without compare by ID).
func (a *orderKey) compare(b *orderKey) int {
	switch {
	case a.isNum && b.isNum:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		default:
			return 0
		}
	case a.isNum:
		return -1 // numbers order before non-numbers, as in SPARQL
	case b.isNum:
		return 1
	case a.isLex && b.isLex:
		return strings.Compare(a.lex, b.lex)
	}
	return cmp.Compare(a.id, b.id)
}

// orderBy sorts rs's rows stably by the ORDER BY keys. Each key cell is
// resolved once per row, the lexical forms a block at a time, and the rows
// move once, after the sort.
func orderBy(rs *ResultSet, by []sparql.OrderKey, res TermResolver) {
	nk := len(by)
	keys := make([]orderKey, rs.n*nk)
	tl, _ := res.(termLookup)
	var (
		ids [strserver.Block]rdf.ID
		lex [strserver.Block]string
		at  [strserver.Block]int // the keys the block's IDs resolve
		m   int
	)
	flush := func() {
		ok := tl.Lexicals(ids[:m], lex[:m])
		for j := range m {
			keys[at[j]].lex, keys[at[j]].isLex = lex[j], ok&(1<<j) != 0
		}
		m = 0
	}
	for ki, k := range by {
		c := 0
		for j, v := range rs.Vars {
			if v == k.Var {
				c = j
			}
		}
		for i := 0; i < rs.n; i++ {
			key := &keys[i*nk+ki]
			v := rs.Cell(i, c)
			key.id = v.ID
			if key.num, key.isNum = valueNum(v, res); key.isNum || tl == nil {
				continue
			}
			if pid, ok := UntagPred(v.ID); ok {
				key.lex, key.isLex = tl.Predicate(pid)
				continue
			}
			ids[m], at[m] = v.ID, i*nk+ki
			if m++; m == strserver.Block {
				flush()
			}
		}
	}
	if m > 0 {
		flush()
	}
	perm := make([]int, rs.n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		for ki, k := range by {
			if c := keys[a*nk+ki].compare(&keys[b*nk+ki]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	rs.permute(perm)
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
