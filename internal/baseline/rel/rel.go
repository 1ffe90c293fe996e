// Package rel implements the relational query operators that the baseline
// systems are built from: triple-pattern selection over tuple sets, hash
// joins, cartesian products, and filters over binding tables.
//
// The paper's point (§2.2, §2.3, §7) is that relational stream processors
// pay for "join bombs" on highly linked data: every triple pattern is a scan
// producing a full binding table, and multi-pattern queries join those
// tables pairwise, materializing large intermediates that graph exploration
// never creates. These operators are implemented honestly and efficiently —
// the baselines' slowness is structural, not sandbagged.
package rel

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// Windows carries one execution's stream window contents keyed by stream
// IRI, as buffered inside a relational stream processor. Composite designs
// and relational engines keep their own copies of streaming data — they
// cannot share the store's (§2.3 Issue#3).
type Windows map[string][]strserver.EncodedTuple

// Pattern is a compiled triple pattern: variable names or constant IDs.
type Pattern struct {
	SVar, OVar     string // empty when the position is a constant
	SConst, OConst rdf.ID
	Pid            rdf.ID
}

// CompilePattern encodes a parsed pattern against the string server. ok is
// false when a constant is unknown (the match is necessarily empty).
func CompilePattern(p sparql.Pattern, ss *strserver.Server) (Pattern, bool, error) {
	if p.P.IsVar {
		return Pattern{}, false, fmt.Errorf("rel: variable predicates are not supported")
	}
	out := Pattern{}
	pid, ok := ss.LookupPredicate(p.P.Term.Value)
	if !ok {
		return Pattern{}, false, nil
	}
	out.Pid = pid
	if p.S.IsVar {
		out.SVar = p.S.Var
	} else if id, ok := ss.LookupEntity(p.S.Term); ok {
		out.SConst = id
	} else {
		return Pattern{}, false, nil
	}
	if p.O.IsVar {
		out.OVar = p.O.Var
	} else if id, ok := ss.LookupEntity(p.O.Term); ok {
		out.OConst = id
	} else {
		return Pattern{}, false, nil
	}
	return out, true, nil
}

// Match scans a tuple set and returns the binding table for a pattern.
func Match(tuples []strserver.EncodedTriple, p Pattern) *exec.Table {
	t := &exec.Table{}
	sCol, oCol := -1, -1
	if p.SVar != "" {
		sCol = len(t.Vars)
		t.Vars = append(t.Vars, p.SVar)
	}
	if p.OVar != "" && p.OVar != p.SVar {
		oCol = len(t.Vars)
		t.Vars = append(t.Vars, p.OVar)
	}
	for _, tu := range tuples {
		if tu.P != p.Pid {
			continue
		}
		if p.SVar == "" && tu.S != p.SConst {
			continue
		}
		if p.OVar == "" && tu.O != p.OConst {
			continue
		}
		if p.SVar != "" && p.OVar == p.SVar && tu.S != tu.O {
			continue
		}
		row := t.AddRow()
		if sCol >= 0 {
			row[sCol] = tu.S
		}
		if oCol >= 0 {
			row[oCol] = tu.O
		}
	}
	return t
}

// MatchTuples is Match over timestamped stream tuples restricted to
// [from, to].
func MatchTuples(tuples []strserver.EncodedTuple, p Pattern, from, to rdf.Timestamp) *exec.Table {
	filtered := make([]strserver.EncodedTriple, 0, len(tuples))
	for _, tu := range tuples {
		if tu.TS >= from && tu.TS <= to {
			filtered = append(filtered, tu.EncodedTriple)
		}
	}
	return Match(filtered, p)
}

// sharedVars returns the variables present in both tables.
func sharedVars(a, b *exec.Table) []string {
	var out []string
	for _, v := range a.Vars {
		if b.Col(v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// Join hash-joins two tables on their shared variables; with no shared
// variables it degenerates to a cartesian product — the "join bomb".
func Join(a, b *exec.Table) *exec.Table {
	shared := sharedVars(a, b)
	out := &exec.Table{Vars: append([]string(nil), a.Vars...)}
	var bExtra []int // b columns not in a
	for i, v := range b.Vars {
		if a.Col(v) < 0 {
			out.Vars = append(out.Vars, v)
			bExtra = append(bExtra, i)
		}
	}
	// An output row is the a-side row followed by the b-side's extra cells.
	appendJoined := func(ra, rb []rdf.ID) {
		row := out.AddRow()
		copy(row, ra)
		for j, i := range bExtra {
			row[len(ra)+j] = rb[i]
		}
	}
	if len(shared) == 0 {
		for i := 0; i < a.Len(); i++ {
			for j := 0; j < b.Len(); j++ {
				appendJoined(a.Row(i), b.Row(j))
			}
		}
		return out
	}
	// Build on the smaller side.
	build, probe := a, b
	swapped := false
	if b.Len() < a.Len() {
		build, probe = b, a
		swapped = true
	}
	bCols := make([]int, len(shared))
	pCols := make([]int, len(shared))
	for i, v := range shared {
		bCols[i] = build.Col(v)
		pCols[i] = probe.Col(v)
	}
	ht := make(map[string][]int, build.Len())
	for i := 0; i < build.Len(); i++ {
		k := joinKey(build.Row(i), bCols)
		ht[k] = append(ht[k], i)
	}
	for pi := 0; pi < probe.Len(); pi++ {
		rp := probe.Row(pi)
		for _, bi := range ht[joinKey(rp, pCols)] {
			rb := build.Row(bi)
			if swapped {
				appendJoined(rp, rb)
			} else {
				appendJoined(rb, rp)
			}
		}
	}
	return out
}

func joinKey(row []rdf.ID, cols []int) string {
	// Fixed-width binary key: fast and collision-free.
	buf := make([]byte, 0, 8*len(cols))
	for _, c := range cols {
		v := row[c]
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(buf)
}

// Relation is a projected result in the relational baseline's own form: one
// slice of IDs per row.
type Relation struct {
	Vars []string
	Rows [][]rdf.ID
}

// Project reorders and restricts a table to the query's plain SELECT
// variables (aggregate projections are handled by exec.Project).
func Project(t *exec.Table, q *sparql.Query) (*Relation, error) {
	out := &Relation{}
	cols := make([]int, 0, len(q.Select))
	for _, pr := range q.Select {
		if pr.Agg != sparql.AggNone {
			continue
		}
		c := t.Col(pr.Var)
		if c < 0 {
			return nil, fmt.Errorf("rel: projected ?%s not bound", pr.Var)
		}
		cols = append(cols, c)
		out.Vars = append(out.Vars, pr.As)
	}
	for r := 0; r < t.Len(); r++ {
		row := t.Row(r)
		nr := make([]rdf.ID, len(cols))
		for i, c := range cols {
			nr[i] = row[c]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// Filter keeps rows satisfying a FILTER expression.
func Filter(t *exec.Table, expr sparql.Expr, res exec.TermResolver) (*exec.Table, error) {
	kept := exec.NewSubset(t)
	for i := 0; i < t.Len(); i++ {
		ok, err := EvalExpr(res, expr, t, t.Row(i))
		if err != nil {
			return nil, err
		}
		if ok {
			kept.Keep(i)
		}
	}
	return kept.Table(), nil
}

// EvalExpr evaluates a FILTER expression against one row (shared with the
// executor's semantics via exec.EvalFilterExpr).
func EvalExpr(res exec.TermResolver, expr sparql.Expr, t *exec.Table, row []rdf.ID) (bool, error) {
	return exec.EvalFilterExpr(res, expr, t, row)
}
