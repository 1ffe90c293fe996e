package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline/rel"
	"repro/internal/bench/lsbench"
	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// oracle is the reference evaluator: the driver's own append-only encoded
// copy of everything loaded and emitted, queried with the relational
// baseline operators (scan, hash join, project) that share no code with the
// engine's graph exploration. It never runs inside a timed section.
type oracle struct {
	ss *strserver.Server
	// stored is the persistent store's content in visibility order: the
	// static graph, then every timeless stream tuple in the order ADVANCE
	// sealed it. A one-shot issued after k ticks sees stored[:visible[k]].
	stored  []strserver.EncodedTriple
	visible []int
	// streams keeps every emitted tuple (timing ones included) per stream,
	// for window evaluation.
	streams map[string][]strserver.EncodedTuple
	timing  map[rdf.ID]bool
	held    []strserver.EncodedTuple // emitted but not sealed yet (ts == now)
}

func newOracle(sc *script) *oracle {
	o := &oracle{
		ss:      sc.w.SS,
		stored:  append([]strserver.EncodedTriple(nil), sc.w.Initial...),
		streams: make(map[string][]strserver.EncodedTuple),
		timing:  make(map[rdf.ID]bool),
	}
	for _, name := range lsbench.Streams() {
		for _, p := range lsbench.TimingPredicates(name) {
			if id, ok := o.ss.LookupPredicate(p); ok {
				o.timing[id] = true
			}
		}
	}
	o.visible = append(o.visible, len(o.stored))
	return o
}

// absorb records one acked tick. A batch covers [start, start+100ms) and
// ADVANCE(now) seals the batches that end at or before now, so a tuple is
// visible to one-shots once its timestamp is below the clock.
func (o *oracle) absorb(t *tick) {
	pend := o.held
	o.held = nil
	for si, name := range lsbench.Streams() {
		o.streams[name] = append(o.streams[name], t.emits[si]...)
		pend = append(pend, t.emits[si]...)
	}
	for _, tu := range pend {
		switch {
		case tu.TS >= t.now:
			o.held = append(o.held, tu)
		case !o.timing[tu.P]:
			o.stored = append(o.stored, tu.EncodedTriple)
		}
	}
	o.visible = append(o.visible, len(o.stored))
}

// ticks is how many ticks have been absorbed.
func (o *oracle) ticks() int { return len(o.visible) - 1 }

// oneShot evaluates a one-shot query against the store as it stood after
// the first `ticks` ticks and returns its rows sorted.
func (o *oracle) oneShot(text string, ticks int) ([]string, error) {
	return o.eval(text, ticks, 0)
}

// continuous evaluates one firing of a registered query at logical time at
// (the clock after `ticks` ticks): stream patterns see the window's batches,
// [at-range, at), stored patterns see the store at that tick.
func (o *oracle) continuous(text string, ticks int, at rdf.Timestamp) ([]string, error) {
	return o.eval(text, ticks, at)
}

func (o *oracle) eval(text string, ticks int, at rdf.Timestamp) ([]string, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	if len(q.Optionals) > 0 || len(q.Unions) > 0 || len(q.Filters) > 0 {
		return nil, fmt.Errorf("oracle: only basic graph patterns are supported")
	}
	stored := o.stored[:o.visible[ticks]]
	var result *exec.Table
	for _, p := range q.Patterns {
		cp, ok, err := rel.CompilePattern(p, o.ss)
		if err != nil {
			return nil, err
		}
		var t *exec.Table
		switch {
		case !ok:
			t = &exec.Table{Vars: p.Vars()}
		case p.Graph.Kind == sparql.StreamGraph:
			win, found := q.Window(p.Graph.Name)
			if !found {
				return nil, fmt.Errorf("oracle: no window for stream %s", p.Graph.Name)
			}
			from := int64(at) - win.Range.Milliseconds()
			if from < 0 {
				from = 0
			}
			t = rel.MatchTuples(o.streams[p.Graph.Name], cp, rdf.Timestamp(from), at-1)
		default:
			t = rel.Match(stored, cp)
		}
		if result == nil {
			result = t
		} else {
			result = rel.Join(result, t)
		}
	}
	if result == nil {
		result = &exec.Table{}
	}
	proj, err := rel.Project(result, q)
	if err != nil {
		return nil, err
	}
	rows := make([]string, len(proj.Rows))
	parts := make([]string, len(proj.Vars))
	for i, row := range proj.Rows {
		for j, id := range row {
			parts[j] = o.ss.MustEntity(id).Value
		}
		rows[i] = strings.Join(parts, " ")
	}
	sort.Strings(rows)
	return rows, nil
}

// sameRows compares two row lists as multisets. got is sorted in place; want
// is already sorted.
func sameRows(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	sort.Strings(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
