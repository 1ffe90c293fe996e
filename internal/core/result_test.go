package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/race"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// AppendRow is the one row renderer (Strings, QUERY replies and POLL buffers
// all go through it), so it is pinned against the rendering Strings used
// before it existed: every cell decoded to a term by Row, the terms' values
// joined by one space.
func TestAppendRowMatchesTermValues(t *testing.T) {
	ss := strserver.New()
	iri := ss.InternEntity(rdf.NewIRI("http://example.org/Logan"))
	plain := ss.InternEntity(rdf.NewLiteral("a plain literal"))
	typed := ss.InternEntity(rdf.NewIntLiteral(42))
	blank := ss.InternEntity(rdf.NewBlank("b0"))
	quoted := ss.InternEntity(rdf.NewLiteral(`say "hi" twice`))
	po, _ := ss.InternPredicate("po")
	pred := exec.TagPred(po)
	id := func(v rdf.ID) exec.Value { return exec.Value{ID: v} }
	num := func(f float64) exec.Value { return exec.Value{Num: f, IsNum: true} }

	cases := []struct {
		name string
		row  []exec.Value
		want string
	}{
		{"IRI", []exec.Value{id(iri)}, "http://example.org/Logan"},
		{"literals", []exec.Value{id(plain), id(typed), id(quoted)}, `a plain literal 42 say "hi" twice`},
		{"blank node", []exec.Value{id(blank), id(iri)}, "b0 http://example.org/Logan"},
		{"floats", []exec.Value{num(2.5), num(3), num(1e21), num(-0.125)}, "2.5 3 1e+21 -0.125"},
		{"float edges", []exec.Value{num(math.NaN()), num(math.Inf(1)), num(math.Inf(-1)), num(math.Copysign(0, -1)), num(5e-324), num(1.2345678901234568e+17)},
			"NaN +Inf -Inf -0 5e-324 1.2345678901234568e+17"},
		{"unbound cells", []exec.Value{id(0), id(iri), id(0), id(0)}, " http://example.org/Logan  "},
		{"tagged predicate", []exec.Value{id(pred), id(iri)}, "po http://example.org/Logan"},
		{"unknown tagged predicate falls through to the entity table", []exec.Value{id(exec.TagPred(999))}, "unknown-id-4611686018427388903"},
		{"unknown entity", []exec.Value{id(iri), id(987654)}, "http://example.org/Logan unknown-id-987654"},
		{"no columns", nil, ""},
	}
	set := &exec.ResultSet{Vars: []string{"v"}}
	for _, c := range cases {
		set.Rows = append(set.Rows, c.row)
	}
	r := &Result{set: set, ss: ss}
	all := r.Strings()
	for i, c := range cases {
		terms := r.Row(i)
		values := make([]string, len(terms))
		for j, term := range terms {
			values[j] = term.Value
		}
		old := strings.Join(values, " ")
		if old != c.want {
			t.Errorf("%s: the term rendering is %q, the table expects %q", c.name, old, c.want)
		}
		if got := string(r.AppendRow(nil, i)); got != old {
			t.Errorf("%s: AppendRow = %q, term values joined = %q", c.name, got, old)
		}
		if got := string(r.AppendRow([]byte("@100 "), i)); got != "@100 "+old {
			t.Errorf("%s: AppendRow after a prefix = %q", c.name, got)
		}
		if all[i] != old {
			t.Errorf("%s: Strings()[%d] = %q, want %q", c.name, i, all[i], old)
		}
	}
}

// Rendering a row into a buffer with room copies bytes out of the string
// server and formats numbers in place: no cell kind allocates.
func TestAppendRowDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ss := strserver.New()
	po, _ := ss.InternPredicate("po")
	row := []exec.Value{
		{ID: ss.InternEntity(rdf.NewIRI("http://example.org/Logan"))},
		{ID: exec.TagPred(po)},
		{ID: ss.InternEntity(rdf.NewLiteral("T-13"))},
		{}, // unbound
		{ID: ss.InternEntity(rdf.NewIntLiteral(7))},
		{Num: 2.5, IsNum: true},
		{ID: 987654}, // unknown
	}
	r := &Result{set: &exec.ResultSet{Vars: []string{"s", "p", "o", "u", "n", "a", "x"}, Rows: [][]exec.Value{row}}, ss: ss}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(200, func() { buf = r.AppendRow(buf[:0], 0) }); allocs != 0 {
		t.Errorf("AppendRow into a pre-sized buffer allocates %v times per row", allocs)
	}
	if got, want := string(buf), "http://example.org/Logan po T-13  7 2.5 unknown-id-987654"; got != want {
		t.Errorf("rendered %q, want %q", got, want)
	}
}
