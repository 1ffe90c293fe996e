package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// This file model-tests one-shot queries over stored data: a generated
// graph and query are answered by Engine.Query and by a nested-loop model
// over term strings that shares no code with plan, exec or store. The
// queries cover what a one-shot projects through: joins, FILTER, OPTIONAL,
// UNION, DISTINCT, ORDER BY with LIMIT, and COUNT/SUM with and without
// GROUP BY, on every plan mode and fork threshold.

// draw yields the generator's choices, each in [0, n): a seeded PRNG for
// the test, the input's bytes for the fuzzer.
type draw func(n int) int

// osEntities are the graph's eight entities: five IRIs, and the three
// integer literals the v-edges point to.
var (
	osIRIs    = []string{"e0", "e1", "e2", "e3", "e4"}
	osNumbers = []string{"1", "2", "3"}
)

// osGraph draws at most 60 triples over three predicates: p and q link
// IRIs, v gives an IRI a number. There are 65 distinct triples to draw
// from, so a graph often holds one twice: the stored graph is a multiset,
// and every pattern, a Check's too, matches each copy.
func osGraph(d draw) [][3]string {
	var out [][3]string
	for n := d(61); n > 0; n-- {
		s := osIRIs[d(len(osIRIs))]
		tr := [3]string{s, "p", osIRIs[d(len(osIRIs))]}
		switch d(3) {
		case 1:
			tr[1] = "q"
		case 2:
			tr[1], tr[2] = "v", osNumbers[d(len(osNumbers))]
		}
		out = append(out, tr)
	}
	return out
}

// osQuery is one generated one-shot query.
type osQuery struct {
	where    []oPat   // the required patterns; empty for a UNION
	union    [][]oPat // the UNION branches, each binding the same vars
	optional *oPat    // one OPTIONAL pattern
	filter   string   // FILTER expression text, over required vars
	filterFn func(row map[string]string) bool
	distinct bool
	sel      []string // projected vars
	count    bool     // project (COUNT(*) AS ?cnt) (SUM(sum) AS ?sum)
	sum      string
	groupBy  string // with count: GROUP BY this var ("" = none)
	orderBy  []osKey
	limit    int
}

// osKey is one ORDER BY key.
type osKey struct {
	v    string
	desc bool
}

// osPatterns draws 1-3 connected patterns over ?a ?b ?c ?d ?e ?f. entity
// holds the vars bound to IRIs, all the vars bound at all. A pattern out of
// an anchor may have a variable predicate, binding it to p, q or v.
func osPatterns(d draw) (pats []oPat, entity, all []string) {
	newVar := func() string { return fmt.Sprintf("?%c", 'a'+len(all)) }
	pred := func() string { return []string{"p", "q", "v"}[d(3)] }
	bind := func(v, p string, subject bool) {
		if slices.Contains(all, v) {
			return
		}
		all = append(all, v)
		if subject || p != "v" {
			entity = append(entity, v)
		}
	}
	// The first pattern: a var or constant origin, a var target. Either
	// way it binds an entity var.
	first := oPat{s: newVar(), p: pred()}
	if d(4) == 0 {
		first.s = osIRIs[d(len(osIRIs))]
		first.p = []string{"p", "q"}[d(2)]
	} else {
		bind(first.s, first.p, true)
	}
	first.o = newVar()
	bind(first.o, first.p, false)
	pats = append(pats, first)
	for n := d(3); n > 0; n-- {
		anchor := entity[d(len(entity))]
		pt := oPat{p: pred()}
		switch d(4) {
		case 0: // into the anchor from a new var
			if pt.p == "v" {
				pt.p = "p"
			}
			pt.s, pt.o = newVar(), anchor
			bind(pt.s, pt.p, true)
		case 1: // a check against a bound var or a constant
			pt.s = anchor
			if d(2) == 0 {
				pt.o = all[d(len(all))]
			} else if pt.p == "v" {
				pt.o = osNumbers[d(len(osNumbers))]
			} else {
				pt.o = osIRIs[d(len(osIRIs))]
			}
			if pt.o == pt.s {
				pt.o = newVar()
				bind(pt.o, pt.p, false)
			}
		default: // out of the anchor to a new var, over a drawn or a variable predicate
			pt.s = anchor
			if d(3) == 0 {
				pt.p = newVar()
				all = append(all, pt.p)
				pt.o = newVar()
				all = append(all, pt.o) // an IRI or a number
				break
			}
			pt.o = newVar()
			bind(pt.o, pt.p, false)
		}
		pats = append(pats, pt)
	}
	return pats, entity, all
}

// osNumeric parses a cell as the number it denotes, if it does.
func osNumeric(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// osFilter draws a FILTER over the given vars: its text and the model's
// reading of it.
func osFilter(d draw, entity, all []string) (string, func(map[string]string) bool) {
	cmp := func() (string, func(map[string]string) bool) {
		x := all[d(len(all))]
		switch d(3) {
		case 0:
			k := osNumbers[d(len(osNumbers))]
			kn, _ := osNumeric(k)
			return fmt.Sprintf("%s > %s", x, k), func(r map[string]string) bool {
				n, ok := osNumeric(r[x])
				return ok && n > kn
			}
		case 1:
			x = entity[d(len(entity))]
			k := osIRIs[d(len(osIRIs))]
			return fmt.Sprintf("%s != %s", x, k), func(r map[string]string) bool { return r[x] != k }
		default:
			y := all[d(len(all))]
			return fmt.Sprintf("%s = %s", x, y), func(r map[string]string) bool {
				xn, xok := osNumeric(r[x])
				yn, yok := osNumeric(r[y])
				if xok && yok {
					return xn == yn
				}
				return r[x] == r[y]
			}
		}
	}
	text, fn := cmp()
	if d(3) == 0 {
		text2, fn2 := cmp()
		return fmt.Sprintf("%s || %s", text, text2), func(r map[string]string) bool { return fn(r) || fn2(r) }
	}
	return text, fn
}

// osSubset draws a non-empty selection of vars, in a drawn order.
func osSubset(d draw, vars []string) []string {
	out := slices.Clone(vars)
	for i := len(out) - 1; i > 0; i-- {
		j := d(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out[:1+d(len(out))]
}

// osDraw draws one query.
func osDraw(d draw) osQuery {
	var q osQuery
	pats, entity, all := osPatterns(d)
	switch d(6) {
	case 0: // a basic graph pattern
		q.where, q.sel = pats, osSubset(d, all)
	case 1: // with a FILTER
		q.where, q.sel = pats, osSubset(d, all)
		q.filter, q.filterFn = osFilter(d, entity, all)
	case 2: // with an OPTIONAL pattern out of a bound entity
		q.where = pats
		opt := oPat{s: entity[d(len(entity))], p: []string{"p", "q", "v"}[d(3)], o: "?z"}
		q.optional = &opt
		q.sel = osSubset(d, append(slices.Clone(all), "?z"))
	case 3: // a UNION of two shapes alike but for their predicates
		for b := 0; b < 2; b++ {
			br := slices.Clone(pats)
			for i := range br {
				if br[i].p == "p" || br[i].p == "q" {
					br[i].p = []string{"p", "q"}[d(2)]
				}
			}
			q.union = append(q.union, br)
		}
		q.sel = osSubset(d, all)
	case 4: // COUNT and SUM, grouped or not
		q.where, q.count, q.sum = pats, true, all[d(len(all))]
		if d(2) == 0 {
			q.groupBy = entity[d(len(entity))]
		}
		return q
	default: // ORDER BY every projected var, then LIMIT
		q.where, q.sel = pats, osSubset(d, all)
		for _, v := range osSubset(d, q.sel) {
			q.orderBy = append(q.orderBy, osKey{v: v, desc: d(2) == 0})
		}
		for _, v := range q.sel {
			if !slices.ContainsFunc(q.orderBy, func(k osKey) bool { return k.v == v }) {
				q.orderBy = append(q.orderBy, osKey{v: v})
			}
		}
		q.limit = 1 + d(5)
	}
	q.distinct = d(3) == 0
	return q
}

func osPatternText(pats []oPat) string {
	parts := make([]string, len(pats))
	for i, p := range pats {
		parts[i] = fmt.Sprintf("%s %s %s", p.s, p.p, p.o)
	}
	return strings.Join(parts, " . ")
}

// text renders q as the query the engine is given.
func (q osQuery) text() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.distinct {
		b.WriteString("DISTINCT ")
	}
	if q.count {
		if q.groupBy != "" {
			b.WriteString(q.groupBy + " ")
		}
		fmt.Fprintf(&b, "(COUNT(*) AS ?cnt) (SUM(%s) AS ?sum)", q.sum)
	} else {
		b.WriteString(strings.Join(q.sel, " "))
	}
	b.WriteString(" WHERE { ")
	if len(q.union) > 0 {
		for i, br := range q.union {
			if i > 0 {
				b.WriteString(" UNION ")
			}
			fmt.Fprintf(&b, "{ %s }", osPatternText(br))
		}
	} else {
		b.WriteString(osPatternText(q.where))
	}
	if q.optional != nil {
		fmt.Fprintf(&b, " OPTIONAL { %s }", osPatternText([]oPat{*q.optional}))
	}
	if q.filter != "" {
		fmt.Fprintf(&b, " FILTER (%s)", q.filter)
	}
	b.WriteString(" }")
	if q.groupBy != "" {
		fmt.Fprintf(&b, " GROUP BY %s", q.groupBy)
	}
	if len(q.orderBy) > 0 {
		b.WriteString(" ORDER BY")
		for _, k := range q.orderBy {
			if k.desc {
				fmt.Fprintf(&b, " DESC(%s)", k.v)
			} else {
				b.WriteString(" " + k.v)
			}
		}
	}
	if q.limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.limit)
	}
	return b.String()
}

// osMatch extends every row by pattern pat over graph g.
func osMatch(g [][3]string, rows []map[string]string, pat oPat) []map[string]string {
	var out []map[string]string
	for _, row := range rows {
		for _, tr := range g {
			if tr[1] != pat.p && !strings.HasPrefix(pat.p, "?") {
				continue
			}
			if nb, ok := bind(row, pat, tr); ok {
				out = append(out, nb)
			}
		}
	}
	return out
}

// osCompare orders two cells as ORDER BY does: numbers numerically and
// before every other term, other terms lexically.
func osCompare(a, b string) int {
	an, aok := osNumeric(a)
	bn, bok := osNumeric(b)
	switch {
	case aok && bok:
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		}
		return 0
	case aok:
		return -1
	case bok:
		return 1
	}
	return strings.Compare(a, b)
}

// eval answers q over g by nested loops over term strings: its rows in
// order under ORDER BY, sorted otherwise.
func (q osQuery) eval(g [][3]string) []string {
	var rows []map[string]string
	if len(q.union) > 0 {
		for _, br := range q.union {
			part := []map[string]string{{}}
			for _, pat := range br {
				part = osMatch(g, part, pat)
			}
			rows = append(rows, part...)
		}
	} else {
		rows = []map[string]string{{}}
		for _, pat := range q.where {
			rows = osMatch(g, rows, pat)
		}
	}
	if q.filterFn != nil {
		rows = slices.DeleteFunc(rows, func(r map[string]string) bool { return !q.filterFn(r) })
	}
	if q.optional != nil {
		var out []map[string]string
		for _, row := range rows {
			ext := osMatch(g, []map[string]string{row}, *q.optional)
			if len(ext) == 0 {
				ext = []map[string]string{row}
			}
			out = append(out, ext...)
		}
		rows = out
	}
	if q.count {
		type agg struct {
			n   int
			sum float64
		}
		groups := map[string]*agg{}
		for _, r := range rows {
			k := r[q.groupBy]
			if groups[k] == nil {
				groups[k] = &agg{}
			}
			groups[k].n++
			if v, ok := osNumeric(r[q.sum]); ok {
				groups[k].sum += v
			}
		}
		if q.groupBy == "" && len(groups) == 0 {
			groups[""] = &agg{} // no GROUP BY: one group, even of nothing
		}
		var out []string
		for k, a := range groups {
			cells := []string{strconv.Itoa(a.n), strconv.FormatFloat(a.sum, 'g', -1, 64)}
			if q.groupBy != "" {
				cells = append([]string{k}, cells...)
			}
			out = append(out, strings.Join(cells, " "))
		}
		sort.Strings(out)
		return out
	}
	type projected struct {
		cells []string
		text  string
	}
	var out []projected
	seen := map[string]bool{}
	for _, r := range rows {
		cells := make([]string, len(q.sel))
		for i, v := range q.sel {
			cells[i] = r[v]
		}
		text := strings.Join(cells, " ")
		if q.distinct {
			if seen[text] {
				continue
			}
			seen[text] = true
		}
		out = append(out, projected{cells, text})
	}
	if len(q.orderBy) == 0 {
		texts := make([]string, len(out))
		for i, p := range out {
			texts[i] = p.text
		}
		sort.Strings(texts)
		return texts
	}
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range q.orderBy {
			c := slices.Index(q.sel, k.v)
			cmp := osCompare(out[i].cells[c], out[j].cells[c])
			if cmp == 0 {
				continue
			}
			return cmp < 0 != k.desc
		}
		return false
	})
	if q.limit > 0 && len(out) > q.limit {
		out = out[:q.limit]
	}
	texts := make([]string, len(out))
	for i, p := range out {
		texts[i] = p.text
	}
	return texts
}

// osConfigs are the engine configurations every query runs on: 1, 2 and 4
// partitions, each plan mode, and a fork threshold of 1 (every traversal
// scatters) and 32 (small tables stay in place).
func osConfigs() []Config {
	var out []Config
	for _, nodes := range []int{1, 2, 4} {
		for _, mode := range []string{PlanModeInPlace, PlanModeForkJoin} {
			for _, th := range []int{1, 32} {
				out = append(out, Config{Nodes: nodes, WorkersPerNode: 2, PlanMode: mode, ForkThreshold: th})
			}
		}
	}
	return out
}

// osEngine returns an engine under cfg holding graph g.
func osEngine(t testing.TB, cfg Config, g [][3]string) *Engine {
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	load := make([]rdf.Triple, len(g))
	for i, tr := range g {
		load[i] = rdf.T(tr[0], tr[1], tr[2])
		if tr[1] == "v" {
			n, _ := strconv.ParseInt(tr[2], 10, 64)
			load[i].O = rdf.NewIntLiteral(n)
		}
	}
	e.LoadTriples(load)
	return e
}

// osCheck answers q on e and compares it with the model: as multisets, or
// in order under ORDER BY.
func osCheck(t testing.TB, e *Engine, cfg Config, g [][3]string, q osQuery) {
	res, err := e.Query(q.text())
	if err != nil {
		t.Fatalf("%s: %v", q.text(), err)
	}
	got, want := res.Strings(), q.eval(g)
	if len(q.orderBy) == 0 || q.count {
		sort.Strings(got)
	}
	if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("nodes=%d plan=%s fork-threshold=%d\n%s\ngraph: %v\ngot:  %q\nwant: %q",
			cfg.Nodes, cfg.PlanMode, cfg.ForkThreshold, q.text(), g, got, want)
	}
}

func TestOneShotMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		d := draw(rng.Intn)
		g := osGraph(d)
		var qs []osQuery
		for range 60 {
			qs = append(qs, osDraw(d))
		}
		for _, cfg := range osConfigs() {
			e := osEngine(t, cfg, g)
			for _, q := range qs {
				osCheck(t, e, cfg, g, q)
			}
		}
	}
}

// FuzzOneShot draws the graph, the query and the configuration from the
// input and checks the answer against the model.
func FuzzOneShot(f *testing.F) {
	for _, seed := range []string{
		"\x3c\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c",
		"\x20\x00\x00\x01\x01\x02\x02\x03\x05\x01\x02\x01\x00\x01\x05",
		"\x30\x04\x03\x02\x01\x00\x01\x02\x03\x04\x02\x01\x03\x05\x02\x01",
	} {
		f.Add([]byte(seed))
	}
	configs := osConfigs()
	f.Fuzz(func(t *testing.T, in []byte) {
		d := draw(func(n int) int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b % n
		})
		cfg := configs[d(len(configs))]
		g := osGraph(d)
		q := osDraw(d)
		osCheck(t, osEngine(t, cfg, g), cfg, g, q)
	})
}
