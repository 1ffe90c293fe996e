package rel

import (
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// must unwraps an encoding the test's few predicates always fit.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func enc(ss *strserver.Server, s, p, o string) strserver.EncodedTriple {
	return must(ss.EncodeTriple(rdf.T(s, p, o)))
}

func TestCompilePattern(t *testing.T) {
	ss := strserver.New()
	enc(ss, "a", "p", "b")
	q := sparql.MustParse(`SELECT ?x WHERE { a p ?x }`)
	cp, ok, err := CompilePattern(q.Patterns[0], ss)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if cp.SVar != "" || cp.OVar != "x" || cp.SConst == 0 {
		t.Errorf("compiled = %+v", cp)
	}
	// Unknown constant -> ok=false.
	q2 := sparql.MustParse(`SELECT ?x WHERE { ghost p ?x }`)
	if _, ok, _ := CompilePattern(q2.Patterns[0], ss); ok {
		t.Error("unknown constant compiled")
	}
	// Unknown predicate -> ok=false.
	q3 := sparql.MustParse(`SELECT ?x WHERE { a nopred ?x }`)
	if _, ok, _ := CompilePattern(q3.Patterns[0], ss); ok {
		t.Error("unknown predicate compiled")
	}
}

func TestMatch(t *testing.T) {
	ss := strserver.New()
	data := []strserver.EncodedTriple{
		enc(ss, "a", "p", "b"),
		enc(ss, "a", "p", "c"),
		enc(ss, "x", "p", "b"),
		enc(ss, "a", "q", "b"),
	}
	q := sparql.MustParse(`SELECT ?o WHERE { a p ?o }`)
	cp, _, _ := CompilePattern(q.Patterns[0], ss)
	got := Match(data, cp)
	if got.Len() != 2 {
		t.Errorf("rows = %v", got.Cells)
	}
	// Var-var binds both columns.
	q2 := sparql.MustParse(`SELECT ?s ?o WHERE { ?s p ?o }`)
	cp2, _, _ := CompilePattern(q2.Patterns[0], ss)
	got2 := Match(data, cp2)
	if got2.Len() != 3 || len(got2.Vars) != 2 {
		t.Errorf("rows = %v vars = %v", got2.Cells, got2.Vars)
	}
	// Same-var pattern matches self-loops only.
	ss2 := strserver.New()
	loop := []strserver.EncodedTriple{enc(ss2, "a", "p", "a"), enc(ss2, "a", "p", "b")}
	q3 := sparql.MustParse(`SELECT ?s WHERE { ?s p ?s }`)
	cp3, _, _ := CompilePattern(q3.Patterns[0], ss2)
	if got := Match(loop, cp3); got.Len() != 1 {
		t.Errorf("self-loop rows = %v", got.Cells)
	}
}

func TestMatchTuplesWindow(t *testing.T) {
	ss := strserver.New()
	var tuples []strserver.EncodedTuple
	for i := 0; i < 10; i++ {
		tuples = append(tuples, strserver.EncodedTuple{
			EncodedTriple: enc(ss, "a", "p", "b"),
			TS:            rdf.Timestamp(i * 100),
		})
	}
	q := sparql.MustParse(`SELECT ?o WHERE { a p ?o }`)
	cp, _, _ := CompilePattern(q.Patterns[0], ss)
	got := MatchTuples(tuples, cp, 200, 500)
	if got.Len() != 4 { // ts 200,300,400,500
		t.Errorf("windowed rows = %d, want 4", got.Len())
	}
}

func TestJoinShared(t *testing.T) {
	a := exec.TableOf([]string{"x", "y"}, [][]rdf.ID{{1, 2}, {3, 4}}...)
	b := exec.TableOf([]string{"y", "z"}, [][]rdf.ID{{2, 9}, {2, 8}, {5, 7}}...)
	got := Join(a, b)
	if len(got.Vars) != 3 || got.Len() != 2 {
		t.Fatalf("join = %v %v", got.Vars, got.Cells)
	}
	for ir := 0; ir < got.Len(); ir++ {
		r := got.Row(ir)
		if r[0] != 1 || r[1] != 2 {
			t.Errorf("row = %v", r)
		}
	}
}

func TestJoinCartesian(t *testing.T) {
	a := exec.TableOf([]string{"x"}, [][]rdf.ID{{1}, {2}}...)
	b := exec.TableOf([]string{"y"}, [][]rdf.ID{{7}, {8}, {9}}...)
	got := Join(a, b)
	if got.Len() != 6 {
		t.Errorf("cartesian rows = %d, want 6 (the join bomb)", got.Len())
	}
}

func TestJoinEmpty(t *testing.T) {
	a := &exec.Table{Vars: []string{"x"}}
	b := exec.TableOf([]string{"x"}, [][]rdf.ID{{1}}...)
	if got := Join(a, b); got.Len() != 0 {
		t.Errorf("rows = %v", got.Cells)
	}
}

// Property: hash join equals nested-loop join on shared single var.
func TestJoinMatchesNestedLoop(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a := &exec.Table{Vars: []string{"x", "y"}}
		for i, v := range av {
			a.AppendRow([]rdf.ID{rdf.ID(v % 8), rdf.ID(i)})
		}
		b := &exec.Table{Vars: []string{"x", "z"}}
		for i, v := range bv {
			b.AppendRow([]rdf.ID{rdf.ID(v % 8), rdf.ID(i + 100)})
		}
		want := 0
		for ira := 0; ira < a.Len(); ira++ {
			ra := a.Row(ira)
			for irb := 0; irb < b.Len(); irb++ {
				rb := b.Row(irb)
				if ra[0] == rb[0] {
					want++
				}
			}
		}
		return Join(a, b).Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFilter(t *testing.T) {
	ss := strserver.New()
	lo := ss.InternEntity(rdf.NewIntLiteral(10))
	hi := ss.InternEntity(rdf.NewIntLiteral(90))
	tbl := exec.TableOf([]string{"v"}, [][]rdf.ID{{lo}, {hi}}...)
	q := sparql.MustParse(`SELECT ?v WHERE { ?s p ?v . FILTER (?v > 50) }`)
	got, err := Filter(tbl, q.Filters[0], ss)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Row(0)[0] != hi {
		t.Errorf("filtered = %v", got.Cells)
	}
}
