package exec

import (
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/strserver"
)

// buildChainFixture loads a two-hop chain graph big enough to trigger
// fork-join scatter: root -p-> mids (fanout) -q-> leaves.
func buildChainFixture(t testing.TB, nodes, fanout int) *fixture {
	f := newFixture(t, nodes)
	p := f.pred("p")
	q := f.pred("q")
	root := f.id("root")
	for i := 0; i < fanout; i++ {
		mid := f.id(fmt.Sprintf("mid%d", i))
		f.stored.Insert(strserver.EncodedTriple{S: root, P: p, O: mid}, store.BaseSN, false, nil)
		for j := 0; j < 3; j++ {
			leaf := f.id(fmt.Sprintf("leaf%d_%d", i, j))
			f.stored.Insert(strserver.EncodedTriple{S: mid, P: q, O: leaf}, store.BaseSN, false, nil)
		}
	}
	return f
}

func executeChain(t testing.TB, f *fixture, mode Mode, sim bool) (*ResultSet, *Trace) {
	t.Helper()
	q := sparql.MustParse(`SELECT ?m ?l WHERE { root p ?m . ?m q ?l }`)
	pl, err := plan.Compile(q, f.ss, statsAdapter{f})
	if err != nil {
		t.Fatal(err)
	}
	rs, trace, err := f.ex.Execute(Request{
		Node: 0, Mode: mode, Access: provider{f}, Resolver: f.ss,
		ForkThreshold: 8, SimulateParallel: sim,
	}, pl)
	if err != nil {
		t.Fatal(err)
	}
	return rs, trace
}

func TestSimulateParallelSameResults(t *testing.T) {
	f := buildChainFixture(t, 4, 64)
	a, _ := executeChain(t, f, ForkJoin, false)
	b, _ := executeChain(t, f, ForkJoin, true)
	c, _ := executeChain(t, f, InPlace, false)
	a.Sort()
	b.Sort()
	c.Sort()
	if a.String() != b.String() || b.String() != c.String() {
		t.Error("results differ across execution modes")
	}
	if a.Len() != 64*3 {
		t.Errorf("rows = %d, want %d", a.Len(), 64*3)
	}
}

func TestSimulateParallelCreditsOverlap(t *testing.T) {
	f := buildChainFixture(t, 4, 512)
	_, trace := executeChain(t, f, ForkJoin, true)
	if trace.Total > trace.Wall {
		t.Errorf("critical path (%v) exceeds wall (%v)", trace.Total, trace.Wall)
	}
	if trace.Total == trace.Wall {
		t.Errorf("no overlap credited on a 4-node fork-join (total=%v wall=%v)", trace.Total, trace.Wall)
	}
}

func TestNoSimulationKeepsWallTotalEqual(t *testing.T) {
	f := buildChainFixture(t, 2, 16)
	_, trace := executeChain(t, f, InPlace, false)
	if trace.Total != trace.Wall {
		t.Errorf("in-place: total %v != wall %v", trace.Total, trace.Wall)
	}
}

// Property-style check: the executor returns identical result sets for the
// cost-based plan and the fixed textual-order plan (plan order must not
// change semantics).
func TestPlanOrderIndependence(t *testing.T) {
	f := newFixture(t, 4)
	queries := []string{
		`SELECT ?X WHERE { Logan po ?X . ?X ht sosp17 . Erik li ?X }`,
		`SELECT ?X ?Y WHERE { ?X po ?Y }`,
		`SELECT ?X ?Y WHERE { Erik li ?Y . ?X po ?Y }`,
		`SELECT ?X ?Z WHERE { ?X fo ?F . ?F po ?Z }`,
	}
	for _, src := range queries {
		q := sparql.MustParse(src)
		optimal, err := plan.Compile(q, f.ss, statsAdapter{f})
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := plan.FixedOrder(q, f.ss, statsAdapter{f})
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Node: 0, Mode: InPlace, Access: provider{f}, Resolver: f.ss}
		a, _, err := f.ex.Execute(req, optimal)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := f.ex.Execute(req, fixed)
		if err != nil {
			t.Fatal(err)
		}
		a.Sort()
		b.Sort()
		if a.String() != b.String() {
			t.Errorf("%q: optimal and fixed-order plans disagree:\n%s\nvs\n%s", src, a, b)
		}
	}
}

func TestResultSetByteSizeAndClone(t *testing.T) {
	tbl := TableOf([]string{"a", "b"}, []rdf.ID{1, 2}, []rdf.ID{3, 4})
	if tbl.ByteSize() != 32 {
		t.Errorf("ByteSize = %d", tbl.ByteSize())
	}
	cl := tbl.Clone()
	cl.Cells[0] = 99
	if tbl.Row(0)[0] != 1 {
		t.Error("Clone aliases rows")
	}
	if tbl.Col("b") != 1 || tbl.Col("zz") != -1 {
		t.Error("Col wrong")
	}
}
