package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/stream"
)

// TestAggregateOverNoSolutionsIsOneGroup: without GROUP BY, the solutions of
// an aggregate query are one group even when there are none (SPARQL 1.1
// §18.5): one row of COUNT 0, SUM 0, AVG 0 and MIN, MAX unbound. With GROUP
// BY there are no groups and no rows. Every way a one-shot can find no
// solution is covered: an unknown predicate (an empty plan), a traversal
// that matches nothing, and a FILTER that rejects every row.
func TestAggregateOverNoSolutionsIsOneGroup(t *testing.T) {
	engines := map[string]*Engine{}
	for _, mode := range []string{PlanModeInPlace, PlanModeForkJoin} {
		e, err := New(Config{Nodes: 2, WorkersPerNode: 2, PlanMode: mode, ForkThreshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		e.LoadTriples(xlab())
		engines[mode] = e
	}
	for _, c := range []struct {
		text string
		want []string
	}{
		{`SELECT (COUNT(*) AS ?n) WHERE { ?X nosuchpred ?Y }`, []string{"0"}},
		{`SELECT (COUNT(*) AS ?n) (SUM(?Y) AS ?s) (AVG(?Y) AS ?a) (MIN(?Y) AS ?lo) (MAX(?Y) AS ?hi)
		  WHERE { ?X po ?Y . ?Y ty X-Men }`, []string{"0 0 0  "}},
		{`SELECT (COUNT(?Y) AS ?n) WHERE { ?X po ?Y . FILTER (?Y = Logan) }`, []string{"0"}},
		{`SELECT (MAX(?Y) AS ?hi) (COUNT(*) AS ?n) WHERE { ?X po ?Y . ?Y ty X-Men } LIMIT 5`, []string{" 0"}},
		{`SELECT (COUNT(*) AS ?n) WHERE { ?X po ?Y . ?Y ty X-Men } OFFSET 1`, nil},
		{`SELECT ?X (COUNT(*) AS ?n) WHERE { ?X po ?Y . ?Y ty X-Men } GROUP BY ?X`, nil},
		{`SELECT ?X WHERE { ?X po ?Y . ?Y ty X-Men }`, nil},
		// Solutions present: the usual one row.
		{`SELECT (COUNT(*) AS ?n) WHERE { ?X po ?Y }`, []string{"3"}},
	} {
		for mode, e := range engines {
			res, err := e.Query(c.text)
			if err != nil {
				t.Fatalf("%s: %v", c.text, err)
			}
			if got := res.Strings(); !reflect.DeepEqual(got, c.want) && len(got)+len(c.want) > 0 {
				t.Errorf("%s (%s): rows %q, want %q", c.text, mode, got, c.want)
			}
		}
	}
}

// TestAggregateFiringOverEmptyWindow: a continuous COUNT fires one row per
// window, 0 for a window with no tuple in it, on the delta and on the full
// path, and the delta≡full crosscheck agrees.
func TestAggregateFiringOverEmptyWindow(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		for _, delta := range []string{DeltaModeAuto, DeltaModeOff} {
			t.Run(fmt.Sprintf("nodes=%d/delta=%s", nodes, delta), func(t *testing.T) {
				e, err := New(Config{Nodes: nodes, WorkersPerNode: 2, DeltaMode: delta, DeltaCrosscheck: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(e.Close)
				e.LoadTriples(xlab())
				src, err := e.RegisterStream(stream.Config{Name: "S", BatchInterval: 100 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				var col collector
				if _, err := e.RegisterContinuous(`
REGISTER QUERY N AS
SELECT (COUNT(*) AS ?n) (SUM(?Z) AS ?s)
FROM S [RANGE 200ms STEP 100ms]
WHERE { GRAPH S { ?X po ?Z } . ?X fo ?Y }`, col.cb); err != nil {
					t.Fatal(err)
				}
				emit(t, src, 50, "Logan", "po", "T-20")
				emit(t, src, 250, "Erik", "po", "T-21")
				for at := int64(100); at <= 600; at += 100 {
					e.AdvanceTo(rdf.Timestamp(at))
				}
				want := []string{"1 0", "1 0", "1 0", "1 0", "0 0", "0 0"}
				if got := col.allRows(); !reflect.DeepEqual(got, want) {
					t.Errorf("rows per firing = %q, want %q", got, want)
				}
			})
		}
	}
}
