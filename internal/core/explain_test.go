package core

import (
	"strings"
	"testing"

	"repro/internal/bench/lsbench"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stream"
)

func TestExplainOrdersByConstant(t *testing.T) {
	e, _, _ := figure1Engine(t, 2)
	out, err := e.Explain(`SELECT ?X WHERE { ?X ht sosp17 . Logan po ?X }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mode: in-place") {
		t.Errorf("explain = %q", out)
	}
	// The planner starts from Logan (constant seed) despite textual order.
	lines := strings.Split(out, "\n")
	if len(lines) < 2 || !strings.Contains(lines[1], "seed-const") {
		t.Errorf("first step not a constant seed:\n%s", out)
	}
	if !strings.Contains(out, "estimated cost") {
		t.Errorf("no cost estimate:\n%s", out)
	}
}

func TestExplainEmptyAndVariants(t *testing.T) {
	e, _, _ := figure1Engine(t, 2)
	out, err := e.Explain(`SELECT ?X WHERE { GhostEntity po ?X }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "empty") {
		t.Errorf("explain = %q", out)
	}
	out, err = e.Explain(`SELECT ?X WHERE { { Logan po ?X } UNION { Erik po ?X } }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "union branch 1") || !strings.Contains(out, "union branch 2") {
		t.Errorf("explain = %q", out)
	}
	out, err = e.Explain(`SELECT ?X ?T WHERE { Logan po ?X . OPTIONAL { ?X ht ?T } }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "optional (vars [T]") {
		t.Errorf("explain = %q", out)
	}
	if _, err := e.Explain("not a query"); err == nil {
		t.Error("bad query explained")
	}
}

// countingStats is the engine's planner statistics, counting the window
// fractions the planner asks for.
type countingStats struct {
	*statsAdapter
	fractions *int
}

func (c countingStats) WindowFraction(g sparql.GraphRef) float64 {
	*c.fractions++
	return c.statsAdapter.WindowFraction(g)
}

// TestExplainLSBenchAsksNoWindowFraction: the engine has window-scoped
// counts for every stream pattern, so planning L1–L6 over LSBench data with
// a second and a half of streams injected asks for no window fraction, the
// estimate those counts replace, and EXPLAIN reads the same through the
// counting statistics as through the engine's own.
func TestExplainLSBenchAsksNoWindowFraction(t *testing.T) {
	e, err := New(Config{Nodes: 2, WorkersPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	w := lsbench.Generate(lsbench.Config{
		Seed: 5, Users: 200,
		RatePO: 250, RatePOL: 2150, RatePH: 250, RatePHL: 187, RateGPS: 500,
	}, e.StringServer())
	e.LoadEncoded(w.Initial)
	srcs := make(map[string]*stream.Source)
	for _, sp := range lsbench.StreamConfigs() {
		src, err := e.RegisterStream(stream.Config{Name: sp.Name, BatchInterval: sp.BatchInterval, TimingPredicates: sp.TimingPreds})
		if err != nil {
			t.Fatal(err)
		}
		srcs[sp.Name] = src
	}
	for now := rdf.Timestamp(0); now < 1500; now += 100 {
		for _, name := range lsbench.Streams() {
			for _, tu := range w.StreamTuples(name, now, now+100) {
				if err := srcs[name].EmitEncoded(tu); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.AdvanceTo(now + 100)
	}
	for n := 1; n <= 6; n++ {
		text := w.QueryL(n, 3+n)
		got, err := e.Explain(text)
		if err != nil {
			t.Fatalf("L%d: %v", n, err)
		}
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		fractions := 0
		want, err := e.explain(q, countingStats{&statsAdapter{e: e, q: q}, &fractions})
		if err != nil {
			t.Fatalf("L%d: %v", n, err)
		}
		if got != want || fractions != 0 {
			t.Errorf("L%d: %d window fractions asked; EXPLAIN:\n%s\nthrough the counting statistics:\n%s", n, fractions, got, want)
		}
		if !strings.Contains(got, "stream") || !strings.Contains(got, "estimated cost") {
			t.Errorf("L%d: EXPLAIN plans no stream step:\n%s", n, got)
		}
	}
}

func TestEngineClientExplainPath(t *testing.T) {
	e, _, _ := figure1Engine(t, 2)
	out, err := e.Explain(`SELECT ?X WHERE { Logan po ?X }`)
	if err != nil || out == "" {
		t.Fatalf("explain: %v %q", err, out)
	}
}
