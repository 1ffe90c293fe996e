package crosscheck_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline/rel"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/strserver"
)

// fixture is a minimal executor test rig (store + cluster + executor).
type fixture struct {
	fab     *fabric.Fabric
	cluster *fabric.Cluster
	ss      *strserver.Server
	stored  *store.Sharded
	ex      *exec.Executor
}

func (f *fixture) id(name string) rdf.ID { return f.ss.InternEntity(rdf.NewIRI(name)) }

// provider serves every scope from the stored graph.
type provider struct{ f *fixture }

func (p provider) Access(sparql.GraphRef) (exec.Access, error) {
	return exec.StoredAccess{Store: p.f.stored, SN: ^uint32(0)}, nil
}

// statsAdapter adapts store statistics for the planner.
type statsAdapter struct{ f *fixture }

func (s statsAdapter) PredStats(pid rdf.ID) (int64, int64, int64) { return s.f.stored.Stats(pid) }
func (s statsAdapter) WindowFraction(sparql.GraphRef) float64     { return 1 }

// This file cross-validates the two query evaluators the repo implements
// independently: the Wukong-style graph-exploration executor (this package)
// and the relational scan/join evaluator (baseline/rel). On random graphs
// and random conjunctive queries their results must agree exactly — any
// divergence is a bug in one of them.

// randomGraph loads nTriples random edges over nEnts entities and nPreds
// predicates into both a sharded store and a triple list.
func randomGraph(t *testing.T, rng *rand.Rand, nodes, nEnts, nPreds, nTriples int) (*fixture, []strserver.EncodedTriple, []string) {
	f := newFixtureEmpty(t, nodes)
	preds := make([]string, nPreds)
	for i := range preds {
		preds[i] = fmt.Sprintf("cp%d", i)
		f.ss.InternPredicate(preds[i])
	}
	// A triple drawn twice is stored twice, and both evaluators count
	// each copy: the stored graph is a multiset.
	var triples []strserver.EncodedTriple
	for i := 0; i < nTriples; i++ {
		tr := strserver.EncodedTriple{
			S: f.id(fmt.Sprintf("ce%d", rng.Intn(nEnts))),
			P: mustPred(f.ss, preds[rng.Intn(nPreds)]),
			O: f.id(fmt.Sprintf("ce%d", rng.Intn(nEnts))),
		}
		f.stored.Insert(tr, store.BaseSN, false, nil)
		triples = append(triples, tr)
	}
	return f, triples, preds
}

func mustPred(ss *strserver.Server, iri string) rdf.ID {
	p, ok := ss.LookupPredicate(iri)
	if !ok {
		panic("unknown predicate " + iri)
	}
	return p
}

// newFixtureEmpty builds an empty rig over `nodes` simulated nodes.
func newFixtureEmpty(t testing.TB, nodes int) *fixture {
	t.Helper()
	f := &fixture{
		fab: fabric.New(fabric.DefaultConfig(nodes)),
		ss:  strserver.New(),
	}
	f.cluster = fabric.NewCluster(f.fab, 2)
	t.Cleanup(f.cluster.Close)
	f.stored = store.NewSharded(f.fab, 0)
	f.ex = exec.New(f.cluster)
	return f
}

// randomQuery builds a connected conjunctive query of 1–3 patterns over the
// graph's vocabulary.
func randomQuery(rng *rand.Rand, preds []string, nEnts int) string {
	vars := []string{"a", "b", "c", "d"}
	n := 1 + rng.Intn(3)
	var pats []string
	used := map[string]bool{}
	pickTerm := func(mustVar string) string {
		if mustVar != "" {
			return "?" + mustVar
		}
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("ce%d", rng.Intn(nEnts))
		}
		v := vars[rng.Intn(len(vars))]
		used[v] = true
		return "?" + v
	}
	link := "" // variable connecting consecutive patterns
	for i := 0; i < n; i++ {
		p := preds[rng.Intn(len(preds))]
		s := pickTerm(link)
		o := pickTerm("")
		pats = append(pats, fmt.Sprintf("%s <%s> %s", s, p, o))
		// Link the next pattern through one of this pattern's variables
		// (an all-constant pattern breaks the chain; the next one seeds).
		link = ""
		if strings.HasPrefix(o, "?") {
			link = o[1:]
		} else if strings.HasPrefix(s, "?") {
			link = s[1:]
		}
	}
	// Project exactly the variables that actually occur in patterns.
	used = map[string]bool{}
	for _, pat := range pats {
		for _, v := range vars {
			if strings.Contains(pat, "?"+v) {
				used[v] = true
			}
		}
	}
	var sel []string
	for _, v := range vars {
		if used[v] {
			sel = append(sel, "?"+v)
		}
	}
	if len(sel) == 0 {
		// All-constant query: project a dummy var bound by an extra pattern.
		pats = append(pats, fmt.Sprintf("?a <%s> ?b", preds[0]))
		sel = []string{"?a", "?b"}
	}
	return "SELECT " + strings.Join(sel, " ") + " WHERE { " + strings.Join(pats, " . ") + " }"
}

// relEvaluate answers the query with the relational evaluator.
func relEvaluate(t *testing.T, ss *strserver.Server, triples []strserver.EncodedTriple, q *sparql.Query) *exec.ResultSet {
	t.Helper()
	var tbl *exec.Table
	for _, p := range q.Patterns {
		cp, ok, err := rel.CompilePattern(p, ss)
		if err != nil {
			t.Fatal(err)
		}
		var m *exec.Table
		if !ok {
			m = &exec.Table{Vars: p.Vars()}
		} else {
			m = rel.Match(triples, cp)
		}
		if tbl == nil {
			tbl = m
		} else {
			tbl = rel.Join(tbl, m)
		}
	}
	rs, err := exec.Project(q, tbl, ss)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestGraphExplorationMatchesRelational(t *testing.T) {
	for _, seed := range []int64{3, 11, 29, 71, 101} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			f, triples, preds := randomGraph(t, rng, 3, 10, 3, 120)
			for qi := 0; qi < 25; qi++ {
				src := randomQuery(rng, preds, 10)
				q, err := sparql.Parse(src)
				if err != nil {
					t.Fatalf("generated query invalid: %v\n%s", err, src)
				}
				p, err := plan.Compile(q, f.ss, statsAdapter{f})
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []exec.Mode{exec.InPlace, exec.ForkJoin} {
					got, _, err := f.ex.Execute(exec.Request{
						Node: 0, Mode: mode, Access: provider{f}, Resolver: f.ss,
						ForkThreshold: 4,
					}, p)
					if err != nil {
						t.Fatalf("%s: %v\n%s", mode, err, src)
					}
					want := relEvaluate(t, f.ss, triples, q)
					got.Sort()
					want.Sort()
					if got.String() != want.String() {
						t.Fatalf("divergence (%s) on:\n%s\nexploration:\n%s\nrelational:\n%s",
							mode, src, got, want)
					}
				}
			}
		})
	}
}
