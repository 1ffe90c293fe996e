package exec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// countingAccess records the size of every Neighbors call it passes on.
type countingAccess struct {
	Access
	calls *[]int
}

func (a countingAccess) Neighbors(from fabric.NodeID, keys []store.Key, out [][]rdf.ID) {
	*a.calls = append(*a.calls, len(keys))
	a.Access.Neighbors(from, keys, out)
}

type countingProvider struct {
	f     *fixture
	calls *[]int
}

func (p countingProvider) Access(g sparql.GraphRef) (Access, error) {
	acc, err := provider{p.f}.Access(g)
	return countingAccess{Access: acc, calls: p.calls}, err
}

// TestTraversalReadsItsFrontierPerChunk: a step reads its rows' neighbors
// ctxStride rows per Neighbors call, and the store still counts one read per
// row.
func TestTraversalReadsItsFrontierPerChunk(t *testing.T) {
	const fanout = 2*ctxStride + 452
	f := buildChainFixture(t, 2, fanout)
	q := sparql.MustParse(`SELECT ?m ?l WHERE { root p ?m . ?m q ?l }`)
	pl, err := plan.Compile(q, f.ss, statsAdapter{f})
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	reads := f.stored.OpStats().Reads
	rs, _, err := f.ex.Execute(Request{Node: 0, Mode: InPlace, Access: countingProvider{f, &calls}, Resolver: f.ss}, pl)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 3*fanout {
		t.Fatalf("%d rows, want %d", rs.Len(), 3*fanout)
	}
	want := []int{1, ctxStride, ctxStride, 452} // the seed, then the expand
	if len(calls) != len(want) {
		t.Fatalf("Neighbors calls of %v keys, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("Neighbors calls of %v keys, want %v", calls, want)
		}
	}
	if got := f.stored.OpStats().Reads - reads; got != 1+fanout {
		t.Errorf("the store counted %d reads for %d keys", got, 1+fanout)
	}
}

// TestTraversalPollsTheContextBetweenChunks: a cancelled context stops a
// traversal at its first chunk boundary; a table of one chunk runs through.
func TestTraversalPollsTheContextBetweenChunks(t *testing.T) {
	f := buildChainFixture(t, 1, ctxStride+1)
	acc := StoredAccess{Store: f.stored, SN: 1}
	mids := acc.Store.ReadValues(0, store.EdgeKey(f.id("root"), f.pred("p"), store.Out), 1)
	st := plan.Step{Kind: plan.Expand, Pid: f.pred("q"), Dir: store.Out,
		From: plan.Endpoint{Var: "m"}, To: plan.Endpoint{Var: "l"}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tbl := &Table{Vars: []string{"m"}}
	for _, m := range mids {
		tbl.AppendRow([]rdf.ID{m})
	}
	if _, err := traverse(ctx, acc, 0, st, tbl); !errors.Is(err, context.Canceled) {
		t.Fatalf("traversing %d rows under a cancelled context: err %v", tbl.Len(), err)
	}
	tbl = tbl.prefix(ctxStride)
	out, err := traverse(ctx, acc, 0, st, tbl)
	if err != nil || out.Len() != 3*ctxStride {
		t.Fatalf("one chunk: %d rows, err %v", out.Len(), err)
	}
}
