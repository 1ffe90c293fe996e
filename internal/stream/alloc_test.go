package stream

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/race"
	"repro/internal/rdf"
	"repro/internal/sindex"
	"repro/internal/store"
	"repro/internal/strserver"
	"repro/internal/tstore"
)

// must unwraps an encoding the test's few predicates always fit.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// testBatch builds a batch of n timeless tuples over a small vertex set, so
// most keys repeat from batch to batch (the injector's steady state).
func testBatch(ss *strserver.Server, id tstore.BatchID, n int) Batch {
	b := Batch{ID: id}
	for i := 0; i < n; i++ {
		enc := must(ss.EncodeTuple(rdf.Tuple{
			Triple: rdf.T(fmt.Sprintf("u%d", i%37), "po", fmt.Sprintf("t%d", i%53)),
			TS:     rdf.Timestamp(i),
		}))
		b.Tuples = append(b.Tuples, Tuple{EncodedTuple: enc})
	}
	return b
}

// TestDispatchKeepsTupleOrder: carving every side out of one array must not
// change what a node receives — each side lists its tuples in batch order,
// at exactly its capacity.
func TestDispatchKeepsTupleOrder(t *testing.T) {
	fab := fabric.New(fabric.DefaultConfig(3))
	b := testBatch(strserver.New(), 1, 200)
	work := Dispatch(fab, 0, b)
	for n := range work {
		var wantS, wantO []Tuple
		for _, tu := range b.Tuples {
			if fab.HomeOf(uint64(tu.S)) == fabric.NodeID(n) {
				wantS = append(wantS, tu)
			}
			if fab.HomeOf(uint64(tu.O)) == fabric.NodeID(n) {
				wantO = append(wantO, tu)
			}
		}
		check := func(side string, got, want []Tuple) {
			if len(got) != len(want) || cap(got) != len(want) {
				t.Errorf("node %d %s side: len %d cap %d, want both %d", n, side, len(got), cap(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("node %d %s side: position %d out of batch order", n, side, i)
					return
				}
			}
		}
		check("subject", work[n].SubjectSide, wantS)
		check("object", work[n].ObjectSide, wantO)
	}
	if empty := Dispatch(fab, 0, Batch{ID: 2}); len(empty) != 3 || !empty[0].Empty() {
		t.Errorf("an empty batch dispatches to %v", empty)
	}
}

func TestDispatchAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	fab := fabric.New(fabric.DefaultConfig(2))
	b := testBatch(strserver.New(), 1, 300)
	if n := testing.AllocsPerRun(100, func() { Dispatch(fab, 0, b) }); n > 2 {
		t.Errorf("Dispatch of a 300-tuple batch allocates %.0f times, want ≤ 2", n)
	}
}

// TestInjectNodeAllocatesOnlyInStoreAndIndex: with its scratch, a
// steady-state InjectNode (every key already exists) allocates exactly what
// the same store appends, the same stream-index share (AddBatch) and the
// same transient share (Append) allocate on their own.
func TestInjectNodeAllocatesOnlyInStoreAndIndex(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ss := strserver.New()
	work := NodeWork{}
	for i, tu := range testBatch(ss, 1, 300).Tuples {
		tu.Timing = i%10 == 0
		work.SubjectSide = append(work.SubjectSide, tu)
		work.ObjectSide = append(work.ObjectSide, tu)
	}
	const warm, runs = 8, 64

	// Side A: InjectNode with its scratch.
	fabA := fabric.New(fabric.DefaultConfig(1))
	tgt := InjectTarget{Store: store.NewSharded(fabA, 0), Index: sindex.New(0), Transient: tstore.New(0), Scratch: new(InjectScratch)}
	batchA := tstore.BatchID(0)
	injectA := func() {
		batchA++
		InjectNode(0, work, batchA, uint32(batchA), tgt)
	}

	// Side B: the same appends, AddBatch and Append, by hand.
	fabB := fabric.New(fabric.DefaultConfig(1))
	stB, ixB, tsB := store.NewSharded(fabB, 0), sindex.New(0), tstore.New(0)
	shard := stB.Shard(0)
	spans := make([]store.KeySpan, 0, 2*len(work.SubjectSide))
	pairs := make([]tstore.Pair, 0, 2*len(work.SubjectSide))
	batchB := tstore.BatchID(0)
	injectB := func() {
		batchB++
		sn := uint32(batchB)
		spans, pairs = spans[:0], pairs[:0]
		side := func(tuples []Tuple, d store.Dir) {
			for _, tu := range tuples {
				v, o := tu.S, tu.O
				if d == store.In {
					v, o = tu.O, tu.S
				}
				key := store.EdgeKey(v, tu.P, d)
				if tu.Timing {
					pairs = append(pairs, tstore.Pair{Key: key.Ord(), Val: o})
					continue
				}
				sp, wasEmpty := shard.AppendOne(key, o, sn)
				spans = append(spans, store.KeySpan{Key: key, Span: sp})
				if wasEmpty {
					shard.AppendOne(store.IndexKey(tu.P, d), v, sn)
					shard.AppendOne(store.PredIndexKey(v, d), tu.P, sn)
				}
			}
		}
		side(work.SubjectSide, store.Out)
		side(work.ObjectSide, store.In)
		tsB.Append(batchB, pairs)
		ixB.AddBatch(batchB, spans)
	}

	// Both sides go through the same sequence of store states (value slices
	// double as they grow), so their counts are comparable run for run.
	for i := 0; i < warm; i++ {
		injectA()
		injectB()
	}
	a := testing.AllocsPerRun(runs, injectA)
	b := testing.AllocsPerRun(runs, injectB)
	if a != b {
		t.Errorf("InjectNode allocates %.0f times a batch, the store and index alone %.0f: %.0f of its own, want 0", a, b, a-b)
	}
}
