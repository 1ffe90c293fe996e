package sindex

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/tstore"
)

func key(v rdf.ID) store.Key { return store.EdgeKey(v, 3, store.In) }

func TestAddLookup(t *testing.T) {
	ix := New(0)
	ix.AddBatch(1, []store.KeySpan{
		{Key: key(7), Span: store.Span{Start: 0, End: 3}},
		{Key: key(8), Span: store.Span{Start: 0, End: 1}},
	})
	ix.AddBatch(2, []store.KeySpan{
		{Key: key(7), Span: store.Span{Start: 3, End: 5}},
	})
	got := ix.Lookup(key(7), 1, 2)
	if len(got) != 2 || got[0] != (store.Span{Start: 0, End: 3}) || got[1] != (store.Span{Start: 3, End: 5}) {
		t.Errorf("Lookup = %v", got)
	}
	if got := ix.Lookup(key(7), 2, 2); len(got) != 1 {
		t.Errorf("Lookup [2,2] = %v", got)
	}
	if got := ix.Lookup(key(9), 1, 2); got != nil {
		t.Errorf("Lookup missing = %v", got)
	}
}

func TestAdjacentSpansMerge(t *testing.T) {
	ix := New(0)
	ix.AddBatch(1, []store.KeySpan{
		{Key: key(7), Span: store.Span{Start: 0, End: 2}},
		{Key: key(7), Span: store.Span{Start: 2, End: 5}},
	})
	got := ix.Lookup(key(7), 1, 1)
	if len(got) != 1 || got[0] != (store.Span{Start: 0, End: 5}) {
		t.Errorf("merged spans = %v", got)
	}
}

func TestNonAdjacentSpansKept(t *testing.T) {
	ix := New(0)
	ix.AddBatch(1, []store.KeySpan{
		{Key: key(7), Span: store.Span{Start: 0, End: 2}},
		{Key: key(7), Span: store.Span{Start: 5, End: 6}},
	})
	if got := ix.Lookup(key(7), 1, 1); len(got) != 2 {
		t.Errorf("spans = %v", got)
	}
}

func TestGC(t *testing.T) {
	ix := New(0)
	for b := tstore.BatchID(1); b <= 5; b++ {
		ix.AddBatch(b, []store.KeySpan{{Key: key(1), Span: store.Span{Start: uint32(b), End: uint32(b) + 1}}})
	}
	before := ix.MemoryBytes()
	ix.GC(4)
	if o, n := ix.Batches(); o != 4 || n != 5 {
		t.Errorf("batches after GC: %d..%d", o, n)
	}
	if after := ix.MemoryBytes(); after >= before {
		t.Errorf("memory did not shrink: %d -> %d", before, after)
	}
	if got := ix.Lookup(key(1), 1, 5); len(got) != 2 {
		t.Errorf("Lookup after GC = %v", got)
	}
	if c := ix.Counters(); c.GCRuns != 1 || c.GCBatches != 3 || c.GCBytes != before-ix.MemoryBytes() {
		t.Errorf("Counters = %+v after freeing 3 batches and %d bytes", c, before-ix.MemoryBytes())
	}
}

func TestBatchesEmpty(t *testing.T) {
	ix := New(0)
	if o, n := ix.Batches(); o != 0 || n != 0 {
		t.Error("empty index reports batches")
	}
}

func TestReplicas(t *testing.T) {
	ix := New(2)
	if !ix.ReplicatedOn(2) {
		t.Error("home node not a replica")
	}
	if ix.ReplicatedOn(0) {
		t.Error("node 0 unexpectedly a replica")
	}
	ix.Replicate(0)
	ix.Replicate(0) // idempotent
	if !ix.ReplicatedOn(0) {
		t.Error("Replicate did not take")
	}
	if len(ix.Replicas()) != 2 {
		t.Errorf("Replicas = %v", ix.Replicas())
	}
}

// TestConcurrentLookupDuringAdd: each batch arrives as two shares merged in
// from two goroutines at once, as two nodes' injectors do, while readers
// walk the index.
func TestConcurrentLookupDuringAdd(t *testing.T) {
	ix := New(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := tstore.BatchID(1); b <= 200; b++ {
			var shares sync.WaitGroup
			for share := rdf.ID(0); share < 2; share++ {
				shares.Add(1)
				go func() {
					defer shares.Done()
					ix.AddBatch(b, []store.KeySpan{{Key: key(rdf.ID(b%7) + 7*share), Span: store.Span{Start: uint32(b), End: uint32(b + 1)}}})
				}()
			}
			shares.Wait()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				_ = ix.Lookup(key(rdf.ID(i%14)), 1, 200)
				_ = ix.Vertices(3, store.In, 1, 200)
				_ = ix.BatchEdgeSpans(tstore.BatchID(i%200+1), 3, store.In)
				_ = ix.MemoryBytes()
			}
		}()
	}
	wg.Wait()
	if got := ix.Vertices(3, store.In, 1, 200); len(got) != 14 {
		t.Errorf("Vertices after 200 two-share batches = %v, want 14 keys", got)
	}
}

// Property: Lookup over a window equals the brute-force union of the spans
// added to batches within that window (the stream index is a faithful fast
// path — the paper's §4.2 correctness requirement).
func TestLookupMatchesBruteForce(t *testing.T) {
	type added struct {
		batch tstore.BatchID
		span  store.Span
	}
	f := func(deltas []uint8, from8, width8 uint8) bool {
		ix := New(0)
		k := key(1)
		b := tstore.BatchID(1)
		pos := uint32(0)
		var all []added
		for _, d := range deltas {
			b += tstore.BatchID(d % 2)
			n := uint32(d%3 + 1)
			sp := store.Span{Start: pos, End: pos + n}
			pos += n
			ix.AddBatch(b, []store.KeySpan{{Key: k, Span: sp}})
			all = append(all, added{batch: b, span: sp})
		}
		from := tstore.BatchID(from8%8) + 1
		to := from + tstore.BatchID(width8%8)
		got := ix.Lookup(k, from, to)
		// Total covered length must match; merging may change span count.
		var want, have int
		for _, a := range all {
			if a.batch >= from && a.batch <= to {
				want += a.span.Len()
			}
		}
		for _, sp := range got {
			have += sp.Len()
		}
		return want == have
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSharesMergeIntoOneSortedBatch: two injection shares of one batch, each
// in arrival order, read back as one array in batch order — vertices
// ascending, a key's spans in value order, adjacent spans merged — with the
// run counts the planner reads and an exact byte size.
func TestSharesMergeIntoOneSortedBatch(t *testing.T) {
	ix := New(0)
	other := store.EdgeKey(5, 4, store.Out)
	ix.AddBatch(1, []store.KeySpan{
		{Key: key(9), Span: store.Span{Start: 0, End: 1}},
		{Key: other, Span: store.Span{Start: 0, End: 2}},
		{Key: key(2), Span: store.Span{Start: 4, End: 5}},
	})
	ix.AddBatch(1, []store.KeySpan{
		{Key: key(6), Span: store.Span{Start: 0, End: 3}},
		{Key: key(2), Span: store.Span{Start: 5, End: 7}},
	})
	ix.AddBatch(2, []store.KeySpan{{Key: key(6), Span: store.Span{Start: 3, End: 4}}})
	got := ix.BatchEdgeSpans(1, 3, store.In)
	want := []store.KeySpan{
		{Key: key(2), Span: store.Span{Start: 4, End: 7}},
		{Key: key(6), Span: store.Span{Start: 0, End: 3}},
		{Key: key(9), Span: store.Span{Start: 0, End: 1}},
	}
	if !slices.Equal(got, want) {
		t.Errorf("BatchEdgeSpans = %v, want %v", got, want)
	}
	if got := ix.Vertices(3, store.In, 1, 2); !slices.Equal(got, []rdf.ID{2, 6, 9}) {
		t.Errorf("Vertices = %v, want [2 6 9]", got)
	}
	if v, n := ix.PredWindowStats(3, store.In, 1, 2); v != 8 || n != 4 {
		t.Errorf("PredWindowStats = %d values, %d vertices; want 8, 4", v, n)
	}
	if v, n := ix.PredWindowStats(4, store.Out, 2, 2); v != 0 || n != 0 {
		t.Errorf("PredWindowStats outside the predicate's batch = %d, %d", v, n)
	}
	// Batch 1: four entries and two runs; batch 2: one entry and one run.
	const entry, run = 16, int64(unsafe.Sizeof(store.Run{}))
	if got, want := ix.MemoryBytes(), 4*entry+2*run+entry+run; got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestSizeIndependentOfShareOrder: a batch's shares arrive in whichever
// order the nodes finish injecting them, and the index's size is the same
// either way. Each share merges spans of its own, so the two orders merge
// different amounts at each step.
func TestSizeIndependentOfShareOrder(t *testing.T) {
	a := []store.KeySpan{
		{Key: key(2), Span: store.Span{Start: 0, End: 1}},
		{Key: key(2), Span: store.Span{Start: 1, End: 2}},
		{Key: key(2), Span: store.Span{Start: 2, End: 3}},
	}
	b := []store.KeySpan{
		{Key: key(6), Span: store.Span{Start: 0, End: 1}},
		{Key: store.EdgeKey(5, 4, store.Out), Span: store.Span{Start: 0, End: 2}},
	}
	size := func(first, second []store.KeySpan) int64 {
		ix := New(0)
		ix.AddBatch(1, slices.Clone(first))
		ix.AddBatch(1, slices.Clone(second))
		return ix.MemoryBytes()
	}
	ab, ba := size(a, b), size(b, a)
	if ab != ba {
		t.Fatalf("MemoryBytes = %d with share a first, %d with share b first", ab, ba)
	}
	const entry, run = 16, int64(unsafe.Sizeof(store.Run{}))
	if want := 3*entry + 2*run; ab != want {
		t.Errorf("MemoryBytes = %d, want %d (3 entries, 2 runs)", ab, want)
	}
}
