// Package sindex implements the Wukong+S stream index (§4.2): a fast path
// for continuous queries to reach streaming data that the persistent store
// has scattered across its key/value pairs.
//
// For each stream, the index is a time-ordered sequence of per-batch indexes.
// A batch index maps a store key to the span(s) of values that batch appended
// to the key — the paper's "fat pointer" that may locate into the middle of a
// value. A continuous query over window [from,to] looks up its key in each
// covered batch index and reads the spans directly, making the search space
// independent of the stored-data size.
//
// A mini-batch does not change once it is injected, so a batch index is one
// array of (key, span) entries in the store's batch order (store.Ord) with a
// small run directory per (pid, dir): a lookup binary-searches, and a
// predicate's vertices, its value count and its distinct-vertex count are
// one run. Like the transient store, batch indexes are created on the later
// side and garbage-collected from the earlier side. The index also tracks its
// replica set: with locality-aware partitioning the index is replicated to
// exactly the nodes where registered continuous queries demand the stream
// (§4.2), so in-place execution needs one one-sided read per span instead of
// two.
package sindex

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/tstore"
)

// entry is one span a batch appended under a key: 16 bytes, the paper's
// fat pointer beside its packed key.
type entry struct {
	key  store.Ord
	span store.Span
}

// batchIndex is the stream index of a single mini-batch: its entries in
// batch order (a key's spans in value order, adjacent ones merged) and the
// run directory over them.
type batchIndex struct {
	batch   tstore.BatchID
	entries []entry
	runs    []store.Run
}

// bytes is the batch's resident size: its two arrays, each allocated at
// exactly its length, so the size does not depend on the order the batch's
// shares arrived in.
func (bi *batchIndex) bytes() int64 {
	return int64(cap(bi.entries))*int64(unsafe.Sizeof(entry{})) + int64(cap(bi.runs))*int64(unsafe.Sizeof(store.Run{}))
}

// Index is the stream index for one stream. Methods are safe for concurrent
// use.
type Index struct {
	mu      sync.RWMutex
	batches []*batchIndex // ascending batch order

	home fabric.NodeID // fixed at New

	// AddBatch's merge buffers, reused under mu: a batch keeps exact copies.
	mergeBuf []entry
	runBuf   []store.Run

	replicaMu   sync.RWMutex
	replicaList []fabric.NodeID // the set, home first; rebuilt (never edited) by Replicate

	gcRuns    int64
	gcBatches int64 // batch indexes freed by GC
	gcBytes   int64 // resident bytes reclaimed by GC

	lookups  atomic.Int64 // Lookup calls (span fetches)
	vertices atomic.Int64 // Vertices calls (candidate enumerations)
}

// New creates an empty stream index homed on the given node.
func New(home fabric.NodeID) *Index {
	return &Index{home: home, replicaList: []fabric.NodeID{home}}
}

// AddBatch records one injection share's key spans for a batch. It sorts
// spans in place (the caller's scratch) into batch order, then, under the
// write lock, merges them into the batch's array; adjacent spans of one key
// merge into one (injection within a batch is consecutive per key, §4.3).
// Batches arrive in ascending order: the engine finishes injecting one batch
// of a stream on every node before the next, and no reader reads a batch
// before its snapshot is stable, so a batch is complete before it is read.
func (ix *Index) AddBatch(batch tstore.BatchID, spans []store.KeySpan) {
	slices.SortFunc(spans, func(a, b store.KeySpan) int {
		if c := cmp.Compare(a.Key.Ord(), b.Key.Ord()); c != 0 {
			return c
		}
		return cmp.Compare(a.Span.Start, b.Span.Start)
	})
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var bi *batchIndex
	if n := len(ix.batches); n > 0 && ix.batches[n-1].batch == batch {
		bi = ix.batches[n-1]
	} else {
		bi = &batchIndex{batch: batch}
		ix.batches = append(ix.batches, bi)
	}
	if len(spans) == 0 {
		return
	}
	old := bi.entries
	merged := ix.mergeBuf[:0]
	add := func(e entry) {
		if n := len(merged); n > 0 && merged[n-1].key == e.key && merged[n-1].span.End == e.span.Start {
			merged[n-1].span.End = e.span.End
			return
		}
		merged = append(merged, e)
	}
	i := 0
	for _, ks := range spans {
		e := entry{key: ks.Key.Ord(), span: ks.Span}
		for i < len(old) && (old[i].key < e.key || old[i].key == e.key && old[i].span.Start <= e.span.Start) {
			add(old[i])
			i++
		}
		add(e)
	}
	for _, e := range old[i:] {
		add(e)
	}
	bi.entries = exact(merged)
	runs := store.BuildRuns(ix.runBuf, bi.entries, func(e *entry) store.Ord { return e.key },
		func(e *entry) int64 { return int64(e.span.Len()) })
	bi.runs = exact(runs)
	ix.mergeBuf, ix.runBuf = merged[:0], runs[:0]
}

// exact copies s into an array of exactly its length.
func exact[E any](s []E) []E {
	out := make([]E, len(s))
	copy(out, s)
	return out
}

// window returns the batch indexes in [from, to].
func (ix *Index) window(from, to tstore.BatchID) []*batchIndex {
	i := sort.Search(len(ix.batches), func(i int) bool { return ix.batches[i].batch >= from })
	j := i
	for j < len(ix.batches) && ix.batches[j].batch <= to {
		j++
	}
	return ix.batches[i:j]
}

// BatchEdgeSpans returns one KeySpan per span that batch b appended under a
// (pid, d) edge key, in vertex order — one run of the batch's array, so the
// cost is proportional to the batch's matching entries, not a per-vertex
// Lookup over every batch index in the window.
func (ix *Index) BatchEdgeSpans(b tstore.BatchID, pid rdf.ID, d store.Dir) []store.KeySpan {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	w := ix.window(b, b)
	if len(w) == 0 {
		return nil
	}
	bi := w[0]
	r := store.FindRun(bi.runs, pid, d)
	out := make([]store.KeySpan, 0, r.Hi-r.Lo)
	for _, e := range bi.entries[r.Lo:r.Hi] {
		out = append(out, store.KeySpan{Key: e.key.Key(), Span: e.span})
	}
	return out
}

// BatchEdgeSpansFrom is BatchEdgeSpans on behalf of a worker on node `from`,
// charging the same replica-less remote read as VerticesFrom.
func (ix *Index) BatchEdgeSpansFrom(fab *fabric.Fabric, from fabric.NodeID, b tstore.BatchID, pid rdf.ID, d store.Dir) []store.KeySpan {
	ix.chargeRemote(fab, from)
	return ix.BatchEdgeSpans(b, pid, d)
}

// PredWindowStats returns the planner's window-scoped cardinality statistics
// for (pid, d) over batches [from, to]: total values (edges) and, summed per
// batch, the vertices carrying at least one. Both are counted when a batch's
// run directory is built, so the call is O(batches in window), independent
// of data volume.
func (ix *Index) PredWindowStats(pid rdf.ID, d store.Dir, from, to tstore.BatchID) (values, vertices int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, bi := range ix.window(from, to) {
		r := store.FindRun(bi.runs, pid, d)
		values += r.Values
		vertices += int64(r.Vertices)
	}
	return values, vertices
}

// Vertices returns the distinct vertices with a (pid,dir) edge inside
// batches [from, to], in ascending order — the window candidates for
// unbound stream patterns, and the window's index vertex (§4.2).
func (ix *Index) Vertices(pid rdf.ID, d store.Dir, from, to tstore.BatchID) []rdf.ID {
	ix.vertices.Add(1)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []rdf.ID
	runs := 0
	for _, bi := range ix.window(from, to) {
		r := store.FindRun(bi.runs, pid, d)
		if r.Vertices == 0 {
			continue
		}
		runs++
		for i, e := range bi.entries[r.Lo:r.Hi] {
			if i == 0 || bi.entries[int(r.Lo)+i-1].key != e.key {
				out = append(out, e.key.Vid())
			}
		}
	}
	if runs > 1 {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// Lookup returns the spans for key across batches in [from, to], in time
// order. The slice is freshly allocated.
func (ix *Index) Lookup(key store.Key, from, to tstore.BatchID) []store.Span {
	ix.lookups.Add(1)
	k := key.Ord()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []store.Span
	for _, bi := range ix.window(from, to) {
		es := bi.entries
		for i := sort.Search(len(es), func(i int) bool { return es[i].key >= k }); i < len(es) && es[i].key == k; i++ {
			out = append(out, es[i].span)
		}
	}
	return out
}

// chargeRemote charges the one-sided read a replica-less node pays against
// the index home (§4.2).
func (ix *Index) chargeRemote(fab *fabric.Fabric, from fabric.NodeID) {
	if !ix.ReplicatedOn(from) {
		fab.ReadRemote(from, ix.home, 16)
	}
}

// VerticesFrom is Vertices on behalf of a worker on node `from`: a node
// without a replica pays one remote lookup read against the index home
// before scanning.
func (ix *Index) VerticesFrom(fab *fabric.Fabric, from fabric.NodeID, pid rdf.ID, d store.Dir, lo, hi tstore.BatchID) []rdf.ID {
	ix.chargeRemote(fab, from)
	return ix.Vertices(pid, d, lo, hi)
}

// Batches returns the range of batches currently indexed, or (0,0) if empty.
func (ix *Index) Batches() (oldest, newest tstore.BatchID) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.batches) == 0 {
		return 0, 0
	}
	return ix.batches[0].batch, ix.batches[len(ix.batches)-1].batch
}

// GC frees batch indexes with batch < before.
func (ix *Index) GC(before tstore.BatchID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	freed := false
	for len(ix.batches) > 0 && ix.batches[0].batch < before {
		ix.gcBatches++
		ix.gcBytes += ix.batches[0].bytes()
		ix.batches[0] = nil
		ix.batches = ix.batches[1:]
		freed = true
	}
	if freed {
		ix.gcRuns++
	}
}

// Replicate marks the index as replicated on node n. Registration of a
// continuous query that demands this stream on node n triggers this; the
// engine charges the ongoing replication traffic at injection time.
func (ix *Index) Replicate(n fabric.NodeID) {
	ix.replicaMu.Lock()
	defer ix.replicaMu.Unlock()
	if slices.Contains(ix.replicaList, n) {
		return
	}
	ix.replicaList = append(ix.replicaList[:len(ix.replicaList):len(ix.replicaList)], n)
}

// ReplicatedOn reports whether node n holds a replica.
func (ix *Index) ReplicatedOn(n fabric.NodeID) bool {
	return slices.Contains(ix.Replicas(), n)
}

// Replicas returns the current replica set, home first then in replication
// order. The slice is a snapshot shared between callers — Replicate builds a
// new one instead of editing it — so the injector can read it on every batch
// without a copy; callers must not modify it.
func (ix *Index) Replicas() []fabric.NodeID {
	ix.replicaMu.RLock()
	defer ix.replicaMu.RUnlock()
	return ix.replicaList
}

// MemoryBytes returns the resident size of the index (one replica): the
// batch arrays' sizes.
func (ix *Index) MemoryBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var n int64
	for _, bi := range ix.batches {
		n += bi.bytes()
	}
	return n
}

// Counters summarizes the index's operation and reclaim totals.
type Counters struct {
	Lookups   int64 // span fetches (Lookup)
	Vertices  int64 // candidate enumerations (Vertices)
	GCRuns    int64 // GC calls that freed at least one batch
	GCBatches int64 // batch indexes freed
	GCBytes   int64 // resident bytes reclaimed
}

// Counters returns a snapshot of the index's operation counters.
func (ix *Index) Counters() Counters {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Counters{
		Lookups:   ix.lookups.Load(),
		Vertices:  ix.vertices.Load(),
		GCRuns:    ix.gcRuns,
		GCBatches: ix.gcBatches,
		GCBytes:   ix.gcBytes,
	}
}
