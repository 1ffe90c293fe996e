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
// Like the transient store, batch indexes are created on the later side and
// garbage-collected from the earlier side. The index also tracks its replica
// set: with locality-aware partitioning the index is replicated to exactly
// the nodes where registered continuous queries demand the stream (§4.2),
// so in-place execution needs one one-sided read per span instead of two.
package sindex

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/tstore"
)

// pidDir keys the per-predicate vertex lists.
type pidDir struct {
	pid rdf.ID
	dir store.Dir
}

// batchIndex is the stream index of a single mini-batch.
type batchIndex struct {
	batch   tstore.BatchID
	entries map[store.Key][]store.Span
	// byPred lists the distinct vertices that gained a (pid,dir) edge in
	// this batch — the window-scoped equivalent of Wukong's index vertices.
	// Unbound stream patterns enumerate candidates from these lists, so the
	// search space stays proportional to the window, not the store (§4.2).
	byPred map[pidDir][]rdf.ID
	// predVals counts the values (edges) each (pid,dir) appended in this
	// batch — the planner's window-scoped cardinality statistic, maintained
	// at injection time so estimation never scans the index.
	predVals map[pidDir]int64
	bytes    int64
	// spare is where a key's first span is carved from: one chunk per
	// AddBatch call instead of one one-element slice per key. Carved at full
	// capacity, so a key that gains a second, non-adjacent span reallocates
	// its own slice and leaves its neighbours alone.
	spare []store.Span
}

// entryBytes approximates the resident size of one index entry: a 24-byte
// key plus an 8-byte span (the paper's 96-bit fat pointer ≈ 12 bytes; we
// charge our actual layout).
const entryBytes = 24 + 8

// Index is the stream index for one stream. Methods are safe for concurrent
// use.
type Index struct {
	mu      sync.RWMutex
	batches []*batchIndex // ascending batch order

	home fabric.NodeID // fixed at New

	replicaMu   sync.RWMutex
	replicas    map[fabric.NodeID]bool
	replicaList []fabric.NodeID // the set as a slice, rebuilt (never edited) by Replicate

	gcRuns    int64
	gcBatches int64 // batch indexes freed by GC
	gcBytes   int64 // resident bytes reclaimed by GC

	lookups  atomic.Int64 // Lookup calls (span fetches)
	vertices atomic.Int64 // Vertices calls (candidate enumerations)
}

// New creates an empty stream index homed on the given node.
func New(home fabric.NodeID) *Index {
	return &Index{home: home, replicas: map[fabric.NodeID]bool{home: true}, replicaList: []fabric.NodeID{home}}
}

// AddBatch records the key spans appended by one batch's injection. Adjacent
// spans for the same key merge into one (injection within a batch is
// consecutive per key, §4.3). Batches arrive in ascending order: the engine
// finishes injecting one batch of a stream on every node before the next.
func (ix *Index) AddBatch(batch tstore.BatchID, spans []store.KeySpan) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var bi *batchIndex
	if n := len(ix.batches); n > 0 && ix.batches[n-1].batch == batch {
		bi = ix.batches[n-1]
	} else {
		bi = newBatchIndex(batch, len(spans))
		ix.batches = append(ix.batches, bi)
	}
	if len(bi.spare) < len(spans) {
		bi.spare = make([]store.Span, len(spans)) // at most one new key per span
	}
	for _, ks := range spans {
		prev := bi.entries[ks.Key]
		isNewKey := prev == nil
		if !ks.Key.IsIndex() {
			bi.predVals[pidDir{pid: ks.Key.Pid, dir: ks.Key.Dir}] += int64(ks.Span.Len())
		}
		if len(prev) > 0 && prev[len(prev)-1].End == ks.Span.Start {
			prev[len(prev)-1].End = ks.Span.End
			continue
		}
		if isNewKey {
			prev, bi.spare = bi.spare[:0:1], bi.spare[1:]
		}
		bi.entries[ks.Key] = append(prev, ks.Span)
		bi.bytes += entryBytes
		if isNewKey && !ks.Key.IsIndex() {
			pd := pidDir{pid: ks.Key.Pid, dir: ks.Key.Dir}
			bi.byPred[pd] = append(bi.byPred[pd], ks.Key.Vid)
			bi.bytes += 8
		}
	}
}

// newBatchIndex sizes the entry map for the spans of the first share to
// arrive (each node adds its own share; the rest grow the map as usual).
func newBatchIndex(batch tstore.BatchID, spans int) *batchIndex {
	return &batchIndex{
		batch:    batch,
		entries:  make(map[store.Key][]store.Span, spans),
		byPred:   make(map[pidDir][]rdf.ID),
		predVals: make(map[pidDir]int64),
	}
}

// BatchEdgeSpans returns one KeySpan per span that batch b appended under a
// (pid, d) edge key — a one-walk enumeration of the batch's edges for delta
// evaluation. The batch's byPred vertex list drives the walk, so the cost is
// proportional to the batch's matching vertices, not a per-vertex Lookup
// scan over every batch index in the window.
func (ix *Index) BatchEdgeSpans(b tstore.BatchID, pid rdf.ID, d store.Dir) []store.KeySpan {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.batches)
	i := sort.Search(n, func(i int) bool { return ix.batches[i].batch >= b })
	if i >= n || ix.batches[i].batch != b {
		return nil
	}
	bi := ix.batches[i]
	verts := bi.byPred[pidDir{pid: pid, dir: d}]
	out := make([]store.KeySpan, 0, len(verts))
	for _, v := range verts {
		key := store.EdgeKey(v, pid, d)
		for _, sp := range bi.entries[key] {
			out = append(out, store.KeySpan{Key: key, Span: sp})
		}
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
// for (pid, d) over batches [from, to]: total values (edges) and distinct
// vertices carrying at least one. Both come from counters maintained at
// injection time, so the call is O(batches in window), independent of data
// volume.
func (ix *Index) PredWindowStats(pid rdf.ID, d store.Dir, from, to tstore.BatchID) (values, vertices int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pd := pidDir{pid: pid, dir: d}
	for _, bi := range ix.batches {
		if bi.batch < from {
			continue
		}
		if bi.batch > to {
			break
		}
		values += bi.predVals[pd]
		vertices += int64(len(bi.byPred[pd]))
	}
	return values, vertices
}

// Vertices returns the distinct vertices with a (pid,dir) edge inside
// batches [from, to] — the window candidates for unbound stream patterns.
func (ix *Index) Vertices(pid rdf.ID, d store.Dir, from, to tstore.BatchID) []rdf.ID {
	ix.vertices.Add(1)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	seen := make(map[rdf.ID]bool)
	var out []rdf.ID
	pd := pidDir{pid: pid, dir: d}
	for _, bi := range ix.batches {
		if bi.batch < from {
			continue
		}
		if bi.batch > to {
			break
		}
		for _, v := range bi.byPred[pd] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Lookup returns the spans for key across batches in [from, to], in time
// order. The slice is freshly allocated.
func (ix *Index) Lookup(key store.Key, from, to tstore.BatchID) []store.Span {
	ix.lookups.Add(1)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []store.Span
	for _, bi := range ix.batches {
		if bi.batch < from {
			continue
		}
		if bi.batch > to {
			break
		}
		out = append(out, bi.entries[key]...)
	}
	return out
}

// chargeRemote charges the one-sided read a replica-less node pays against
// the index home (§4.2).
func (ix *Index) chargeRemote(fab *fabric.Fabric, from fabric.NodeID) {
	ix.replicaMu.RLock()
	local := ix.replicas[from] || ix.home == from
	home := ix.home
	ix.replicaMu.RUnlock()
	if !local {
		fab.ReadRemote(from, home, 16)
	}
}

// VerticesFrom is Vertices on behalf of a worker on node `from`: a node
// without a replica pays one remote lookup read against the index home
// before scanning.
func (ix *Index) VerticesFrom(fab *fabric.Fabric, from fabric.NodeID, pid rdf.ID, d store.Dir, lo, hi tstore.BatchID) []rdf.ID {
	ix.chargeRemote(fab, from)
	return ix.Vertices(pid, d, lo, hi)
}

// Keys returns the distinct keys indexed across batches in [from, to]. The
// continuous engine uses this to enumerate window data for index-vertex
// starts.
func (ix *Index) Keys(from, to tstore.BatchID) []store.Key {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	seen := make(map[store.Key]bool)
	var out []store.Key
	for _, bi := range ix.batches {
		if bi.batch < from || bi.batch > to {
			continue
		}
		for k := range bi.entries {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
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
		ix.gcBytes += ix.batches[0].bytes
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
	if ix.replicas[n] {
		return
	}
	ix.replicas[n] = true
	ix.replicaList = append(ix.replicaList[:len(ix.replicaList):len(ix.replicaList)], n)
}

// ReplicatedOn reports whether node n holds a replica.
func (ix *Index) ReplicatedOn(n fabric.NodeID) bool {
	ix.replicaMu.RLock()
	defer ix.replicaMu.RUnlock()
	return ix.replicas[n]
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

// MemoryBytes returns the resident size of the index (one replica).
func (ix *Index) MemoryBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var n int64
	for _, bi := range ix.batches {
		n += bi.bytes
	}
	return n
}

// GCRuns returns the number of GC invocations that freed at least one batch.
func (ix *Index) GCRuns() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.gcRuns
}

// Counters summarizes the index's operation and reclaim totals.
type Counters struct {
	Lookups   int64 // span fetches (Lookup)
	Vertices  int64 // candidate enumerations (Vertices)
	GCRuns    int64
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
