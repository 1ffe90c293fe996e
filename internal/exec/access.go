package exec

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sindex"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/tstore"
)

// Access provides a pattern's data. Implementations charge the fabric for
// remote operations, so the executor stays oblivious to network pricing.
type Access interface {
	// Neighbors reads a traversal step's frontier in one call: out[i] gets
	// the neighbors keys[i] ([vid|pid|dir]) addresses, as visible to this
	// access path, on behalf of a worker on node from. out is as long as
	// keys; the slices it gets may alias the data and are read-only.
	Neighbors(from fabric.NodeID, keys []store.Key, out [][]rdf.ID)
	// Candidates enumerates all vertices carrying a pid edge in direction d
	// (the index-vertex read), gathering every node's partition.
	Candidates(from fabric.NodeID, pid rdf.ID, d store.Dir) []rdf.ID
	// LocalCandidates returns only node n's partition of the index vertex;
	// fork-join seeding scans each partition on its own node.
	LocalCandidates(n fabric.NodeID, pid rdf.ID, d store.Dir) []rdf.ID
}

// frontier is the scratch of one Neighbors call: the keys of a chunk of a
// step's rows and the neighbor lists read for them. It is pooled, so a step
// allocates nothing for it.
type frontier struct {
	keys []store.Key
	vals [][]rdf.ID
}

var frontiers = sync.Pool{New: func() any { return new(frontier) }}

func getFrontier() *frontier { return frontiers.Get().(*frontier) }

// size makes f hold n keys, dropping the neighbor lists of its last read.
func (f *frontier) size(n int) {
	clear(f.vals)
	f.keys = slices.Grow(f.keys[:0], n)[:n]
	f.vals = slices.Grow(f.vals[:0], n)[:n]
}

// release returns f to the pool, holding no neighbor list.
func (f *frontier) release() {
	f.size(0)
	frontiers.Put(f)
}

// Provider maps a pattern's graph scope to its Access.
type Provider interface {
	Access(g sparql.GraphRef) (Access, error)
}

// StoredAccess reads the persistent store at a fixed snapshot. One-shot
// queries use Stable_SN; continuous queries touching stored patterns use the
// stable snapshot current at trigger time.
type StoredAccess struct {
	Store *store.Sharded
	SN    uint32
}

// Neighbors implements Access via one frontier read of the snapshot (two
// one-sided reads per remote key: key lookup + value).
func (a StoredAccess) Neighbors(from fabric.NodeID, keys []store.Key, out [][]rdf.ID) {
	a.Store.ReadFrontier(from, keys, a.SN, out)
}

// Candidates gathers every node's index-vertex partition.
func (a StoredAccess) Candidates(from fabric.NodeID, pid rdf.ID, d store.Dir) []rdf.ID {
	return a.Store.ReadIndex(from, pid, d, a.SN)
}

// LocalCandidates returns node n's index partition (a local read).
func (a StoredAccess) LocalCandidates(n fabric.NodeID, pid rdf.ID, d store.Dir) []rdf.ID {
	return a.Store.ReadLocalIndex(n, pid, d, a.SN)
}

// WindowObs holds pre-resolved counters for window fetch fan-out — how many
// index lookups, span reads, and transient reads one window execution spreads
// across the cluster. Pre-resolving keeps the executor hot path free of
// registry map lookups. All methods are safe on a nil receiver.
type WindowObs struct {
	IndexLookups   *obs.Counter
	SpanReads      *obs.Counter
	TransientReads *obs.Counter
	CandidateScans *obs.Counter
}

// NewWindowObs resolves the window fan-out counters against r (nil r → all
// recording disabled).
func NewWindowObs(r *obs.Registry) *WindowObs {
	return &WindowObs{
		IndexLookups:   r.Counter("window_index_lookups_total"),
		SpanReads:      r.Counter("window_span_reads_total"),
		TransientReads: r.Counter("window_transient_reads_total"),
		CandidateScans: r.Counter("window_candidate_scans_total"),
	}
}

func (w *WindowObs) lookup() {
	if w != nil {
		w.IndexLookups.Inc()
	}
}

func (w *WindowObs) spanRead() {
	if w != nil {
		w.SpanReads.Inc()
	}
}

func (w *WindowObs) transientRead() {
	if w != nil {
		w.TransientReads.Inc()
	}
}

func (w *WindowObs) candidateScan() {
	if w != nil {
		w.CandidateScans.Inc()
	}
}

// WindowAccess reads one stream's window: timeless data through the stream
// index into the persistent store, timing data from the per-node transient
// stores. The window is the batch range [From, To].
type WindowAccess struct {
	Store      *store.Sharded
	Index      *sindex.Index
	Transients []*tstore.Store // per node; nil entries mean "no timing data"
	From, To   tstore.BatchID
	Obs        *WindowObs // fan-out counters; nil records nothing
}

// indexLookup charges one extra one-sided read when the stream index is not
// replicated on the reading node (§4.2: a partitioned stream index incurs an
// additional RDMA read).
func (a WindowAccess) indexLookup(from fabric.NodeID, key store.Key) []store.Span {
	a.Obs.lookup()
	spans := a.Index.Lookup(key, a.From, a.To)
	if !a.Index.ReplicatedOn(from) {
		a.Store.Fabric().ReadRemote(from, a.Store.HomeOf(key.Vid), 16)
	}
	return spans
}

// Neighbors implements Access one key at a time: stream-index spans give
// direct value reads (one one-sided read each when remote); timing data
// comes from the home node's transient store.
func (a WindowAccess) Neighbors(from fabric.NodeID, keys []store.Key, out [][]rdf.ID) {
	for i, key := range keys {
		out[i] = a.neighbors(from, key)
	}
}

func (a WindowAccess) neighbors(from fabric.NodeID, key store.Key) []rdf.ID {
	var out []rdf.ID
	for _, sp := range a.indexLookup(from, key) {
		a.Obs.spanRead()
		out = append(out, a.Store.ReadSpan(from, key, sp)...)
	}
	home := a.Store.HomeOf(key.Vid)
	if ts := a.Transients[home]; ts != nil {
		a.Obs.transientRead()
		out = append(out, ts.GetFrom(a.Store.Fabric(), from, home, key, a.From, a.To)...)
	}
	return out
}

// Edge is one (from → to) stream edge as the executor would traverse it:
// from is the Candidates-side vertex under the step's direction, to one of
// its Neighbors.
type Edge struct{ From, To rdf.ID }

// BatchEdges enumerates the edges one mini-batch contributed for (pid, d),
// sorted by the from-side vertex — the delta evaluator's edge list. One run
// of the batch's stream index yields its fat pointers up front, so the
// per-vertex index lookups Neighbors would pay disappear and the span reads
// coalesce into one batched gather per home node (GatherSpans); per-node
// transient runs fold in with the usual remote pricing. Duplicate edges stay
// duplicated, matching Expand row multiplicity. The batch need not lie
// inside [From, To]: the caller names it explicitly.
func (a WindowAccess) BatchEdges(from fabric.NodeID, b tstore.BatchID, pid rdf.ID, d store.Dir) []Edge {
	a.Obs.candidateScan()
	kss := a.Index.BatchEdgeSpansFrom(a.Store.Fabric(), from, b, pid, d)
	vals := a.Store.GatherSpans(from, kss)
	total := 0
	for _, v := range vals {
		total += len(v)
	}
	out := make([]Edge, 0, total)
	for i, ks := range kss {
		a.Obs.spanRead()
		for _, v := range vals[i] {
			out = append(out, Edge{From: ks.Key.Vid, To: v})
		}
	}
	sources := min(len(out), 1)
	for n, ts := range a.Transients {
		if ts == nil {
			continue
		}
		a.Obs.transientRead()
		ps := ts.BatchEdgesFrom(a.Store.Fabric(), from, fabric.NodeID(n), b, pid, d)
		if len(ps) > 0 {
			sources++
		}
		for _, p := range ps {
			out = append(out, Edge{From: p.Key.Vid(), To: p.Val})
		}
	}
	if sources > 1 {
		slices.SortStableFunc(out, func(x, y Edge) int { return cmp.Compare(x.From, y.From) })
	}
	return out
}

// Candidates enumerates the window's vertices carrying a pid edge in
// direction d by scanning the stream index's edge keys — the stream index IS
// the index for window data (§4.2), so no persistent-store index vertex is
// consulted (which would also see data outside the window, and would miss
// vertices the store already knew).
func (a WindowAccess) Candidates(from fabric.NodeID, pid rdf.ID, d store.Dir) []rdf.ID {
	a.Obs.candidateScan()
	out := a.Index.VerticesFrom(a.Store.Fabric(), from, pid, d, a.From, a.To)
	// Timing data: scan each node's transient window for this predicate.
	var seen map[rdf.ID]bool
	for n, ts := range a.Transients {
		if ts == nil {
			continue
		}
		cands := ts.ScanVertices(pid, d, a.From, a.To)
		if len(cands) == 0 {
			continue
		}
		if seen == nil {
			seen = make(map[rdf.ID]bool, len(out))
			for _, v := range out {
				seen[v] = true
			}
		}
		for _, v := range cands {
			if !seen[v] {
				seen[v] = true
				a.Store.Fabric().ReadRemote(from, fabric.NodeID(n), 8)
				out = append(out, v)
			}
		}
	}
	return out
}

// LocalCandidates returns node n's share of the window candidates: the
// vertices homed on n.
func (a WindowAccess) LocalCandidates(n fabric.NodeID, pid rdf.ID, d store.Dir) []rdf.ID {
	var out []rdf.ID
	seen := make(map[rdf.ID]bool)
	for _, v := range a.Index.Vertices(pid, d, a.From, a.To) {
		if a.Store.HomeOf(v) == n {
			seen[v] = true
			out = append(out, v)
		}
	}
	if ts := a.Transients[n]; ts != nil {
		for _, v := range ts.ScanVertices(pid, d, a.From, a.To) {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}
