package store

import (
	"sync"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// KeySpan pairs a key with the span of values one insertion appended to it;
// the injector forwards these to the stream index (§4.2).
type KeySpan struct {
	Key  Key
	Span Span
}

// Sharded is the cluster-wide persistent store: one Shard per fabric node,
// partitioned by vertex ID. It also maintains the global statistics the
// query planner uses for selectivity estimation.
type Sharded struct {
	fab    *fabric.Fabric
	shards []*Shard

	statMu    sync.RWMutex
	predStats map[rdf.ID]*PredStat

	// Operation counters for the observability layer.
	reads      atomic.Int64 // snapshot key reads (Read, ReadFrontier)
	spanReads  atomic.Int64 // stream-index span reads (ReadSpan, GatherSpans)
	indexReads atomic.Int64 // index-vertex gathers (ReadIndex)
	prunes     atomic.Int64 // PruneSnapshots invocations
}

// PredStat is the planner-facing statistics for one predicate.
type PredStat struct {
	Edges    atomic.Int64 // total (s,p,o) statements with this predicate
	Subjects atomic.Int64 // distinct subjects (index-vertex Out size)
	Objects  atomic.Int64 // distinct objects (index-vertex In size)
}

// NewSharded creates an empty cluster store over the fabric.
func NewSharded(f *fabric.Fabric, maxSnapshots int) *Sharded {
	g := &Sharded{
		fab:       f,
		shards:    make([]*Shard, f.Nodes()),
		predStats: make(map[rdf.ID]*PredStat),
	}
	for n := range g.shards {
		g.shards[n] = NewShard(fabric.NodeID(n), maxSnapshots)
	}
	return g
}

// Fabric returns the underlying fabric.
func (g *Sharded) Fabric() *fabric.Fabric { return g.fab }

// HomeOf returns the node owning a vertex's keys.
func (g *Sharded) HomeOf(vid rdf.ID) fabric.NodeID { return g.fab.HomeOf(uint64(vid)) }

// Shard returns node n's partition.
func (g *Sharded) Shard(n fabric.NodeID) *Shard { return g.shards[n] }

// ShardOf returns the partition owning vid.
func (g *Sharded) ShardOf(vid rdf.ID) *Shard { return g.shards[g.HomeOf(vid)] }

func (g *Sharded) pstat(pid rdf.ID) *PredStat {
	g.statMu.RLock()
	st, ok := g.predStats[pid]
	g.statMu.RUnlock()
	if ok {
		return st
	}
	g.statMu.Lock()
	defer g.statMu.Unlock()
	if st, ok := g.predStats[pid]; ok {
		return st
	}
	st = &PredStat{}
	g.predStats[pid] = st
	return st
}

// Stats returns the statistics for a predicate (zero stats if unseen).
func (g *Sharded) Stats(pid rdf.ID) (edges, subjects, objects int64) {
	g.statMu.RLock()
	st, ok := g.predStats[pid]
	g.statMu.RUnlock()
	if !ok {
		return 0, 0, 0
	}
	return st.Edges.Load(), st.Subjects.Load(), st.Objects.Load()
}

// BumpEdges updates planner statistics for injectors that write shard-level
// appends directly (bypassing Insert).
func (g *Sharded) BumpEdges(pid rdf.ID) { g.pstat(pid).Edges.Add(1) }

// BumpSubjects records a first-sight subject for pid.
func (g *Sharded) BumpSubjects(pid rdf.ID) { g.pstat(pid).Subjects.Add(1) }

// BumpObjects records a first-sight object for pid.
func (g *Sharded) BumpObjects(pid rdf.ID) { g.pstat(pid).Objects.Add(1) }

// Insert adds one triple under snapshot sn: the out-edge on the subject's
// home shard, the in-edge on the object's home shard, and the index-vertex
// entries on first sight of each (vid,pid,dir). Unless spans is nil, it
// appends to *spans the key span of every value a stream index addresses:
// the out-edge, the in-edge and the index-vertex entries.
//
// With floor set every append goes through AppendOneFloor, for snapshot
// restore and catch-up: replaying a historical triple into a store that
// already advanced past sn clamps the boundary instead of panicking on
// snapshot regression.
//
// Insert performs the *local* work of the paper's Injector; the stream
// substrate's dispatcher is responsible for routing each tuple so that
// Insert runs on (or on behalf of) the owning nodes.
func (g *Sharded) Insert(t strserver.EncodedTriple, sn uint32, floor bool, spans *[]KeySpan) {
	st := g.pstat(t.P)
	st.Edges.Add(1)
	if g.ShardOf(t.S).insertEdge(t.S, t.P, t.O, Out, sn, floor, spans) {
		st.Subjects.Add(1)
	}
	if g.ShardOf(t.O).insertEdge(t.O, t.P, t.S, In, sn, floor, spans) {
		st.Objects.Add(1)
	}
}

// insertEdge is one side of Insert on vid's home shard s: it appends nbr to
// vid's pid-edge in direction d and, on the key's first value, vid to the pid
// index vertex and pid to vid's predicate index. It reports whether the key
// was new.
func (s *Shard) insertEdge(vid, pid, nbr rdf.ID, d Dir, sn uint32, floor bool, spans *[]KeySpan) bool {
	key := EdgeKey(vid, pid, d)
	sp, first := s.appendOne(key, nbr, sn, floor)
	if spans != nil {
		*spans = append(*spans, KeySpan{Key: key, Span: sp})
	}
	if !first {
		return false
	}
	idx := IndexKey(pid, d)
	isp, _ := s.appendOne(idx, vid, sn, floor)
	if spans != nil {
		*spans = append(*spans, KeySpan{Key: idx, Span: isp})
	}
	s.appendOne(PredIndexKey(vid, d), pid, sn, floor)
	return true
}

// LoadBase bulk-loads the initially stored data at the base snapshot.
func (g *Sharded) LoadBase(triples []strserver.EncodedTriple) {
	for _, t := range triples {
		g.Insert(t, BaseSN, false, nil)
	}
}

// Read returns key's values visible at snapshot sn, charging the network
// cost of a normal remote key/value access: at least two one-sided reads —
// read key (lookup) and read value (§5 "Leveraging RDMA"). The error is
// always nil; the signature is kept for callers built against it (see
// ReadValues).
func (g *Sharded) Read(from fabric.NodeID, key Key, sn uint32) ([]rdf.ID, error) {
	return g.ReadValues(from, key, sn), nil
}

// ReadValues is Read without the error result.
func (g *Sharded) ReadValues(from fabric.NodeID, key Key, sn uint32) []rdf.ID {
	g.reads.Add(1)
	home := g.HomeOf(key.Vid)
	if home == from {
		return g.shards[home].Get(key, sn)
	}
	g.fab.ReadRemote(from, home, 16) // key lookup
	vals := g.shards[home].Get(key, sn)
	g.fab.ReadRemote(from, home, 8*len(vals)) // value read
	return vals
}

// ReadSpan returns the values covered by a stream-index span with a single
// one-sided read: the replicated stream index made the fat pointer locally
// available, so no lookup round is needed (§5).
func (g *Sharded) ReadSpan(from fabric.NodeID, key Key, sp Span) []rdf.ID {
	g.spanReads.Add(1)
	home := g.HomeOf(key.Vid)
	vals := g.shards[home].GetSpan(key, sp)
	g.fab.ReadRemote(from, home, 8*len(vals))
	return vals
}

// GatherSpans reads many stream-index spans on behalf of a worker on `from`,
// coalescing the remote pricing per home node: all spans homed on one node
// travel in a single batched one-sided read (doorbell batching), sized by
// the values fetched — the access pattern of a delta edge-cache build, which
// knows every fat pointer up front. The lookups are grouped as ReadFrontier
// groups them. The result slice is parallel to kss.
func (g *Sharded) GatherSpans(from fabric.NodeID, kss []KeySpan) [][]rdf.ID {
	out := make([][]rdf.ID, len(kss))
	if len(kss) == 0 {
		return out
	}
	g.spanReads.Add(int64(len(kss)))
	fr := g.frontierFor(len(kss), func(i int) Key { return kss[i].Key })
	fr.read(g.shards, 0, kss, out)
	for h := range g.shards {
		if fabric.NodeID(h) == from {
			continue
		}
		bytes := 0
		for _, i := range fr.home(h) {
			bytes += 8 * len(out[i])
		}
		if bytes > 0 {
			g.fab.ReadRemote(from, fabric.NodeID(h), bytes)
		}
	}
	frontiers.Put(fr)
	return out
}

// ReadIndex gathers an index vertex across all nodes on behalf of a worker on
// `from`: each remote partition costs a key lookup plus a value read.
func (g *Sharded) ReadIndex(from fabric.NodeID, pid rdf.ID, d Dir, sn uint32) []rdf.ID {
	g.indexReads.Add(1)
	var out []rdf.ID
	for n := 0; n < g.fab.Nodes(); n++ {
		vals := g.shards[n].Get(IndexKey(pid, d), sn)
		g.fab.ReadRemote(from, fabric.NodeID(n), 16)
		g.fab.ReadRemote(from, fabric.NodeID(n), 8*len(vals))
		out = append(out, vals...)
	}
	return out
}

// ReadLocalIndex returns node n's partition of an index vertex at snapshot
// sn. Index vertices are partitioned (each node lists its local vertices),
// so full index scans fork-join across nodes.
func (g *Sharded) ReadLocalIndex(n fabric.NodeID, pid rdf.ID, d Dir, sn uint32) []rdf.ID {
	return g.shards[n].Get(IndexKey(pid, d), sn)
}

// PruneSnapshots collapses snapshot metadata below minSN on every shard.
func (g *Sharded) PruneSnapshots(minSN uint32) {
	g.prunes.Add(1)
	for _, s := range g.shards {
		s.PruneSnapshots(minSN)
	}
}

// OpStats summarizes the cluster store's operation counters.
type OpStats struct {
	Reads      int64 // snapshot key reads
	SpanReads  int64 // stream-index span reads
	IndexReads int64 // index-vertex gathers
	Prunes     int64 // snapshot-metadata prune passes
	// PruneVisited is the entries those passes examined; it grows with what
	// recent snapshots touched, not with the number of keys stored.
	PruneVisited int64
}

// OpStats returns a snapshot of the operation counters.
func (g *Sharded) OpStats() OpStats {
	st := OpStats{
		Reads:      g.reads.Load(),
		SpanReads:  g.spanReads.Load(),
		IndexReads: g.indexReads.Load(),
		Prunes:     g.prunes.Load(),
	}
	for _, s := range g.shards {
		st.PruneVisited += s.PruneVisited()
	}
	return st
}

// MultiBoundaryKeys returns how many keys across all shards carry more than
// one snapshot boundary.
func (g *Sharded) MultiBoundaryKeys() int64 {
	var n int64
	for _, s := range g.shards {
		n += s.MultiBoundaryKeys()
	}
	return n
}

// Memory aggregates memory statistics across all shards.
func (g *Sharded) Memory() MemoryStats {
	var total MemoryStats
	for _, s := range g.shards {
		m := s.Memory()
		total.Entries += m.Entries
		total.Values += m.Values
		total.SegBoundaries += m.SegBoundaries
		total.ValueBytes += m.ValueBytes
		total.SegBytes += m.SegBytes
		total.KeyBytes += m.KeyBytes
		total.ScalarizedCost += m.ScalarizedCost
	}
	return total
}
