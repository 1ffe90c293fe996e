package stream

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sindex"
	"repro/internal/store"
	"repro/internal/tstore"
)

// NodeWork is one node's share of a batch: the tuple sides homed there.
type NodeWork struct {
	// SubjectSide tuples have their subject homed on this node: the out-edge
	// key (and possibly the Out index vertex) is written here.
	SubjectSide []Tuple
	// ObjectSide tuples have their object homed on this node: the in-edge
	// key (and possibly the In index vertex) is written here.
	ObjectSide []Tuple
}

// Empty reports whether the node receives no work for the batch.
func (w NodeWork) Empty() bool { return len(w.SubjectSide) == 0 && len(w.ObjectSide) == 0 }

// bytes approximates the wire size of the work (32 bytes per tuple side).
func (w NodeWork) bytes() int { return 32 * (len(w.SubjectSide) + len(w.ObjectSide)) }

// Dispatch partitions a batch across nodes and charges the dispatcher's
// network traffic: the stream arrives at one node (its adaptor home) and
// tuple shares are shipped to their owners.
func Dispatch(fab *fabric.Fabric, adaptorHome fabric.NodeID, b Batch) []NodeWork {
	nodes := fab.Nodes()
	work := make([]NodeWork, nodes)
	if len(b.Tuples) > 0 {
		// Count each node's two sides, then carve all of them from one
		// 2·len(tuples) array: every side gets exactly its capacity, so
		// filling it in tuple order below never reallocates.
		var stack [32]int
		counts := stack[:]
		if 2*nodes > len(stack) {
			counts = make([]int, 2*nodes)
		}
		for _, t := range b.Tuples {
			counts[2*fab.HomeOf(uint64(t.S))]++
			counts[2*fab.HomeOf(uint64(t.O))+1]++
		}
		sides := make([]Tuple, 2*len(b.Tuples))
		for n := range work {
			ns, no := counts[2*n], counts[2*n+1]
			work[n].SubjectSide, sides = sides[:0:ns], sides[ns:]
			work[n].ObjectSide, sides = sides[:0:no], sides[no:]
		}
		for _, t := range b.Tuples {
			sHome := fab.HomeOf(uint64(t.S))
			oHome := fab.HomeOf(uint64(t.O))
			work[sHome].SubjectSide = append(work[sHome].SubjectSide, t)
			work[oHome].ObjectSide = append(work[oHome].ObjectSide, t)
		}
	}
	for n := range work {
		if fabric.NodeID(n) == adaptorHome || work[n].Empty() {
			continue
		}
		// One-way shipment: the dispatcher does not block on delivery.
		fab.SendAsync(adaptorHome, fabric.NodeID(n), work[n].bytes())
	}
	return work
}

// InjectTarget bundles the stores one node's injector writes to.
type InjectTarget struct {
	Store     *store.Sharded
	Index     *sindex.Index // the stream's index (shared; replicas charged separately)
	Transient *tstore.Store // this node's transient store for this stream
	// Obs, when non-nil, receives the injection's stage latencies and tuple
	// counters (nil records nothing).
	Obs *InjectObs
	// Scratch, when non-nil, is span space InjectNode reuses from call to
	// call. It belongs to one (stream, node) pair: the engine injects one
	// batch of a stream at a time and one share of it per node, so that
	// pair's injections never overlap. nil allocates per call.
	Scratch *InjectScratch
}

// InjectScratch is InjectNode's reusable working memory: the share's stream
// index spans and timing pairs, which AddBatch and Append sort in place and
// copy into the batch.
type InjectScratch struct {
	spans []store.KeySpan
	pairs []tstore.Pair
}

// InjectObs holds pre-resolved injection metrics so the per-node inject hot
// path pays no registry lookups — only an atomic add per record. Safe to
// share across nodes and streams.
type InjectObs struct {
	Inject   *obs.Histogram // stage_inject_latency_ns
	Index    *obs.Histogram // stage_index_latency_ns
	Timeless *obs.Counter
	Timing   *obs.Counter
	Spans    *obs.Counter
}

// NewInjectObs resolves the injection metrics against r (nil r → metrics that
// record nothing).
func NewInjectObs(r *obs.Registry) *InjectObs {
	return &InjectObs{
		Inject:   r.Stage("inject"),
		Index:    r.Stage("index"),
		Timeless: r.Counter("stream_timeless_tuples_total"),
		Timing:   r.Counter("stream_timing_tuples_total"),
		Spans:    r.Counter("stream_index_spans_total"),
	}
}

// InjectStats reports one injection's cost split for Table 6.
type InjectStats struct {
	TimelessTuples int
	TimingTuples   int
	Spans          int
	InjectTime     time.Duration // persistent/transient store appends
	IndexTime      time.Duration // stream-index maintenance
}

// Add accumulates another node's stats.
func (s *InjectStats) Add(o InjectStats) {
	s.TimelessTuples += o.TimelessTuples
	s.TimingTuples += o.TimingTuples
	s.Spans += o.Spans
	s.InjectTime += o.InjectTime
	s.IndexTime += o.IndexTime
}

// InjectNode applies one node's share of a batch under snapshot sn. Timeless
// tuples go to the persistent store (key/value appends + index vertices) and
// their spans to the stream index; timing tuples go to the transient store.
// The caller must run it on (or on behalf of) node n — the writes only touch
// n's shard by construction of Dispatch.
func InjectNode(n fabric.NodeID, w NodeWork, batch tstore.BatchID, sn uint32, tgt InjectTarget) InjectStats {
	var st InjectStats
	shard := tgt.Store.Shard(n)
	scratch := tgt.Scratch
	if scratch == nil {
		scratch = new(InjectScratch)
	}
	spans, pairs := scratch.spans[:0], scratch.pairs[:0]

	start := time.Now()
	side := func(tuples []Tuple, d store.Dir) {
		for _, t := range tuples {
			v, o := t.S, t.O
			if d == store.In {
				v, o = t.O, t.S
			}
			key := store.EdgeKey(v, t.P, d)
			if t.Timing {
				pairs = append(pairs, tstore.Pair{Key: key.Ord(), Val: o})
				if d == store.Out {
					st.TimingTuples++
				}
				continue
			}
			sp, wasEmpty := shard.AppendOne(key, o, sn)
			spans = append(spans, store.KeySpan{Key: key, Span: sp})
			if wasEmpty {
				shard.AppendOne(store.IndexKey(t.P, d), v, sn)
				shard.AppendOne(store.PredIndexKey(v, d), t.P, sn)
				if d == store.Out {
					tgt.Store.BumpSubjects(t.P)
				} else {
					tgt.Store.BumpObjects(t.P)
				}
			}
			if d == store.Out {
				tgt.Store.BumpEdges(t.P)
				st.TimelessTuples++
			}
		}
	}
	side(w.SubjectSide, store.Out)
	side(w.ObjectSide, store.In)
	tgt.Transient.Append(batch, pairs)
	st.InjectTime = time.Since(start)

	// Even an all-timing batch must appear in the index timeline so window
	// lookups and GC see a consistent batch range.
	idxStart := time.Now()
	tgt.Index.AddBatch(batch, spans)
	if len(spans) > 0 {
		st.Spans = len(spans)
		// Replicating the index: ship the new entries to each replica with
		// one-way messages — the injector does not wait for replicas.
		fab := tgt.Store.Fabric()
		for _, r := range tgt.Index.Replicas() {
			fab.SendAsync(n, r, 32*len(spans))
		}
	}
	st.IndexTime = time.Since(idxStart)
	scratch.spans, scratch.pairs = spans[:0], pairs[:0]

	if o := tgt.Obs; o != nil {
		o.Inject.Observe(st.InjectTime)
		o.Index.Observe(st.IndexTime)
		o.Timeless.Add(int64(st.TimelessTuples))
		o.Timing.Add(int64(st.TimingTuples))
		o.Spans.Add(int64(st.Spans))
	}
	return st
}
