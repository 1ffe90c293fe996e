package stream

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/rdf"
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

// InjectScratch is InjectNode's reusable working memory.
type InjectScratch struct {
	spans []store.KeySpan
}

// InjectObs holds pre-resolved injection metrics so the per-node inject hot
// path pays no registry lookups — only an atomic add per record (and a single
// atomic load when the registry is disabled). Safe to share across nodes and
// streams.
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
	var spans []store.KeySpan
	if tgt.Scratch != nil {
		// The index copies what it keeps (AddBatch), so the spans can be
		// overwritten by the next batch.
		spans = tgt.Scratch.spans[:0]
	} else {
		spans = make([]store.KeySpan, 0, len(w.SubjectSide)+len(w.ObjectSide))
	}

	start := time.Now()
	for _, t := range w.SubjectSide {
		key := store.EdgeKey(t.S, t.P, store.Out)
		if t.Timing {
			tgt.Transient.Append(batch, key, []rdf.ID{t.O})
			st.TimingTuples++
			continue
		}
		sp, wasEmpty := shard.AppendOne(key, t.O, sn)
		spans = append(spans, store.KeySpan{Key: key, Span: sp})
		if wasEmpty {
			idx := store.IndexKey(t.P, store.Out)
			isp, _ := shard.AppendOne(idx, t.S, sn)
			spans = append(spans, store.KeySpan{Key: idx, Span: isp})
			shard.AppendOne(store.PredIndexKey(t.S, store.Out), t.P, sn)
			tgt.Store.BumpSubjects(t.P)
		}
		tgt.Store.BumpEdges(t.P)
		st.TimelessTuples++
	}
	for _, t := range w.ObjectSide {
		key := store.EdgeKey(t.O, t.P, store.In)
		if t.Timing {
			tgt.Transient.Append(batch, key, []rdf.ID{t.S})
			continue
		}
		sp, wasEmpty := shard.AppendOne(key, t.S, sn)
		spans = append(spans, store.KeySpan{Key: key, Span: sp})
		if wasEmpty {
			idx := store.IndexKey(t.P, store.In)
			isp, _ := shard.AppendOne(idx, t.O, sn)
			spans = append(spans, store.KeySpan{Key: idx, Span: isp})
			shard.AppendOne(store.PredIndexKey(t.O, store.In), t.P, sn)
			tgt.Store.BumpObjects(t.P)
		}
	}
	st.InjectTime = time.Since(start)

	idxStart := time.Now()
	if len(spans) > 0 {
		tgt.Index.AddBatch(batch, spans)
		st.Spans = len(spans)
		// Replicating the index: ship the new entries to each replica with
		// one-way messages — the injector does not wait for replicas.
		fab := tgt.Store.Fabric()
		for _, r := range tgt.Index.Replicas() {
			fab.SendAsync(n, r, 32*len(spans))
		}
	} else {
		// Even an all-timing batch must appear in the index timeline so
		// window lookups and GC see a consistent batch range.
		tgt.Index.AddBatch(batch, nil)
	}
	st.IndexTime = time.Since(idxStart)
	if tgt.Scratch != nil {
		tgt.Scratch.spans = spans[:0]
	}

	if o := tgt.Obs; o != nil {
		o.Inject.Observe(st.InjectTime)
		o.Index.Observe(st.IndexTime)
		o.Timeless.Add(int64(st.TimelessTuples))
		o.Timing.Add(int64(st.TimingTuples))
		o.Spans.Add(int64(st.Spans))
	}
	return st
}
