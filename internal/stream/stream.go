// Package stream implements Wukong+S's stream substrate (§3, Fig. 5):
//
//   - Source (the paper's Adaptor): receives raw RDF tuples, converts strings
//     to IDs, classifies each tuple as timing or timeless, enforces the
//     C-SPARQL monotonic-timestamp model, and groups tuples into mini-batches
//     by timestamp. It keeps no sealed batch: the paper's upstream backup
//     (§5) is the client's buffer, and an engine's durable copy is its
//     fault-tolerance log (internal/core/ft.go).
//   - Dispatch (the paper's Dispatcher): partitions a sealed batch across
//     nodes — each tuple's subject side goes to the subject's home node and
//     its object side to the object's home node, the same sharding the
//     persistent and transient stores use (§4.1).
//   - InjectNode (the paper's Injector): applies one node's share of a batch
//     to the hybrid store — timeless data into the continuous persistent
//     store plus the stream index, timing data into the transient store —
//     and reports the injection/indexing cost split (Table 6).
package stream

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/flow"
	"repro/internal/rdf"
	"repro/internal/strserver"
	"repro/internal/tstore"
)

// Tuple is an encoded stream tuple with its timing/timeless classification.
type Tuple struct {
	strserver.EncodedTuple
	Timing bool
}

// Batch is one sealed mini-batch of a stream.
type Batch struct {
	ID     tstore.BatchID
	Tuples []Tuple
}

// Config configures a stream source.
type Config struct {
	// Name is the stream IRI used in FROM STREAM clauses.
	Name string
	// BatchInterval is the mini-batch width (the paper uses 100 ms
	// batches, "similar to mini batches of Spark Streaming").
	BatchInterval time.Duration
	// TimingPredicates lists predicate IRIs whose tuples are timing data
	// (kept only in the transient store, e.g. gps_add). All others are
	// timeless and absorbed into the persistent store.
	TimingPredicates []string
	// KeepPredicates, when non-empty, makes the adaptor discard tuples with
	// any other predicate ("the Adaptor will also discard unrelated
	// tuples").
	KeepPredicates []string
	// MaxDelay enables bounded out-of-order tolerance — an extension beyond
	// the paper, which adopts C-SPARQL's monotonic time model (§4.3
	// "Consistency guarantee"). Tuples may arrive up to MaxDelay late; the
	// adaptor holds a reorder buffer and only releases tuples once the
	// watermark (newest timestamp seen - MaxDelay) passes them, so
	// downstream the stream is monotonic again. Batches can only seal up to
	// the watermark, adding MaxDelay of latency — the classic trade-off.
	MaxDelay time.Duration
	// MaxPending bounds the adaptor's admission buffer (pending + reorder
	// tuples). 0 = unbounded: the pre-overload-protection behavior, where a
	// producer outrunning the injector grows memory without limit.
	MaxPending int
	// Shed selects what happens to an emitted tuple when the admission
	// buffer is full (only meaningful with MaxPending > 0).
	Shed flow.Policy
	// ShedWait is the Block policy's wait budget before a full buffer sheds
	// anyway (default: BatchInterval).
	ShedWait time.Duration
}

// Source is the per-stream adaptor. Emit is safe for concurrent use with
// SealUpTo, though a single producer per stream is the expected pattern
// (C-SPARQL's time model makes timestamps per stream monotonic).
type Source struct {
	name     string
	interval time.Duration
	ss       *strserver.Server

	timing map[rdf.ID]bool
	keep   map[rdf.ID]bool // nil = keep all

	maxDelay rdf.Timestamp // 0 = strict monotonic input

	mu        sync.Mutex
	pending   []Tuple // released tuples, time-ordered
	reorder   []Tuple // out-of-order holding area (sorted on release)
	maxSeen   rdf.Timestamp
	lastTS    rdf.Timestamp
	sealedTo  tstore.BatchID
	discarded int64
	reordered int64 // tuples that arrived out of order and were re-sorted

	pids []rdf.ID // admitBody's predicate IDs, reused under mu
	ids  []rdf.ID // admitBody's entity IDs, reused under mu

	maxPending int
	shed       flow.Policy
	shedWait   time.Duration
	qstats     *flow.QueueStats
	space      chan struct{} // signaled when SealUpTo drains the buffer
}

// NewSource creates a stream source. The string server is shared with the
// engine so stream data and queries agree on IDs.
func NewSource(cfg Config, ss *strserver.Server) (*Source, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("stream: source requires a name")
	}
	if cfg.BatchInterval <= 0 {
		return nil, fmt.Errorf("stream: source %q requires a positive batch interval", cfg.Name)
	}
	s := &Source{
		name:       strings.Clone(cfg.Name), // may be a slice of a request line
		interval:   cfg.BatchInterval,
		ss:         ss,
		timing:     make(map[rdf.ID]bool),
		maxDelay:   rdf.Timestamp(cfg.MaxDelay.Milliseconds()),
		maxPending: cfg.MaxPending,
		shed:       cfg.Shed,
		shedWait:   cfg.ShedWait,
		qstats:     flow.NewQueueStats(cfg.MaxPending),
	}
	if s.shedWait <= 0 {
		s.shedWait = cfg.BatchInterval
	}
	if s.maxPending > 0 && s.shed == flow.Block {
		s.space = make(chan struct{}, 1)
	}
	// Both lists are interned at once, so predicates that do not fit refuse
	// the source without assigning any of them.
	named := append(slices.Clip(cfg.TimingPredicates), cfg.KeepPredicates...)
	pids := make([]rdf.ID, len(named))
	if err := ss.InternPredicates(pids, func(i int) string { return named[i] }); err != nil {
		return nil, err
	}
	for _, pid := range pids[:len(cfg.TimingPredicates)] {
		s.timing[pid] = true
	}
	if len(cfg.KeepPredicates) > 0 {
		s.keep = make(map[rdf.ID]bool)
		for _, pid := range pids {
			s.keep[pid] = true
		}
	}
	return s, nil
}

// Name returns the stream IRI.
func (s *Source) Name() string { return s.name }

// Interval returns the mini-batch width.
func (s *Source) Interval() time.Duration { return s.interval }

// BatchOf maps a timestamp to its batch number (1-based).
func (s *Source) BatchOf(ts rdf.Timestamp) tstore.BatchID {
	return tstore.BatchID(int64(ts)/s.interval.Milliseconds()) + 1
}

// BatchEnd returns the first timestamp after batch b.
func (s *Source) BatchEnd(b tstore.BatchID) rdf.Timestamp {
	return rdf.Timestamp(int64(b) * s.interval.Milliseconds())
}

// Emit accepts one raw tuple: encodes, classifies, and buffers it.
// Timestamps must be monotonically non-decreasing, and a tuple whose batch
// has already been sealed is rejected (it would violate prefix integrity).
func (s *Source) Emit(t rdf.Tuple) error {
	enc, err := s.ss.EncodeTuple(t)
	if err != nil {
		return err
	}
	return s.EmitEncoded(enc)
}

// EmitEncoded is Emit for pre-encoded tuples (the benchmark hot path).
func (s *Source) EmitEncoded(enc strserver.EncodedTuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxDelay > 0 {
		return s.emitReorderedLocked(enc)
	}
	if err := s.orderLocked(enc.TS, s.lastTS); err != nil {
		return err
	}
	s.lastTS = enc.TS
	if s.keep != nil && !s.keep[enc.P] {
		s.discarded++
		return nil
	}
	if err := s.reserveLocked(1); err != nil {
		return err
	}
	// The Block policy released the lock while waiting; a concurrent seal
	// may have closed this tuple's batch in the meantime.
	if b := s.BatchOf(enc.TS); b <= s.sealedTo {
		s.qstats.OnShedNewest()
		return flow.Shed(fmt.Sprintf("stream %s: batch %d sealed while blocked", s.name, b), 0)
	}
	s.pending = append(s.pending, Tuple{EncodedTuple: enc, Timing: s.timing[enc.P]})
	s.qstats.OnAdmit()
	s.qstats.Observe(len(s.pending) + len(s.reorder))
	return nil
}

// EmitBody admits a body of tuple lines, the EMIT verb's, whole or not at
// all, and returns how many tuples it held. A half-admitted body would
// duplicate on the client's at-least-once retry, and a replicated op must
// apply completely or not at all. The body is cut into interning keys
// (rdf.TupleKeys), keeping no parsed tuple, and refused with
// rdf.ParseTuples' error if a line is malformed. Then, under one lock acquisition, it checks timestamp
// order (within the body and against the last accepted tuple), the
// sealed-batch boundary, and room for the whole body; interns the body's
// predicates all or none (strserver.ErrPredicateSpace when they do not fit);
// and only then interns its subjects and objects in one call and appends the
// tuples. So a refusal leaves the adaptor and the string server exactly as
// they were, and IDs come out as interning the predicates and then each
// tuple's subject and object in turn would assign them. DropNewest sheds
// the whole body, Block waits for room for the whole body or sheds it,
// DropOldest evicts (after the append, so a refused body evicts nothing) and
// never refuses for room; a body that could never fit (more tuples than
// MaxPending under DropNewest or Block) is a plain error, not a retry hint.
// Shed counters move in tuples.
//
// A source with MaxDelay or KeepPredicates — library-only extensions no
// protocol verb can configure — admits tuple by tuple through Emit: there a
// refusal part-way leaves the earlier tuples admitted.
func (s *Source) EmitBody(body string) (int, error) {
	if s.maxDelay > 0 || s.keep != nil {
		tuples, err := rdf.ParseTuples(body)
		if err != nil {
			return 0, err
		}
		for _, t := range tuples {
			if err := s.Emit(t); err != nil {
				return 0, err
			}
		}
		return len(tuples), nil
	}
	k := bodyKeys.Get().(*rdf.TupleKeys)
	defer bodyKeys.Put(k)
	defer k.Reset() // its predicate IRIs are substrings of body
	if err := k.Scan(body); err != nil {
		return 0, err
	}
	return k.Len(), s.admitBody(k)
}

// bodyKeys holds EmitBody's scratch. A pool rather than a field of Source,
// so that concurrent EMITs to one stream neither wait for each other nor
// share it while the Block policy waits.
var bodyKeys = sync.Pool{New: func() any { return new(rdf.TupleKeys) }}

// admitBody is EmitBody's all-or-nothing path.
func (s *Source) admitBody(k *rdf.TupleKeys) error {
	n := k.Len()
	if n == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		last := s.lastTS
		for i := 0; i < n; i++ {
			if err := s.orderLocked(k.TS(i), last); err != nil {
				return err
			}
			last = k.TS(i)
		}
		if s.shed == flow.DropOldest {
			break
		}
		sealedTo := s.sealedTo
		if err := s.reserveLocked(n); err != nil {
			return err
		}
		// The Block policy released the lock while it waited: if a seal or
		// another producer moved the stream meanwhile, check again.
		if s.sealedTo == sealedTo && s.lastTS <= k.TS(0) {
			break
		}
	}
	s.pids = slices.Grow(s.pids[:0], n)[:n]
	if err := s.ss.InternPredicates(s.pids, k.Pred); err != nil {
		return err
	}
	s.ids = slices.Grow(s.ids[:0], 2*n)[:2*n]
	s.ss.InternKeys(s.ids, k.Key)
	s.pending = slices.Grow(s.pending, n)
	for i := 0; i < n; i++ {
		enc := strserver.EncodedTuple{EncodedTriple: strserver.EncodedTriple{S: s.ids[2*i], P: s.pids[i], O: s.ids[2*i+1]}, TS: k.TS(i)}
		s.pending = append(s.pending, Tuple{EncodedTuple: enc, Timing: s.timing[enc.P]})
		s.qstats.OnAdmit()
	}
	s.lastTS = k.TS(n - 1)
	if s.maxPending > 0 && s.shed == flow.DropOldest {
		s.evictToLocked(s.maxPending) // a body larger than the buffer sheds its own head
	}
	s.qstats.Observe(s.depthLocked())
	return nil
}

// EmitReplayed is Emit minus admission control, for fault-tolerance replay:
// a durably-logged tuple was admitted before the crash, and shedding it now
// would silently turn at-least-once recovery into at-most-once. Ordering and
// sealed-batch checks still apply, and the tuple still counts in the queue's
// admit/depth accounting. Logs are written in seal order, so the reorder
// buffer is bypassed too.
func (s *Source) EmitReplayed(t rdf.Tuple) error {
	enc, err := s.ss.EncodeTuple(t)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.orderLocked(enc.TS, s.lastTS); err != nil {
		return err
	}
	s.lastTS = enc.TS
	if enc.TS > s.maxSeen {
		s.maxSeen = enc.TS
	}
	if s.keep != nil && !s.keep[enc.P] {
		s.discarded++
		return nil
	}
	s.pending = append(s.pending, Tuple{EncodedTuple: enc, Timing: s.timing[enc.P]})
	s.qstats.OnAdmit()
	s.qstats.Observe(len(s.pending) + len(s.reorder))
	return nil
}

// orderLocked enforces the strict time model on one timestamp: it may not
// precede after (C-SPARQL's monotonic streams), nor fall into a batch that is
// already sealed (that would violate prefix integrity).
func (s *Source) orderLocked(ts, after rdf.Timestamp) error {
	if ts < after {
		return fmt.Errorf("stream %s: timestamp regression %d after %d", s.name, ts, after)
	}
	if b := s.BatchOf(ts); b <= s.sealedTo {
		return fmt.Errorf("stream %s: tuple at %d arrived after batch %d was sealed", s.name, ts, b)
	}
	return nil
}

// depthLocked is the admission buffer's occupancy: tuples accepted but not
// yet sealed into a batch, whether released (pending) or held back (reorder).
func (s *Source) depthLocked() int { return len(s.pending) + len(s.reorder) }

// reserveLocked makes room for n more tuples, applying the shed policy when
// the admission buffer cannot take them. Called with s.mu held; the Block
// policy temporarily releases it to wait for SealUpTo to drain the buffer. A
// nil return means all n may be appended; an error means none may, and the
// shed counters have moved by n.
func (s *Source) reserveLocked(n int) error {
	if s.maxPending <= 0 || s.depthLocked()+n <= s.maxPending {
		return nil
	}
	if s.shed == flow.DropOldest {
		s.evictToLocked(s.maxPending - n)
		return nil
	}
	if n > s.maxPending {
		return fmt.Errorf("stream %s: %d tuples can never fit the %d-tuple admission buffer; send smaller EMITs",
			s.name, n, s.maxPending)
	}
	if s.shed == flow.Block {
		deadline := time.Now().Add(s.shedWait)
		for s.depthLocked()+n > s.maxPending {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				s.qstats.OnTimeout()
				break
			}
			s.mu.Unlock()
			t := time.NewTimer(remaining)
			select {
			case <-s.space:
			case <-t.C:
			}
			t.Stop()
			s.mu.Lock()
		}
		if s.depthLocked()+n <= s.maxPending {
			return nil
		}
	}
	for i := 0; i < n; i++ {
		s.qstats.OnShedNewest()
	}
	return flow.Shed("stream "+s.name+": admission buffer full", s.interval)
}

// evictToLocked sheds the oldest buffered tuples until at most limit remain.
func (s *Source) evictToLocked(limit int) {
	for d := s.depthLocked(); d > limit && d > 0; d-- {
		if len(s.pending) > 0 {
			s.pending = s.pending[1:]
		} else {
			s.reorder = s.reorder[1:]
		}
		s.qstats.OnShedOldest()
	}
}

// QueueStats returns the adaptor's admission accounting (capacity 0 when
// the source is unbounded; depth and watermark are tracked either way).
func (s *Source) QueueStats() *flow.QueueStats { return s.qstats }

// PendingLen reports how many admitted tuples have not yet been sealed into
// a batch (released and reorder-held alike). Snapshot quiescence checks it:
// a snapshot taken while tuples sit here would lose them permanently.
func (s *Source) PendingLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depthLocked()
}

// emitReorderedLocked accepts a possibly-late tuple into the reorder buffer
// and releases everything at or below the watermark into pending, sorted.
func (s *Source) emitReorderedLocked(enc strserver.EncodedTuple) error {
	watermark := s.maxSeen - s.maxDelay
	if enc.TS < watermark {
		return fmt.Errorf("stream %s: tuple at %d is older than the watermark %d (max delay exceeded)",
			s.name, enc.TS, watermark)
	}
	if b := s.BatchOf(enc.TS); b <= s.sealedTo {
		return fmt.Errorf("stream %s: tuple at %d arrived after batch %d was sealed", s.name, enc.TS, b)
	}
	if enc.TS < s.maxSeen {
		s.reordered++
	}
	if enc.TS > s.maxSeen {
		s.maxSeen = enc.TS
	}
	if s.keep != nil && !s.keep[enc.P] {
		s.discarded++
		return nil
	}
	if err := s.reserveLocked(1); err != nil {
		return err
	}
	if b := s.BatchOf(enc.TS); b <= s.sealedTo {
		s.qstats.OnShedNewest()
		return flow.Shed(fmt.Sprintf("stream %s: batch %d sealed while blocked", s.name, b), 0)
	}
	if wm := s.maxSeen - s.maxDelay; enc.TS < wm {
		// The watermark passed this tuple while a Block wait held it.
		s.qstats.OnShedNewest()
		return flow.Shed(fmt.Sprintf("stream %s: watermark passed %d while blocked", s.name, enc.TS), 0)
	}
	s.reorder = append(s.reorder, Tuple{EncodedTuple: enc, Timing: s.timing[enc.P]})
	s.qstats.OnAdmit()
	s.releaseLocked()
	s.qstats.Observe(len(s.pending) + len(s.reorder))
	return nil
}

// releaseLocked moves reorder-buffer tuples at or below the watermark into
// pending in timestamp order.
func (s *Source) releaseLocked() {
	watermark := s.maxSeen - s.maxDelay
	sort.SliceStable(s.reorder, func(i, j int) bool { return s.reorder[i].TS < s.reorder[j].TS })
	n := 0
	for n < len(s.reorder) && s.reorder[n].TS <= watermark {
		n++
	}
	s.pending = append(s.pending, s.reorder[:n]...)
	s.reorder = append(s.reorder[:0], s.reorder[n:]...)
}

// Reordered returns how many tuples arrived out of order (MaxDelay mode).
func (s *Source) Reordered() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reordered
}

// Discarded returns the number of tuples the adaptor dropped as unrelated.
func (s *Source) Discarded() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.discarded
}

// SealUpTo seals and returns every batch whose interval ends at or before
// ts, including empty batches (the coordinator needs insertion reports for
// every batch to advance the stable VTS). The source keeps none of them.
func (s *Source) SealUpTo(ts rdf.Timestamp) []Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxDelay > 0 {
		// Late tuples may still arrive for anything above the watermark.
		if s.maxSeen < ts {
			s.maxSeen = ts // the clock advancing is itself a watermark signal
		}
		s.releaseLocked()
		if wm := s.maxSeen - s.maxDelay; wm < ts {
			ts = wm
		}
		if ts < 0 {
			return nil
		}
	}
	// Batch b is complete when ts >= BatchEnd(b).
	lastComplete := tstore.BatchID(int64(ts) / s.interval.Milliseconds())
	if lastComplete <= s.sealedTo {
		return nil
	}
	var out []Batch
	for b := s.sealedTo + 1; b <= lastComplete; b++ {
		end := s.BatchEnd(b)
		n := 0
		for n < len(s.pending) && s.pending[n].TS < end {
			n++
		}
		// The batch takes its tuples' part of the buffer as it is, capped so
		// a later append to pending can never write into it.
		out = append(out, Batch{ID: b, Tuples: s.pending[:n:n]})
		s.pending = s.pending[n:]
	}
	s.sealedTo = lastComplete
	s.qstats.Observe(len(s.pending) + len(s.reorder))
	if s.space != nil {
		select {
		case s.space <- struct{}{}:
		default:
		}
	}
	return out
}

// SealedTo returns the newest sealed batch.
func (s *Source) SealedTo() tstore.BatchID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealedTo
}
