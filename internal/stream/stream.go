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
	// MaxPending bounds the adaptor's admission buffer (tuples admitted but
	// not yet sealed). An emit that does not fit is refused whole with a
	// retry-after hint of one batch interval. 0 = unbounded: the
	// pre-overload-protection behavior, where a producer outrunning the
	// injector grows memory without limit.
	MaxPending int
}

// Source is the per-stream adaptor. Emit is safe for concurrent use with
// SealUpTo, though a single producer per stream is the expected pattern
// (C-SPARQL's time model makes timestamps per stream monotonic).
type Source struct {
	name     string
	interval time.Duration
	ss       *strserver.Server

	timing map[rdf.ID]bool

	mu       sync.Mutex
	pending  []Tuple // admitted tuples, time-ordered
	lastTS   rdf.Timestamp
	sealedTo tstore.BatchID

	pids []rdf.ID // EmitBody's predicate IDs, reused under mu
	ids  []rdf.ID // EmitBody's entity IDs, reused under mu

	maxPending int
	qstats     *flow.QueueStats
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
		maxPending: cfg.MaxPending,
		qstats:     flow.NewQueueStats(cfg.MaxPending),
	}
	// Interned at once, so predicates that do not fit refuse the source
	// without assigning any of them.
	pids := make([]rdf.ID, len(cfg.TimingPredicates))
	if err := ss.InternPredicates(pids, func(i int) string { return cfg.TimingPredicates[i] }); err != nil {
		return nil, err
	}
	for _, pid := range pids {
		s.timing[pid] = true
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

// Emit admits one raw tuple as a one-tuple EmitBody would: it passes the
// same admission check, and only then is encoded and buffered, so a refusal
// leaves the adaptor and the string server as they were.
func (s *Source) Emit(t rdf.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(1, t.TS); err != nil {
		return err
	}
	enc, err := s.ss.EncodeTuple(t)
	if err != nil {
		return err
	}
	s.appendLocked(enc)
	s.qstats.Observe(len(s.pending))
	return nil
}

// EmitEncoded is Emit for pre-encoded tuples (the benchmark hot path).
func (s *Source) EmitEncoded(enc strserver.EncodedTuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(1, enc.TS); err != nil {
		return err
	}
	s.appendLocked(enc)
	s.qstats.Observe(len(s.pending))
	return nil
}

// EmitBody admits a body of tuple lines, the EMIT verb's, whole or not at
// all, and returns how many tuples it held. A half-admitted body would
// duplicate on the client's at-least-once retry, and a replicated op must
// apply completely or not at all. The body is cut into interning keys
// (rdf.TupleKeys), keeping no parsed tuple, and refused with
// rdf.ParseTuples' error if a line is malformed, or if its timestamps
// regress. Then, under one lock acquisition, it passes the admission check
// Emit passes (admitLocked) for the whole body; interns the body's
// predicates all or none (strserver.ErrPredicateSpace when they do not
// fit); and only then interns its subjects and objects in one call and
// appends the tuples. So a refusal leaves the adaptor and the string server
// exactly as they were, and IDs come out as interning the predicates and
// then each tuple's subject and object in turn would assign them.
func (s *Source) EmitBody(body string) (int, error) {
	k := bodyKeys.Get().(*rdf.TupleKeys)
	defer bodyKeys.Put(k)
	defer k.Reset() // its predicate IRIs are substrings of body
	if err := k.Scan(body); err != nil {
		return 0, err
	}
	n := k.Len()
	if n == 0 {
		return 0, nil
	}
	for i := 1; i < n; i++ {
		if k.TS(i) < k.TS(i-1) {
			return 0, fmt.Errorf("stream %s: timestamp regression %d after %d", s.name, k.TS(i), k.TS(i-1))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(n, k.TS(0)); err != nil {
		return 0, err
	}
	s.pids = slices.Grow(s.pids[:0], n)[:n]
	if err := s.ss.InternPredicates(s.pids, k.Pred); err != nil {
		return 0, err
	}
	s.ids = slices.Grow(s.ids[:0], 2*n)[:2*n]
	s.ss.InternKeys(s.ids, k.Key)
	s.pending = slices.Grow(s.pending, n)
	for i := 0; i < n; i++ {
		s.appendLocked(strserver.EncodedTuple{EncodedTriple: strserver.EncodedTriple{S: s.ids[2*i], P: s.pids[i], O: s.ids[2*i+1]}, TS: k.TS(i)})
	}
	s.qstats.Observe(len(s.pending))
	return n, nil
}

// bodyKeys holds EmitBody's scratch. A pool rather than a field of Source,
// so that concurrent EMITs to one stream cut their bodies side by side,
// before taking the source's lock.
var bodyKeys = sync.Pool{New: func() any { return new(rdf.TupleKeys) }}

// admitLocked is the one admission check of Emit, EmitEncoded and EmitBody,
// for n tuples in timestamp order from first: it checks order against the
// stream and the sealed-batch boundary, then room for all n. A full buffer
// sheds all n, counted in tuples, with a retry-after hint of one batch
// interval: the next seal makes room. n tuples that could never fit (more
// than MaxPending) are a plain error, not a hint the client would retry
// forever. A nil return means all n may be appended.
func (s *Source) admitLocked(n int, first rdf.Timestamp) error {
	if err := s.orderLocked(first); err != nil {
		return err
	}
	if s.maxPending <= 0 || len(s.pending)+n <= s.maxPending {
		return nil
	}
	if n > s.maxPending {
		return fmt.Errorf("stream %s: %d tuples can never fit the %d-tuple admission buffer; send smaller EMITs",
			s.name, n, s.maxPending)
	}
	s.qstats.OnShedNewest(n)
	return flow.Shed("stream "+s.name+": admission buffer full", s.interval)
}

// appendLocked buffers one admitted tuple.
func (s *Source) appendLocked(enc strserver.EncodedTuple) {
	s.pending = append(s.pending, Tuple{EncodedTuple: enc, Timing: s.timing[enc.P]})
	s.lastTS = enc.TS
	s.qstats.OnAdmit()
}

// EmitReplayed is Emit minus admission control, for fault-tolerance replay:
// a durably-logged tuple was admitted before the crash, and shedding it now
// would silently turn at-least-once recovery into at-most-once. Ordering and
// sealed-batch checks still apply, and the tuple still counts in the queue's
// admit/depth accounting.
func (s *Source) EmitReplayed(t rdf.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.orderLocked(t.TS); err != nil {
		return err
	}
	enc, err := s.ss.EncodeTuple(t)
	if err != nil {
		return err
	}
	s.appendLocked(enc)
	s.qstats.Observe(len(s.pending))
	return nil
}

// orderLocked enforces the strict time model on one timestamp: it may not
// precede the last admitted tuple (C-SPARQL's monotonic streams), nor fall
// into a batch that is already sealed (that would violate prefix integrity).
func (s *Source) orderLocked(ts rdf.Timestamp) error {
	if ts < s.lastTS {
		return fmt.Errorf("stream %s: timestamp regression %d after %d", s.name, ts, s.lastTS)
	}
	if b := s.BatchOf(ts); b <= s.sealedTo {
		return fmt.Errorf("stream %s: tuple at %d arrived after batch %d was sealed", s.name, ts, b)
	}
	return nil
}

// QueueStats returns the adaptor's admission accounting (capacity 0 when
// the source is unbounded; depth and watermark are tracked either way).
func (s *Source) QueueStats() *flow.QueueStats { return s.qstats }

// PendingLen reports how many admitted tuples have not yet been sealed into
// a batch. Snapshot quiescence checks it: a snapshot taken while tuples sit
// here would lose them permanently.
func (s *Source) PendingLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// SealUpTo seals and returns every batch whose interval ends at or before
// ts, including empty batches (the coordinator needs insertion reports for
// every batch to advance the stable VTS). The source keeps none of them.
func (s *Source) SealUpTo(ts rdf.Timestamp) []Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.qstats.Observe(len(s.pending))
	return out
}

// SealedTo returns the newest sealed batch.
func (s *Source) SealedTo() tstore.BatchID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealedTo
}
