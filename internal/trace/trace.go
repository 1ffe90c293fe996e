// Package trace is a minimal distributed-tracing kernel for the cluster's
// real wire path (DESIGN.md §13). One client request becomes a tree of
// spans: the admitting server starts a root span, every hop (forward,
// scatter shard, oplog replicate, exec stride) opens a child span, and the
// 17-byte Context rides inside wire frames so causality survives process
// boundaries.
//
// The recorder is deliberately lock-light: starting and ending an unsampled,
// fast span costs a few atomic adds and two clock reads; only *kept* spans
// take a mutex to land in the bounded ring. A nil *Tracer is tracing turned
// off: every method on it, and on the spans it hands out, is a no-op. Sampling is head-based
// (1-in-N decided at the root, the bit propagates in Context.Flags) with a
// tail escape hatch: any span slower than SlowThreshold is kept even when
// unsampled, which is what turns the ring into a slow-query log with
// exemplar traces.
package trace

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ContextSize is the encoded size of a Context: 8-byte trace id, 8-byte
// parent span id, 1 flags byte.
const ContextSize = 17

// FlagSampled marks a trace chosen by head sampling; every hop keeps its
// spans unconditionally.
const FlagSampled = 0x01

// Context is the propagated part of a trace: enough for a receiver to
// attach its own spans to the caller's tree. The zero Context means "no
// trace" and encodes/behaves as a no-op everywhere.
type Context struct {
	TraceID uint64
	SpanID  uint64 // span id of the sender-side parent
	Flags   byte
}

// Valid reports whether the context carries a live trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// Sampled reports whether head sampling chose this trace.
func (c Context) Sampled() bool { return c.Flags&FlagSampled != 0 }

// AppendContext appends the 17-byte encoding of c to dst.
func AppendContext(dst []byte, c Context) []byte {
	var b [ContextSize]byte
	binary.BigEndian.PutUint64(b[0:8], c.TraceID)
	binary.BigEndian.PutUint64(b[8:16], c.SpanID)
	b[16] = c.Flags
	return append(dst, b[:]...)
}

// ErrShortContext reports a trace-context blob shorter than ContextSize.
var ErrShortContext = errors.New("trace: short context")

// DecodeContext decodes a Context from the first ContextSize bytes of b.
func DecodeContext(b []byte) (Context, error) {
	if len(b) < ContextSize {
		return Context{}, ErrShortContext
	}
	return Context{
		TraceID: binary.BigEndian.Uint64(b[0:8]),
		SpanID:  binary.BigEndian.Uint64(b[8:16]),
		Flags:   b[16],
	}, nil
}

// Span is one completed, recorded unit of work. Node is the cluster rank
// (or -1 for a process outside any cluster) so cross-process assembly can
// report which machines a trace touched.
type Span struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent_id,omitempty"`
	Node    int    `json:"node"`
	Name    string `json:"name"`
	Start   int64  `json:"start_unix_ns"`
	Dur     int64  `json:"duration_ns"`
	Err     string `json:"err,omitempty"`
}

// Config configures a Tracer. The zero value samples nothing but still
// keeps slow spans if SlowThreshold is later meaningful; use New to apply
// defaults.
type Config struct {
	// SampleEvery keeps 1 in N root spans (1 = every request, 0 = head
	// sampling off; slow spans are still kept).
	SampleEvery int
	// SlowThreshold force-keeps any span at least this slow, sampled or
	// not. 0 disables the slow path.
	SlowThreshold time.Duration
	// Capacity bounds the completed-span ring (default 4096). Oldest
	// spans are evicted first.
	Capacity int
	// Node is this process's cluster rank, stamped into spans.
	Node int
}

// Stats is a snapshot of tracer accounting.
type Stats struct {
	Started int64 `json:"started"` // spans begun (sampled or probing)
	Kept    int64 `json:"kept"`    // spans recorded into the ring
	Evicted int64 `json:"evicted"` // kept spans later overwritten by ring wrap
}

// Tracer records spans. All methods are safe for concurrent use and all
// are nil-receiver-safe, so call sites never branch on "tracing enabled":
// a nil *Tracer is tracing turned off.
type Tracer struct {
	cfg    Config
	idBase uint64        // random per-process base so ids don't collide across ranks
	idSeq  atomic.Uint64 // monotone suffix for span/trace ids
	roots  atomic.Uint64 // head-sampling counter

	started atomic.Int64
	kept    atomic.Int64
	evicted atomic.Int64

	mu      sync.Mutex
	ring    []Span
	next    int
	wrapped bool
}

// New builds a Tracer. A nil return never happens; disabled tracing is a
// nil *Tracer at call sites.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	t := &Tracer{cfg: cfg, ring: make([]Span, cfg.Capacity)}
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		t.idBase = binary.LittleEndian.Uint64(b[:])
	} else {
		t.idBase = uint64(time.Now().UnixNano())
	}
	return t
}

// SetNode updates the rank stamped into spans (the rank of a joiner is
// only known after discovery). Not safe concurrently with span recording;
// call during bring-up.
func (t *Tracer) SetNode(n int) {
	if t != nil {
		t.cfg.Node = n
	}
}

// Stats returns tracer accounting counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{Started: t.started.Load(), Kept: t.kept.Load(), Evicted: t.evicted.Load()}
}

func (t *Tracer) newID() uint64 {
	id := t.idBase + t.idSeq.Add(1)
	if id == 0 { // reserve 0 for "no trace"/"no parent"
		id = t.idBase + t.idSeq.Add(1)
	}
	return id
}

// Active is an in-flight span. The zero Active is a no-op: End, EndErr and
// Context all work and cost nothing, so disabled tracing needs no branches
// at call sites.
type Active struct {
	t      *Tracer
	ctx    Context // this span's own identity (SpanID = own id)
	parent uint64
	name   string
	start  time.Time
}

// StartRoot begins a new trace and makes the head-sampling decision. Even
// when the trace is not sampled a probe span is returned so the slow-query
// escape hatch can still keep it at End.
func (t *Tracer) StartRoot(name string) Active {
	if t == nil {
		return Active{}
	}
	t.started.Add(1)
	var flags byte
	if n := t.cfg.SampleEvery; n > 0 && t.roots.Add(1)%uint64(n) == 0 {
		flags = FlagSampled
	}
	id := t.newID()
	return Active{
		t:     t,
		ctx:   Context{TraceID: id, SpanID: id, Flags: flags},
		name:  name,
		start: time.Now(),
	}
}

// Start begins a child span under parent. An invalid parent yields an
// unsampled probe span in a fresh trace (a request that arrived untraced
// still gets slow-query coverage on this node).
func (t *Tracer) Start(parent Context, name string) Active {
	if t == nil {
		return Active{}
	}
	t.started.Add(1)
	a := Active{t: t, name: name, start: time.Now()}
	if parent.Valid() {
		a.ctx = Context{TraceID: parent.TraceID, SpanID: t.newID(), Flags: parent.Flags}
		a.parent = parent.SpanID
	} else {
		id := t.newID()
		a.ctx = Context{TraceID: id, SpanID: id}
	}
	return a
}

// Context returns the span's own context, the value to propagate to
// children (local calls and wire frames alike).
func (a Active) Context() Context {
	return a.ctx
}

// End completes the span. It is kept iff the trace is sampled or the span
// ran at least SlowThreshold.
func (a Active) End() { a.EndErr(nil) }

// EndErr completes the span recording err (if any) on the record.
func (a Active) EndErr(err error) {
	if a.t == nil {
		return
	}
	dur := time.Since(a.start)
	slow := a.t.cfg.SlowThreshold
	if !a.ctx.Sampled() && (slow <= 0 || dur < slow) {
		return
	}
	sp := Span{
		TraceID: a.ctx.TraceID,
		SpanID:  a.ctx.SpanID,
		Parent:  a.parent,
		Node:    a.t.cfg.Node,
		Name:    a.name,
		Start:   a.start.UnixNano(),
		Dur:     dur.Nanoseconds(),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	a.t.record(sp)
}

func (t *Tracer) record(sp Span) {
	t.kept.Add(1)
	t.mu.Lock()
	if t.wrapped {
		t.evicted.Add(1)
	}
	t.ring[t.next] = sp
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	t.mu.Unlock()
}

// Spans returns the kept spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		out := make([]Span, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}
