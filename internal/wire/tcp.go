// TCP is the cluster's message plane. One instance speaks for one rank (one
// OS process); peers are reached over per-peer outbound connections with a
// Hello handshake, write deadlines and bounded reconnect backoff, while a
// listener accepts inbound connections from peers that dialed us. The peer
// table holds only the ranks SetPeer has named: it grows as members join,
// and an operation toward any other rank fails with a PeerDownError. Calls
// are matched to responses by sequence number; heartbeats are Ping/Pong
// with a short deadline.
//
// Failure semantics at this layer: an injected frame drop is transient (it
// wraps ErrDropped; the frame never left, so the caller may repeat it);
// every persistent failure (dial refused, write timeout, round-trip
// timeout, connection reset, reconnect backoff in force) is a
// *PeerDownError wrapping ErrPeerDown; a closed transport returns
// fabric.ErrClusterClosed. Callers never see a raw *net.OpError. A failed
// write or a timed-out round trip drops its connection, so the next
// operation redials instead of queueing behind a socket that may never
// answer.
package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrPeerDown is the base error for persistent wire failures against a peer.
var ErrPeerDown = errors.New("wire: peer down")

// ErrNoHandler is returned by calls served before SetHandler installed the
// local frame consumer.
var ErrNoHandler = errors.New("wire: no handler installed")

// MaxRank is the highest rank a frame can address: its from/to fields are
// 16 bits wide.
const MaxRank = 1<<16 - 1

// Handler consumes the frames delivered to this rank. Implementations must
// be safe for concurrent use: frames arrive from many connections at once.
type Handler interface {
	// HandleSend consumes a one-way frame. There is no reply path.
	HandleSend(from fabric.NodeID, payload []byte)
	// HandleCall serves a two-sided exchange and returns the response
	// payload. A returned error travels back to the caller as text.
	HandleCall(from fabric.NodeID, req []byte) ([]byte, error)
}

// TracedHandler is a Handler that also takes the sender's span context
// (DESIGN.md §13). The transport delivers through these entry points
// whenever the handler has them; the zero context means untraced.
type TracedHandler interface {
	HandleSendTraced(from fabric.NodeID, payload []byte, tc trace.Context)
	HandleCallTraced(from fabric.NodeID, req []byte, tc trace.Context) ([]byte, error)
}

func deliverSend(h Handler, from fabric.NodeID, payload []byte, tc trace.Context) {
	if th, ok := h.(TracedHandler); ok {
		th.HandleSendTraced(from, payload, tc)
		return
	}
	h.HandleSend(from, payload)
}

func deliverCall(h Handler, from fabric.NodeID, req []byte, tc trace.Context) ([]byte, error) {
	if th, ok := h.(TracedHandler); ok {
		return th.HandleCallTraced(from, req, tc)
	}
	return h.HandleCall(from, req)
}

// PeerDownError reports a persistent transport failure toward one peer.
type PeerDownError struct {
	To  fabric.NodeID
	Op  string // "dial", "send", "call", "heartbeat"
	Err error
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("wire: %s to node %d: %v: %v", e.Op, e.To, e.Err, ErrPeerDown)
}

// Unwrap lets errors.Is(err, ErrPeerDown) see through.
func (e *PeerDownError) Unwrap() error { return ErrPeerDown }

// TCPConfig parameterizes a TCP transport. Zero-valued fields take the
// listed defaults.
type TCPConfig struct {
	// Self is this process's rank, at most MaxRank.
	Self fabric.NodeID
	// Nodes is ignored: the peer table grows as SetPeer names ranks. It
	// remains so that configurations which set it still compile.
	Nodes int
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write (default 2s).
	WriteTimeout time.Duration
	// CallTimeout bounds a Call round trip (default 5s).
	CallTimeout time.Duration
	// HeartbeatTimeout bounds a Ping/Pong round trip (default 500ms).
	HeartbeatTimeout time.Duration
	// ReconnectBase/ReconnectCap bound the per-peer redial backoff: after a
	// failed dial the next attempt is refused (fast PeerDownError) until
	// base<<failures elapses, capped (defaults 50ms and 2s).
	ReconnectBase time.Duration
	ReconnectCap  time.Duration
	// Faults, when non-nil, mangles outgoing frames (seeded injection).
	Faults *Faults
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 5 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 500 * time.Millisecond
	}
	if c.ReconnectBase <= 0 {
		c.ReconnectBase = 50 * time.Millisecond
	}
	if c.ReconnectCap <= 0 {
		c.ReconnectCap = 2 * time.Second
	}
	return c
}

// call is one in-flight Call or Ping awaiting its response frame.
type call struct {
	done    chan struct{}
	payload []byte
	err     error
	conn    *wconn // connection the request goes out on
}

// wconn wraps one socket shared by a reader goroutine and concurrent
// writers.
type wconn struct {
	c net.Conn
	// wmu serializes writes (frames must not interleave) and is where
	// request-direction frames take their sequence number, so socket order
	// equals sequence order.
	wmu     sync.Mutex
	lastSeq atomic.Uint64
	closed  atomic.Bool
}

func (w *wconn) close() {
	if w.closed.CompareAndSwap(false, true) {
		w.c.Close()
	}
}

// peer is this transport's view of one remote rank's outbound path.
type peer struct {
	mu       sync.Mutex
	addr     string
	conn     *wconn
	failures int       // consecutive dial failures
	nextDial time.Time // redial refused before this instant
}

// TCP is the socket-backed message plane for one rank.
type TCP struct {
	cfg TCPConfig
	ln  net.Listener
	// peers is indexed by rank; nil entries are ranks never named. Sends
	// load it without a lock; SetPeer grows it copy-on-write under growMu.
	peers  atomic.Pointer[[]*peer]
	growMu sync.Mutex

	hmu     sync.RWMutex
	handler Handler

	pmu     sync.Mutex
	pending map[uint64]*call
	seq     atomic.Uint64

	closed atomic.Bool
	wg     sync.WaitGroup

	// accepted tracks inbound sockets so Close can kill their readers.
	amu      sync.Mutex
	accepted map[*wconn]struct{}

	cSent        *obs.Counter
	cReceived    *obs.Counter
	cQuarantined *obs.Counter
	cFTQuar      *obs.Counter
	cResets      *obs.Counter
	cDials       *obs.Counter
	cDialFails   *obs.Counter
	cAccepts     *obs.Counter
	cHeartbeats  *obs.Counter
	hHBRTT       *obs.Histogram
}

// ListenTCP binds addr (e.g. "127.0.0.1:0") and returns a transport
// speaking for cfg.Self. r may be nil (no metrics).
func ListenTCP(addr string, cfg TCPConfig, r *obs.Registry) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	t, err := NewTCP(ln, cfg, r)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return t, nil
}

// NewTCP wraps an already-bound listener (a joining daemon must listen —
// and advertise the address — before the cluster assigns it the rank that
// cfg.Self needs). r may be nil (no metrics).
func NewTCP(ln net.Listener, cfg TCPConfig, r *obs.Registry) (*TCP, error) {
	cfg = cfg.withDefaults()
	if int(cfg.Self) < 0 || int(cfg.Self) > MaxRank {
		return nil, fmt.Errorf("wire: self rank %d out of range [0,%d]", cfg.Self, MaxRank)
	}
	t := &TCP{
		cfg:      cfg,
		ln:       ln,
		pending:  make(map[uint64]*call),
		accepted: make(map[*wconn]struct{}),

		cSent:        r.Counter("wire_frames_sent_total"),
		cReceived:    r.Counter("wire_frames_received_total"),
		cQuarantined: r.Counter("wire_frames_quarantined_total"),
		cFTQuar:      r.Counter("ft_quarantined_records_total"),
		cResets:      r.Counter("wire_conn_resets_total"),
		cDials:       r.Counter("wire_dials_total"),
		cDialFails:   r.Counter("wire_dial_failures_total"),
		cAccepts:     r.Counter("wire_conns_accepted_total"),
		cHeartbeats:  r.Counter("wire_heartbeats_total"),
		hHBRTT:       r.Histogram("wire_heartbeat_rtt_ns", obs.LatencyBuckets),
	}
	t.peers.Store(new([]*peer))
	// When fault injection is armed, /metrics shows what the injector
	// actually did to the traffic.
	if f := cfg.Faults; f != nil {
		r.GaugeFunc("wire_faults_dropped_total", func() int64 { return f.Stats().Dropped })
		r.GaugeFunc("wire_faults_dupped_total", func() int64 { return f.Stats().Dupped })
		r.GaugeFunc("wire_faults_corrupted_total", func() int64 { return f.Stats().Corrupted })
		r.GaugeFunc("wire_faults_truncated_total", func() int64 { return f.Stats().Truncated })
		r.GaugeFunc("wire_faults_delayed_total", func() int64 { return f.Stats().Delayed })
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound listen address (for advertising).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Self returns the node this transport speaks for.
func (t *TCP) Self() fabric.NodeID { return t.cfg.Self }

// peer returns rank n's outbound path, or nil for a rank never named.
func (t *TCP) peer(n fabric.NodeID) *peer {
	if ps := *t.peers.Load(); int(n) < len(ps) {
		return ps[n]
	}
	return nil
}

// peerOrDown is peer with the "no known address" failure for an unnamed
// rank.
func (t *TCP) peerOrDown(n fabric.NodeID) (*peer, error) {
	if p := t.peer(n); p != nil {
		return p, nil
	}
	return nil, &PeerDownError{To: n, Op: "dial", Err: errNoAddr}
}

var errNoAddr = errors.New("no known address")

// SetPeer records rank n's dialable address, adding n to the peer table. An
// existing connection to a different address is dropped so the next
// operation redials; the redial backoff is cleared (a fresh address
// deserves a fresh chance).
func (t *TCP) SetPeer(n fabric.NodeID, addr string) {
	p := t.peer(n)
	if p == nil {
		t.growMu.Lock()
		old := *t.peers.Load()
		ps := make([]*peer, max(len(old), int(n)+1))
		copy(ps, old)
		if ps[n] == nil {
			ps[n] = &peer{}
			t.peers.Store(&ps)
		}
		p = ps[n]
		t.growMu.Unlock()
	}
	p.mu.Lock()
	if p.addr != addr {
		p.addr = addr
		p.failures = 0
		p.nextDial = time.Time{}
		if p.conn != nil {
			p.conn.close()
			p.conn = nil
		}
	}
	p.mu.Unlock()
}

// PeerAddr returns rank n's recorded address ("" if unknown).
func (t *TCP) PeerAddr(n fabric.NodeID) string {
	p := t.peer(n)
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// SetHandler installs the local frame consumer. Only this node's handler is
// meaningful — each process speaks for exactly one node — so handlers set
// for other ids are ignored.
func (t *TCP) SetHandler(n fabric.NodeID, h Handler) {
	if n != t.cfg.Self {
		return
	}
	t.hmu.Lock()
	t.handler = h
	t.hmu.Unlock()
}

func (t *TCP) getHandler() Handler {
	t.hmu.RLock()
	defer t.hmu.RUnlock()
	return t.handler
}

// Close shuts the listener and every connection and fails pending calls.
func (t *TCP) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	t.ln.Close()
	for _, p := range *t.peers.Load() {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			p.conn.close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
	t.amu.Lock()
	for w := range t.accepted {
		w.close()
	}
	t.amu.Unlock()
	t.failPending(fabric.ErrClusterClosed)
	t.wg.Wait()
	return nil
}

func (t *TCP) failPending(err error) {
	t.pmu.Lock()
	for seq, c := range t.pending {
		c.err = err
		close(c.done)
		delete(t.pending, seq)
	}
	t.pmu.Unlock()
}

// Send ships a one-way payload. A valid tc rides the frame under FlagTrace;
// the zero context sends untraced. Self-sends deliver directly to the local
// handler, with no socket.
func (t *TCP) Send(from, to fabric.NodeID, payload []byte, tc trace.Context) error {
	if t.closed.Load() {
		return fabric.ErrClusterClosed
	}
	if to == t.cfg.Self {
		h := t.getHandler()
		if h == nil {
			return fmt.Errorf("%w: %d", ErrNoHandler, to)
		}
		deliverSend(h, from, payload, tc)
		return nil
	}
	p, err := t.peerOrDown(to)
	if err != nil {
		return err
	}
	w, err := t.outbound(p, to)
	if err != nil {
		return err
	}
	return t.writeOn(p, w, to, &Frame{Type: TypeSend, From: t.cfg.Self, To: to, Payload: payload, Trace: tc}, nil)
}

// Call is CallTraced without a trace context.
func (t *TCP) Call(from, to fabric.NodeID, req []byte) ([]byte, error) {
	return t.CallTraced(from, to, req, trace.Context{})
}

// CallTraced performs a request/response exchange with the peer's handler,
// carrying tc the way Send does.
func (t *TCP) CallTraced(from, to fabric.NodeID, req []byte, tc trace.Context) ([]byte, error) {
	if t.closed.Load() {
		return nil, fabric.ErrClusterClosed
	}
	if to == t.cfg.Self {
		h := t.getHandler()
		if h == nil {
			return nil, fmt.Errorf("%w: %d", ErrNoHandler, to)
		}
		return deliverCall(h, from, req, tc)
	}
	p, err := t.peerOrDown(to)
	if err != nil {
		return nil, err
	}
	return t.roundTrip(p, to, TypeCall, req, t.cfg.CallTimeout, tc)
}

// Heartbeat probes the path from this transport to node to with a Ping/Pong
// round trip.
func (t *TCP) Heartbeat(to fabric.NodeID) error {
	if t.closed.Load() {
		return fabric.ErrClusterClosed
	}
	if to == t.cfg.Self {
		return nil
	}
	p, err := t.peerOrDown(to)
	if err != nil {
		return err
	}
	t.cHeartbeats.Inc()
	start := time.Now()
	if _, err := t.roundTrip(p, to, TypePing, nil, t.cfg.HeartbeatTimeout, trace.Context{}); err != nil {
		return err
	}
	t.hHBRTT.Observe(time.Since(start))
	return nil
}

// errRemote marks a call that failed inside the remote handler: the wire
// worked, the application said no.
var errRemote = errors.New("wire: remote handler error")

// RemoteError reports whether err is an application-level failure returned
// by the remote handler (as opposed to a transport failure).
func RemoteError(err error) bool { return errors.Is(err, errRemote) }

// roundTrip sends a request-direction frame and waits for its response.
func (t *TCP) roundTrip(p *peer, to fabric.NodeID, typ byte, req []byte, timeout time.Duration, tc trace.Context) ([]byte, error) {
	op := "call"
	if typ == TypePing {
		op = "heartbeat"
	}
	w, err := t.outbound(p, to)
	if err != nil {
		return nil, err
	}
	// The call is pinned to its connection, so the reader's death sweep
	// (failConnCalls) can fail this round trip the moment the socket dies
	// instead of letting it sit out CallTimeout. writeFrame registers it
	// under the sequence number it assigns.
	c := &call{done: make(chan struct{}), conn: w}
	f := &Frame{Type: typ, From: t.cfg.Self, To: to, Payload: req, Trace: tc}
	defer func() {
		t.pmu.Lock()
		delete(t.pending, f.Seq)
		t.pmu.Unlock()
	}()
	if err := t.writeOn(p, w, to, f, c); err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-c.done:
		return c.payload, c.err
	case <-timer.C:
		// The response may never come on this socket: ReadFrame trusts the
		// length prefix before it can check the CRC, so a damaged prefix
		// leaves the reader waiting for bytes that are not on their way, and
		// every later round trip here would time out behind it. Drop the
		// connection; the next operation redials.
		p.drop(w)
		return nil, &PeerDownError{To: to, Op: op, Err: fmt.Errorf("timeout after %v", timeout)}
	}
}

// writeOn writes one request-direction frame on an already-resolved
// connection, mapping hard write failures to PeerDownError. c, when non-nil,
// is the round trip awaiting the frame's response.
func (t *TCP) writeOn(p *peer, w *wconn, to fabric.NodeID, f *Frame, c *call) error {
	if err := t.writeFrame(w, f, "send", c); err != nil {
		if Transient(err) {
			return err
		}
		// The socket is suspect; drop it so the next operation redials.
		p.drop(w)
		return &PeerDownError{To: to, Op: "send", Err: err}
	}
	return nil
}

// errDropped reports a frame the fault injector dropped; it wraps ErrDropped.
func errDropped(op string, f *Frame) error {
	return fmt.Errorf("wire: %s %d->%d: %w", op, f.From, f.To, ErrDropped)
}

// sequenced reports whether typ is a request-direction frame that writeFrame
// numbers and readLoop's replay guard checks; the two must agree on the set.
func sequenced(typ byte) bool {
	return typ == TypePing || typ == TypeSend || typ == TypeCall
}

// writeFrame encodes and writes f on w under the connection's write mutex,
// applying the outbound fault injector. A request-direction frame takes its
// sequence number here, under that mutex, and a round trip c is registered
// under it before the first byte leaves: the receiver's replay guard drops
// any request whose number is not above the last one it saw on the
// connection, so a number taken before the lock would let a concurrent
// writer's later number reach the socket first and cost this frame its
// delivery.
func (t *TCP) writeFrame(w *wconn, f *Frame, op string, c *call) error {
	act, arg, delay := t.cfg.Faults.draw(encodedLen(f))
	if delay > 0 {
		time.Sleep(delay)
	}
	if act == ActDrop {
		return errDropped(op, f)
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.closed.Load() {
		return fmt.Errorf("connection closed")
	}
	if sequenced(f.Type) {
		f.Seq = t.seq.Add(1)
	}
	if c != nil {
		t.pmu.Lock()
		t.pending[f.Seq] = c
		t.pmu.Unlock()
	}
	buf := Encode(f)
	if act == ActCorrupt {
		buf[arg/8] ^= 1 << (arg % 8)
	}
	w.c.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	switch act {
	case ActTruncate:
		w.c.Write(buf[:arg])
		w.close()
		return fmt.Errorf("injected truncation after %d/%d bytes", arg, len(buf))
	case ActDup:
		if _, err := w.c.Write(buf); err != nil {
			w.close()
			return err
		}
		t.cSent.Inc()
	}
	if _, err := w.c.Write(buf); err != nil {
		w.close()
		return err
	}
	t.cSent.Inc()
	return nil
}

// outbound returns the live outbound connection to node to, dialing and
// handshaking if needed, under the peer's reconnect backoff.
func (t *TCP) outbound(p *peer, to fabric.NodeID) (*wconn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil && !p.conn.closed.Load() {
		return p.conn, nil
	}
	p.conn = nil
	if p.addr == "" {
		return nil, &PeerDownError{To: to, Op: "dial", Err: errNoAddr}
	}
	if now := time.Now(); now.Before(p.nextDial) {
		return nil, &PeerDownError{To: to, Op: "dial", Err: fmt.Errorf("reconnect backoff until %v", p.nextDial.Sub(now).Round(time.Millisecond))}
	}
	t.cDials.Inc()
	w, err := t.dial(to, p.addr)
	if err != nil {
		t.cDialFails.Inc()
		backoff := t.cfg.ReconnectBase << uint(p.failures)
		if backoff > t.cfg.ReconnectCap || backoff <= 0 {
			backoff = t.cfg.ReconnectCap
		}
		p.failures++
		p.nextDial = time.Now().Add(backoff)
		return nil, &PeerDownError{To: to, Op: "dial", Err: err}
	}
	p.failures = 0
	p.nextDial = time.Time{}
	p.conn = w
	return w, nil
}

// dial connects to addr, performs the Hello handshake, and starts the
// response reader.
func (t *TCP) dial(to fabric.NodeID, addr string) (*wconn, error) {
	c, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	hello := &Frame{Type: TypeHello, From: t.cfg.Self, To: to, Seq: t.seq.Add(1), Payload: helloPayload}
	c.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	if _, err := c.Write(Encode(hello)); err != nil {
		c.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	c.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout))
	if _, err := readHello(c, TypeHelloAck); err != nil {
		c.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	c.SetReadDeadline(time.Time{})
	w := &wconn{c: c}
	t.wg.Add(1)
	go t.readLoop(w, to, false)
	return w, nil
}

// drop discards the peer's outbound connection if it is still w.
func (p *peer) drop(w *wconn) {
	w.close()
	p.mu.Lock()
	if p.conn == w {
		p.conn = nil
	}
	p.mu.Unlock()
}

// acceptLoop admits inbound connections and spawns their readers.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.cAccepts.Inc()
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

// serveConn handshakes one inbound connection and reads its frames.
func (t *TCP) serveConn(c net.Conn) {
	defer t.wg.Done()
	c.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout))
	hello, err := readHello(c, TypeHello)
	if err != nil {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	w := &wconn{c: c}
	t.amu.Lock()
	if t.closed.Load() {
		t.amu.Unlock()
		c.Close()
		return
	}
	t.accepted[w] = struct{}{}
	t.amu.Unlock()
	defer func() {
		t.amu.Lock()
		delete(t.accepted, w)
		t.amu.Unlock()
	}()
	// Like the dialer's Hello, the HelloAck is written past the fault
	// injector: faults damage traffic on an established connection.
	ack := &Frame{Type: TypeHelloAck, From: t.cfg.Self, To: hello.From, Seq: hello.Seq, Payload: helloPayload}
	c.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	if _, err := c.Write(Encode(ack)); err != nil {
		w.close()
		return
	}
	t.wg.Add(1)
	t.readLoop(w, hello.From, true)
}

// readLoop consumes frames from one connection until it dies. Corrupt and
// duplicate frames are quarantined without killing the connection; framing
// damage (magic, truncation) resets it. inbound marks acceptor-side
// connections, whose request-direction frames (Ping/Send/Call) we serve;
// dialer-side connections receive only response-direction frames.
func (t *TCP) readLoop(w *wconn, from fabric.NodeID, inbound bool) {
	defer t.wg.Done()
	defer t.failConnCalls(w, from) // after w.close(): no new call can pin w
	defer w.close()
	for {
		f, err := ReadFrame(w.c)
		if err != nil {
			if Resyncable(err) {
				t.quarantine()
				continue
			}
			if !t.closed.Load() && !errors.Is(err, io.EOF) {
				t.cResets.Inc()
			}
			return
		}
		t.cReceived.Inc()
		if sequenced(f.Type) {
			// Request-direction frames carry strictly increasing sequence
			// numbers per connection; a replay (injected duplication) is
			// quarantined here, which is what makes at-most-once delivery
			// hold under ActDup.
			last := w.lastSeq.Load()
			if f.Seq <= last {
				t.quarantine()
				continue
			}
			w.lastSeq.Store(f.Seq)
		}
		switch f.Type {
		case TypePing:
			pong := &Frame{Type: TypePong, From: t.cfg.Self, To: f.From, Seq: f.Seq}
			if err := t.writeFrame(w, pong, "pong", nil); err != nil && !Transient(err) {
				return
			}
		case TypeSend:
			if h := t.getHandler(); h != nil {
				deliverSend(h, f.From, f.Payload, f.Trace)
			}
		case TypeCall:
			// Serve calls off the read loop so a slow handler cannot delay
			// pings (false suspicion) or subsequent sends on this socket.
			go t.serveCall(w, f)
		case TypePong, TypeResp, TypeRespErr:
			t.resolve(f)
		case TypeHello, TypeHelloAck:
			// Unexpected mid-stream handshake frames: ignore.
		}
	}
}

// serveCall runs the local handler for one inbound call and writes the
// response on the same connection.
func (t *TCP) serveCall(w *wconn, f *Frame) {
	resp := &Frame{From: t.cfg.Self, To: f.From, Seq: f.Seq}
	h := t.getHandler()
	if h == nil {
		resp.Type = TypeRespErr
		resp.Payload = []byte(fmt.Sprintf("%v: %d", ErrNoHandler, t.cfg.Self))
	} else if out, err := deliverCall(h, f.From, f.Payload, f.Trace); err != nil {
		resp.Type = TypeRespErr
		resp.Payload = []byte(err.Error())
	} else {
		resp.Type = TypeResp
		resp.Payload = out
	}
	if err := t.writeFrame(w, resp, "resp", nil); err != nil && !Transient(err) {
		w.close()
	}
}

// resolve completes the pending round trip matching a response frame. A
// response with no waiter (duplicate, or the caller timed out) is
// quarantined.
func (t *TCP) resolve(f *Frame) {
	t.pmu.Lock()
	c, ok := t.pending[f.Seq]
	if ok {
		delete(t.pending, f.Seq)
	}
	t.pmu.Unlock()
	if !ok {
		t.quarantine()
		return
	}
	if f.Type == TypeRespErr {
		c.err = fmt.Errorf("%w: %s", errRemote, f.Payload)
	} else {
		c.payload = f.Payload
	}
	close(c.done)
}

// failConnCalls completes every pending round trip whose request went out on
// w: the connection is gone, so no response can ever arrive. Without this
// sweep a call whose peer died mid-flight would sit out its entire
// CallTimeout even though the kernel reported the loss within milliseconds —
// a window that would otherwise dominate authority-failover time. Runs after
// w.close(), so a racing roundTrip that grabbed w but has not yet registered
// sees the closed flag, or its write fails on the closed socket.
func (t *TCP) failConnCalls(w *wconn, from fabric.NodeID) {
	var failed []*call
	t.pmu.Lock()
	for seq, c := range t.pending {
		if c.conn == w {
			delete(t.pending, seq)
			failed = append(failed, c)
		}
	}
	t.pmu.Unlock()
	for _, c := range failed {
		c.err = &PeerDownError{To: from, Op: "call", Err: fmt.Errorf("connection lost mid-call")}
		close(c.done)
	}
}

// quarantine counts one untrustworthy frame dropped by the receive path. It
// bumps both the wire counter and the cluster-wide quarantine counter that
// core/ft.go uses for damaged durable records: "data failed its checksum
// and was set aside" is one budget, wherever the bytes came from.
func (t *TCP) quarantine() {
	t.cQuarantined.Inc()
	t.cFTQuar.Inc()
}
