package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/trace"
)

// testHandler records sends and serves calls with a pluggable function.
type testHandler struct {
	mu    sync.Mutex
	sends [][]byte
	call  func(from fabric.NodeID, req []byte) ([]byte, error)
}

func (h *testHandler) HandleSend(from fabric.NodeID, payload []byte) {
	h.mu.Lock()
	h.sends = append(h.sends, append([]byte(nil), payload...))
	h.mu.Unlock()
}

func (h *testHandler) HandleCall(from fabric.NodeID, req []byte) ([]byte, error) {
	if h.call != nil {
		return h.call(from, req)
	}
	return append([]byte("echo:"), req...), nil
}

func (h *testHandler) sendCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sends)
}

func newTestTCP(t *testing.T, self fabric.NodeID, r *obs.Registry, faults *Faults) *TCP {
	t.Helper()
	tr, err := ListenTCP("127.0.0.1:0", TCPConfig{
		Self:             self,
		DialTimeout:      time.Second,
		WriteTimeout:     time.Second,
		CallTimeout:      2 * time.Second,
		HeartbeatTimeout: 500 * time.Millisecond,
		ReconnectBase:    5 * time.Millisecond,
		ReconnectCap:     50 * time.Millisecond,
		Faults:           faults,
	}, r)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTCPSendCallHeartbeat(t *testing.T) {
	a := newTestTCP(t, 0, nil, nil)
	b := newTestTCP(t, 1, nil, nil)
	hb := &testHandler{}
	b.SetHandler(1, hb)
	a.SetPeer(1, b.Addr())

	if err := a.Heartbeat(0, 1); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if err := a.Send(0, 1, []byte("one-way"), trace.Context{}); err != nil {
		t.Fatalf("send: %v", err)
	}
	waitFor(t, "send delivery", func() bool { return hb.sendCount() == 1 })

	resp, err := a.Call(0, 1, []byte("ping"))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(resp) != "echo:ping" {
		t.Fatalf("call response = %q", resp)
	}

	// Application errors come back as remote errors, not transport failure.
	hb.call = func(fabric.NodeID, []byte) ([]byte, error) { return nil, fmt.Errorf("no such query") }
	if _, err := a.Call(0, 1, []byte("x")); !RemoteError(err) {
		t.Fatalf("expected remote error, got %v", err)
	}
	// And they do not trip the breaker.
	if st := a.Breaker(1).State(); st != flow.Closed {
		t.Fatalf("breaker state after remote error = %v", st)
	}

	// Self paths never touch a socket.
	ha := &testHandler{}
	a.SetHandler(0, ha)
	if err := a.Send(1, 0, []byte("local"), trace.Context{}); err != nil {
		t.Fatalf("self send: %v", err)
	}
	if ha.sendCount() != 1 {
		t.Fatal("self send not delivered synchronously")
	}
}

// Concurrent callers share one connection to a peer. Their frames must reach
// the socket in sequence-number order, or the receiver's replay guard drops
// the late one and its caller sits out CallTimeout.
func TestTCPConcurrentCallsKeepSequenceOrder(t *testing.T) {
	r := obs.NewRegistry("test")
	a := newTestTCP(t, 0, nil, nil)
	b := newTestTCP(t, 1, r, nil)
	b.SetHandler(1, &testHandler{})
	a.SetPeer(1, b.Addr())

	const callers, calls = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				req := []byte(fmt.Sprintf("%d-%d", g, i))
				resp, err := a.Call(0, 1, req)
				if err != nil || string(resp) != "echo:"+string(req) {
					t.Errorf("call %s = %q, %v", req, resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := r.Counter("wire_frames_quarantined_total").Value(); n != 0 {
		t.Fatalf("wire_frames_quarantined_total = %d, want 0: the receiver dropped in-order traffic as replays", n)
	}
}

// rawPeer is a hand-rolled wire client for writing precisely mangled bytes.
type rawPeer struct {
	c   net.Conn
	seq uint64
}

func dialRaw(t *testing.T, addr string, self fabric.NodeID) *rawPeer {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	p := &rawPeer{c: c, seq: 1}
	if _, err := c.Write(Encode(&Frame{Type: TypeHello, From: self, To: 0, Seq: p.seq})); err != nil {
		t.Fatalf("raw hello: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	ack, err := ReadFrame(c)
	if err != nil || ack.Type != TypeHelloAck {
		t.Fatalf("raw handshake: %v (frame %v)", err, ack)
	}
	return p
}

func (p *rawPeer) frame(payload []byte) []byte {
	p.seq++
	return Encode(&Frame{Type: TypeSend, From: 1, To: 0, Seq: p.seq, Payload: payload})
}

// Satellite contract: a bit-flipped frame is quarantined — the quarantine
// counters (including ft_quarantined_records_total) bump — and the same
// connection keeps delivering subsequent frames.
func TestTCPWireBitFlipQuarantinesWithoutWedging(t *testing.T) {
	r := obs.NewRegistry("test")
	a := newTestTCP(t, 0, r, nil)
	h := &testHandler{}
	a.SetHandler(0, h)
	p := dialRaw(t, a.Addr(), 1)

	bad := p.frame([]byte("damaged on the wire"))
	bad[headerSize+3] ^= 0x10 // flip one payload bit
	if _, err := p.c.Write(bad); err != nil {
		t.Fatalf("write bad: %v", err)
	}
	if _, err := p.c.Write(p.frame([]byte("intact"))); err != nil {
		t.Fatalf("write good: %v", err)
	}

	waitFor(t, "good frame delivered after quarantine", func() bool { return h.sendCount() == 1 })
	if got := string(h.sends[0]); got != "intact" {
		t.Fatalf("delivered payload = %q", got)
	}
	if n := r.Counter("wire_frames_quarantined_total").Value(); n != 1 {
		t.Fatalf("wire_frames_quarantined_total = %d, want 1", n)
	}
	if n := r.Counter("ft_quarantined_records_total").Value(); n != 1 {
		t.Fatalf("ft_quarantined_records_total = %d, want 1", n)
	}
}

// Satellite contract: a duplicated frame is delivered once and the replay is
// quarantined; the connection keeps working.
func TestTCPWireDuplicateQuarantinesWithoutWedging(t *testing.T) {
	r := obs.NewRegistry("test")
	a := newTestTCP(t, 0, r, nil)
	h := &testHandler{}
	a.SetHandler(0, h)
	p := dialRaw(t, a.Addr(), 1)

	f := p.frame([]byte("exactly once"))
	if _, err := p.c.Write(append(append([]byte(nil), f...), f...)); err != nil {
		t.Fatalf("write dup: %v", err)
	}
	if _, err := p.c.Write(p.frame([]byte("later"))); err != nil {
		t.Fatalf("write later: %v", err)
	}

	waitFor(t, "later frame delivered", func() bool { return h.sendCount() == 2 })
	if string(h.sends[0]) != "exactly once" || string(h.sends[1]) != "later" {
		t.Fatalf("delivered payloads = %q, %q", h.sends[0], h.sends[1])
	}
	if n := r.Counter("ft_quarantined_records_total").Value(); n != 1 {
		t.Fatalf("ft_quarantined_records_total = %d, want 1", n)
	}
}

// Satellite contract: a truncated frame kills only its own connection — the
// transport keeps serving fresh connections.
func TestTCPWireTruncationResetsConnOnly(t *testing.T) {
	r := obs.NewRegistry("test")
	a := newTestTCP(t, 0, r, nil)
	h := &testHandler{}
	a.SetHandler(0, h)

	p := dialRaw(t, a.Addr(), 1)
	full := p.frame([]byte("this frame will be cut short"))
	if _, err := p.c.Write(full[:len(full)-5]); err != nil {
		t.Fatalf("write truncated: %v", err)
	}
	p.c.Close() // crash mid-write

	waitFor(t, "connection reset recorded", func() bool {
		return r.Counter("wire_conn_resets_total").Value() >= 1
	})
	if h.sendCount() != 0 {
		t.Fatal("truncated frame must not be delivered")
	}

	// The transport is not wedged: a new connection delivers normally.
	p2 := dialRaw(t, a.Addr(), 1)
	if _, err := p2.c.Write(p2.frame([]byte("after reset"))); err != nil {
		t.Fatalf("write after reset: %v", err)
	}
	waitFor(t, "delivery on fresh conn", func() bool { return h.sendCount() == 1 })
}

// Injector-driven duplication end to end: every duplicated Send is delivered
// exactly once; replays are quarantined; nothing wedges.
func TestTCPInjectedDuplicationExactlyOnce(t *testing.T) {
	r := obs.NewRegistry("test")
	faults := NewFaults(42, FaultsConfig{DupProb: 1.0})
	a := newTestTCP(t, 0, nil, faults)
	b := newTestTCP(t, 1, r, nil)
	h := &testHandler{}
	b.SetHandler(1, h)
	a.SetPeer(1, b.Addr())

	const sends = 20
	for i := 0; i < sends; i++ {
		if err := a.Send(0, 1, []byte(fmt.Sprintf("msg-%d", i)), trace.Context{}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, "all sends delivered once", func() bool { return h.sendCount() == sends })
	time.Sleep(20 * time.Millisecond) // let straggler dups arrive
	if n := h.sendCount(); n != sends {
		t.Fatalf("delivered %d, want exactly %d", n, sends)
	}
	// Hello is not replay-checked, so dup quarantines come from Send frames.
	if n := r.Counter("ft_quarantined_records_total").Value(); n < sends-1 {
		t.Fatalf("quarantined %d dups, want >= %d", n, sends-1)
	}
}

// Injected drops are transient and flow.Sender recovers them by retrying —
// the same contract the simulated fabric gives the stream substrate.
func TestTCPInjectedDropIsRetryable(t *testing.T) {
	faults := NewFaults(7, FaultsConfig{DropProb: 0.5})
	a := newTestTCP(t, 0, nil, faults)
	b := newTestTCP(t, 1, nil, nil)
	h := &testHandler{}
	b.SetHandler(1, h)
	a.SetPeer(1, b.Addr())

	sender := flow.NewSenderOver(func(from, to fabric.NodeID, n int) error {
		return a.Send(from, to, bytes.Repeat([]byte("x"), n), trace.Context{})
	}, flow.SenderConfig{Retries: 8, Seed: 1}, nil)

	const sends = 30
	for i := 0; i < sends; i++ {
		if err := sender.Send(0, 1, 16); err != nil {
			t.Fatalf("send %d not recovered: %v", i, err)
		}
	}
	waitFor(t, "all retried sends delivered", func() bool { return h.sendCount() == sends })
	if st := sender.Stats(); st.Recovered == 0 {
		t.Fatalf("expected retry recoveries under 50%% drop, stats %+v", st)
	}
}

// Persistent failures surface typed: ErrPeerDown (never a raw *net.OpError),
// the breaker trips to fast-fail, and a restarted peer is rediscovered.
func TestTCPPeerDownTypedErrorsAndRecovery(t *testing.T) {
	a := newTestTCP(t, 0, nil, nil)
	b := newTestTCP(t, 1, nil, nil)
	b.SetHandler(1, &testHandler{})
	a.SetPeer(1, b.Addr())
	addr := b.Addr()
	if _, err := a.Call(0, 1, []byte("warm")); err != nil {
		t.Fatalf("warmup call: %v", err)
	}

	b.Close()
	var sawPeerDown, sawFastFail bool
	for i := 0; i < 50; i++ {
		err := a.Send(0, 1, []byte("into the void"), trace.Context{})
		if err == nil {
			// A one-way write can land in the kernel buffer before the RST
			// from the closed peer arrives; the failure is detected on a
			// subsequent write.
			time.Sleep(2 * time.Millisecond)
			continue
		}
		var op *net.OpError
		if errors.As(err, &op) {
			t.Fatalf("raw *net.OpError leaked: %v", err)
		}
		if errors.Is(err, ErrPeerDown) {
			sawPeerDown = true
			var pd *PeerDownError
			if !errors.As(err, &pd) || pd.To != 1 {
				t.Fatalf("PeerDownError details wrong: %v", err)
			}
		}
		if errors.Is(err, flow.ErrBreakerOpen) {
			sawFastFail = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawPeerDown || !sawFastFail {
		t.Fatalf("expected both typed failures: peerDown=%v fastFail=%v", sawPeerDown, sawFastFail)
	}

	// Peer restarts on the same address: heartbeats (breaker-bypassing)
	// rediscover it and normal traffic resumes.
	b2, err := ListenTCP(addr, TCPConfig{Self: 1, ReconnectBase: 5 * time.Millisecond, ReconnectCap: 50 * time.Millisecond}, nil)
	if err != nil {
		t.Fatalf("restart listener: %v", err)
	}
	defer b2.Close()
	b2.SetHandler(1, &testHandler{})
	waitFor(t, "heartbeat rediscovers restarted peer", func() bool {
		return a.Heartbeat(0, 1) == nil
	})
	if err := a.Send(0, 1, []byte("back"), trace.Context{}); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
}

func TestTCPClosedReturnsClusterClosed(t *testing.T) {
	a := newTestTCP(t, 0, nil, nil)
	a.Close()
	if err := a.Send(0, 1, nil, trace.Context{}); !errors.Is(err, fabric.ErrClusterClosed) {
		t.Fatalf("Send after close: %v", err)
	}
	if _, err := a.Call(0, 1, nil); !errors.Is(err, fabric.ErrClusterClosed) {
		t.Fatalf("Call after close: %v", err)
	}
	if err := a.Heartbeat(0, 1); !errors.Is(err, fabric.ErrClusterClosed) {
		t.Fatalf("Heartbeat after close: %v", err)
	}
}

func TestTCPHandshakeCarriesEpoch(t *testing.T) {
	a := newTestTCP(t, 0, nil, nil)
	b := newTestTCP(t, 1, nil, nil)
	a.SetPeer(1, b.Addr())
	b.SetPeer(0, a.Addr())
	a.SetHandler(0, &testHandler{})
	b.SetHandler(1, &testHandler{})

	a.SetEpoch(3)
	b.SetEpoch(5)
	type obsd struct {
		from  fabric.NodeID
		epoch uint64
	}
	var mu sync.Mutex
	seenByA := map[fabric.NodeID]uint64{}
	seenByB := map[fabric.NodeID]uint64{}
	a.SetEpochObserver(func(from fabric.NodeID, epoch uint64) {
		mu.Lock()
		seenByA[from] = epoch
		mu.Unlock()
	})
	b.SetEpochObserver(func(from fabric.NodeID, epoch uint64) {
		mu.Lock()
		seenByB[from] = epoch
		mu.Unlock()
	})
	_ = obsd{}

	// One call dials a->b: b observes a's epoch from the Hello, a observes
	// b's from the HelloAck.
	if _, err := a.Call(0, 1, []byte("hi")); err != nil {
		t.Fatalf("call: %v", err)
	}
	waitFor(t, "epoch observations", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seenByB[0] == 3 && seenByA[1] == 5
	})

	// An epoch bump is visible on the next fresh handshake (new connection).
	b.SetEpoch(9)
	b.SetPeer(0, a.Addr()) // no-op addr change keeps conn; force re-dial b->a
	if _, err := b.Call(1, 0, []byte("yo")); err != nil {
		t.Fatalf("reverse call: %v", err)
	}
	waitFor(t, "bumped epoch observed", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seenByA[1] == 9
	})
}

// The peer table holds only the ranks SetPeer named. Anything sent toward
// another rank fails with a typed PeerDownError instead of indexing past the
// table, and naming a high rank grows the table to reach it.
func TestTCPUnnamedRankIsPeerDown(t *testing.T) {
	a := newTestTCP(t, 0, nil, nil)
	b := newTestTCP(t, 7, nil, nil)
	b.SetHandler(7, &testHandler{})
	for _, to := range []fabric.NodeID{1, 7, MaxRank} {
		var pd *PeerDownError
		if err := a.Send(0, to, []byte("x"), trace.Context{}); !errors.As(err, &pd) || pd.To != to {
			t.Fatalf("Send to unnamed rank %d: %v", to, err)
		}
		if _, err := a.Call(0, to, nil); !errors.Is(err, ErrPeerDown) {
			t.Fatalf("Call to unnamed rank %d: %v", to, err)
		}
		if err := a.Heartbeat(0, to); !errors.Is(err, ErrPeerDown) {
			t.Fatalf("Heartbeat to unnamed rank %d: %v", to, err)
		}
		if a.Breaker(to) != nil || a.PeerAddr(to) != "" {
			t.Fatalf("rank %d has state before SetPeer", to)
		}
	}
	a.SetPeer(7, b.Addr())
	if resp, err := a.Call(0, 7, []byte("hi")); err != nil || string(resp) != "echo:hi" {
		t.Fatalf("Call after SetPeer(7): %q, %v", resp, err)
	}
	if err := a.Send(0, 3, nil, trace.Context{}); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("rank 3, below a named rank, is still unnamed: %v", err)
	}
}
