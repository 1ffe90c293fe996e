package wire

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/trace"
)

// tracedHandler additionally records the trace contexts delivered with
// frames, and can start server-side child spans against a tracer.
type tracedHandler struct {
	testHandler
	tracer *trace.Tracer
	ctxs   []trace.Context
}

func (h *tracedHandler) record(tc trace.Context) {
	h.mu.Lock()
	h.ctxs = append(h.ctxs, tc)
	h.mu.Unlock()
}

func (h *tracedHandler) HandleSendTraced(from fabric.NodeID, payload []byte, tc trace.Context) {
	h.record(tc)
	sp := h.tracer.Start(tc, "serve.send")
	h.HandleSend(from, payload)
	sp.End()
}

func (h *tracedHandler) HandleCallTraced(from fabric.NodeID, req []byte, tc trace.Context) ([]byte, error) {
	h.record(tc)
	sp := h.tracer.Start(tc, "serve.call")
	defer sp.End()
	return h.HandleCall(from, req)
}

func (h *tracedHandler) lastCtx() (trace.Context, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.ctxs) == 0 {
		return trace.Context{}, false
	}
	return h.ctxs[len(h.ctxs)-1], true
}

// TestFrameTraceRoundTrip covers the wire encoding: a valid context rides
// under FlagTrace and comes back out with the payload intact.
func TestFrameTraceRoundTrip(t *testing.T) {
	f := &Frame{
		Type:    TypeCall,
		From:    1,
		To:      0,
		Seq:     9,
		Payload: []byte("QUERY x"),
		Trace:   trace.Context{TraceID: 77, SpanID: 8, Flags: trace.FlagSampled},
	}
	buf := Encode(f)
	if buf[5]&FlagTrace == 0 {
		t.Fatal("FlagTrace not set on encoded frame")
	}
	got, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != f.Trace {
		t.Fatalf("trace %+v, want %+v", got.Trace, f.Trace)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("payload %q, want %q", got.Payload, f.Payload)
	}
	if got.Flags&FlagTrace != 0 {
		t.Fatal("FlagTrace leaked into decoded Flags after stripping")
	}

	// An untraced frame encodes byte-identically to the old protocol.
	plain := &Frame{Type: TypeCall, From: 1, To: 0, Seq: 9, Payload: []byte("QUERY x")}
	pbuf := Encode(plain)
	if pbuf[5] != 0 {
		t.Fatal("flags nonzero on plain frame")
	}
	if len(pbuf) != len(buf)-trace.ContextSize {
		t.Fatalf("trace prefix size: %d vs %d", len(buf), len(pbuf))
	}
}

func TestHelloFeatureBytes(t *testing.T) {
	if got, ep := decodeHello(nil); got != 0 || ep != 0 {
		t.Fatalf("legacy empty hello -> features %x epoch %d", got, ep)
	}
	if got, ep := decodeHello(encodeHello(FeatTrace, 7)); got != FeatTrace || ep != 7 {
		t.Fatalf("features+epoch roundtrip: %x %d", got, ep)
	}
	if got, ep := decodeHello([]byte{helloVersion, FeatTrace}); got != FeatTrace || ep != 0 {
		t.Fatalf("v1 hello must carry features but no epoch, got %x %d", got, ep)
	}
	if got, ep := decodeHello([]byte{99, FeatTrace}); got != 0 || ep != 0 {
		t.Fatalf("unknown version must negotiate nothing, got %x %d", got, ep)
	}
}

// TestTraceContextPropagatesOverTCP: a sampled context attached on one side
// arrives at the far handler, and spans recorded on both sides assemble
// into one causally-linked tree.
func TestTraceContextPropagatesOverTCP(t *testing.T) {
	a := newTestTCP(t, 0, nil, nil)
	b := newTestTCP(t, 1, nil, nil)
	clientT := trace.New(trace.Config{SampleEvery: 1, Node: 0})
	serverT := trace.New(trace.Config{SampleEvery: 1, Node: 1})
	hb := &tracedHandler{tracer: serverT}
	b.SetHandler(1, hb)
	a.SetPeer(1, b.Addr())

	root := clientT.StartRoot("client.request")
	sp := clientT.Start(root.Context(), "wire.call")
	resp, err := a.CallTraced(0, 1, []byte("ping"), sp.Context())
	sp.End()
	root.End()
	if err != nil {
		t.Fatalf("CallTraced: %v", err)
	}
	if !bytes.Equal(resp, []byte("echo:ping")) {
		t.Fatalf("resp %q", resp)
	}
	tc, ok := hb.lastCtx()
	if !ok {
		t.Fatal("handler saw no trace context")
	}
	if tc.TraceID != root.Context().TraceID || !tc.Sampled() {
		t.Fatalf("delivered context %+v, want trace %d sampled", tc, root.Context().TraceID)
	}

	// One-way send path too.
	sp2 := clientT.Start(root.Context(), "wire.send")
	if err := a.Send(0, 1, []byte("data"), sp2.Context()); err != nil {
		t.Fatalf("Send: %v", err)
	}
	sp2.End()
	waitFor(t, "send delivery", func() bool { return hb.sendCount() == 1 })

	// The two rings merge into a single 5-span tree rooted client-side.
	all := append(clientT.Spans(), serverT.Spans()...)
	trees := trace.Assemble(all)
	if len(trees) != 1 {
		t.Fatalf("%d trees from %d spans", len(trees), len(all))
	}
	tr := trees[0]
	if tr.Spans != 5 || tr.Orphans != 0 {
		t.Fatalf("tree %+v", tr)
	}
	if tr.Root.Name != "client.request" {
		t.Fatalf("root %q", tr.Root.Name)
	}
	if len(tr.Nodes) != 2 {
		t.Fatalf("nodes %v", tr.Nodes)
	}
}

// TestLegacyPeerCompatibility pins the handshake downgrade in both
// directions: a feature-speaking transport and a legacy one interoperate,
// contexts are dropped instead of mangling frames, and payloads flow.
func TestLegacyPeerCompatibility(t *testing.T) {
	for _, dir := range []string{"new-dials-old", "old-dials-new"} {
		t.Run(dir, func(t *testing.T) {
			mk := func(self fabric.NodeID, legacy bool) *TCP {
				tr, err := ListenTCP("127.0.0.1:0", TCPConfig{
					Self:        self,
					DialTimeout: time.Second, WriteTimeout: time.Second,
					CallTimeout: 2 * time.Second, LegacyHandshake: legacy,
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tr.Close() })
				return tr
			}
			var caller, callee *TCP
			calleeLegacy := dir == "new-dials-old"
			caller = mk(0, !calleeLegacy && dir == "old-dials-new")
			callee = mk(1, calleeLegacy)

			serverT := trace.New(trace.Config{SampleEvery: 1, Node: 1})
			h := &tracedHandler{tracer: serverT}
			callee.SetHandler(1, h)
			caller.SetPeer(1, callee.Addr())

			tc := trace.Context{TraceID: 42, SpanID: 42, Flags: trace.FlagSampled}
			resp, err := caller.CallTraced(0, 1, []byte("hi"), tc)
			if err != nil {
				t.Fatalf("CallTraced across versions: %v", err)
			}
			if !bytes.Equal(resp, []byte("echo:hi")) {
				t.Fatalf("resp %q", resp)
			}
			// Whichever side is legacy, no context may survive the hop.
			if got, ok := h.lastCtx(); ok && got.Valid() {
				t.Fatalf("context crossed a legacy hop: %+v", got)
			}
			if err := caller.Send(0, 1, []byte("d"), tc); err != nil {
				t.Fatalf("Send: %v", err)
			}
			waitFor(t, "legacy send delivery", func() bool { return h.sendCount() == 1 })
		})
	}
}

// TestTraceSpanAssemblyUnderFaults drives traced calls through the seeded
// fault injector (drops, duplicates, corruption) and asserts the span pool
// still assembles into coherent trees: every surviving call has its server
// span linked, and assembly never panics or mislinks across traces.
func TestTraceSpanAssemblyUnderFaults(t *testing.T) {
	faults := NewFaults(7, FaultsConfig{DropProb: 0.15, DupProb: 0.15, CorruptProb: 0.1})
	// Short call timeout: a corrupted request is quarantined by the far
	// side and never answered, so the caller must wait out the timeout.
	mk := func(self fabric.NodeID, f *Faults) *TCP {
		tr, err := ListenTCP("127.0.0.1:0", TCPConfig{
			Self:        self,
			DialTimeout: time.Second, WriteTimeout: time.Second,
			CallTimeout:   100 * time.Millisecond,
			ReconnectBase: time.Millisecond, ReconnectCap: 10 * time.Millisecond,
			Faults: f,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	a := mk(0, faults)
	b := mk(1, nil)
	clientT := trace.New(trace.Config{SampleEvery: 1, Node: 0, Capacity: 1 << 12})
	serverT := trace.New(trace.Config{SampleEvery: 1, Node: 1, Capacity: 1 << 12})
	h := &tracedHandler{tracer: serverT}
	b.SetHandler(1, h)
	a.SetPeer(1, b.Addr())

	const calls = 200
	succeeded := 0
	for i := 0; i < calls; i++ {
		root := clientT.StartRoot("client.request")
		sp := clientT.Start(root.Context(), "wire.call")
		_, err := a.CallTraced(0, 1, []byte("w"), sp.Context())
		sp.EndErr(err)
		root.EndErr(err)
		if err == nil {
			succeeded++
		}
	}
	if succeeded == 0 {
		t.Fatal("no call survived the injector; seed too hostile for the test")
	}

	all := append(clientT.Spans(), serverT.Spans()...)
	trees := trace.Assemble(all)
	if len(trees) != calls {
		t.Fatalf("%d trees, want %d (client roots always recorded)", len(trees), calls)
	}
	served := 0
	for _, tr := range trees {
		if tr.Root.Name != "client.request" {
			t.Fatalf("tree rooted at %q", tr.Root.Name)
		}
		if len(tr.Nodes) == 2 {
			served++
		}
		// A served trace must link serve.call under wire.call, not orphan it.
		if len(tr.Nodes) == 2 && tr.Orphans != 0 {
			t.Fatalf("served trace has orphans: %+v", tr)
		}
	}
	if served < succeeded {
		t.Fatalf("only %d trees span both nodes, but %d calls succeeded", served, succeeded)
	}
}
