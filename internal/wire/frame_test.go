package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/fabric"
	"repro/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{Type: TypeCall, From: 3, To: 7, Seq: 12345678901234, Payload: []byte("QUERY <a> <p> ?x")}
	buf := Encode(f)
	got, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got.Type != f.Type || got.From != f.From || got.To != f.To || got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: sent %v, got %v", f, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	buf := Encode(&Frame{Type: TypePing, From: 0, To: 1, Seq: 1})
	got, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("expected empty payload, got %d bytes", len(got.Payload))
	}
}

// Every single-bit flip after the magic must be caught by the checksum, and
// the error must be resyncable (stream still aligned).
func TestFrameBitFlipDetected(t *testing.T) {
	f := &Frame{Type: TypeSend, From: 1, To: 2, Seq: 42, Payload: []byte("<s> <p> <o> . @100")}
	clean := Encode(f)
	for bit := 4 * 8; bit < len(clean)*8; bit += 7 { // stride keeps the test fast
		buf := append([]byte(nil), clean...)
		buf[bit/8] ^= 1 << (bit % 8)
		_, err := ReadFrame(bytes.NewReader(buf))
		if err == nil {
			t.Fatalf("bit %d: flip went undetected", bit)
		}
		// A flip in the length field (bytes 18..22) corrupts framing itself
		// and may surface as oversize or truncation; everywhere else the
		// length is intact, so the damage must be a resyncable checksum
		// mismatch.
		if bit < 18*8 || bit >= 22*8 {
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("bit %d: expected ErrChecksum, got %v", bit, err)
			}
			if !Resyncable(err) {
				t.Fatalf("bit %d: checksum error must be resyncable", bit)
			}
		}
	}
}

func TestFrameBadMagic(t *testing.T) {
	buf := Encode(&Frame{Type: TypeSend, From: 0, To: 1, Seq: 1, Payload: []byte("x")})
	buf[0] = 'X'
	_, err := ReadFrame(bytes.NewReader(buf))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("expected ErrBadMagic, got %v", err)
	}
	if Resyncable(err) {
		t.Fatal("bad magic must not be resyncable")
	}
}

func TestFrameTruncation(t *testing.T) {
	buf := Encode(&Frame{Type: TypeSend, From: 0, To: 1, Seq: 1, Payload: []byte("payload bytes")})
	for _, cut := range []int{1, headerSize - 1, headerSize, len(buf) - 1} {
		_, err := ReadFrame(bytes.NewReader(buf[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: expected ErrTruncated, got %v", cut, err)
		}
		if Resyncable(err) {
			t.Fatalf("cut at %d: truncation must not be resyncable", cut)
		}
	}
	// A cut exactly at a frame boundary is a clean EOF, not damage.
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: expected io.EOF, got %v", err)
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	buf := Encode(&Frame{Type: TypeSend, From: 0, To: 1, Seq: 1, Payload: []byte("x")})
	buf[18], buf[19], buf[20], buf[21] = 0xff, 0xff, 0xff, 0xff
	_, err := ReadFrame(bytes.NewReader(buf))
	if !errors.Is(err, ErrOversize) {
		t.Fatalf("expected ErrOversize, got %v", err)
	}
}

// A quarantined frame leaves the stream aligned: the next frame reads fine.
func TestFrameResyncAfterChecksumError(t *testing.T) {
	bad := Encode(&Frame{Type: TypeSend, From: 0, To: 1, Seq: 1, Payload: []byte("damaged")})
	bad[headerSize] ^= 0x01
	good := &Frame{Type: TypeSend, From: 0, To: 1, Seq: 2, Payload: []byte("intact")}
	stream := bytes.NewReader(append(bad, Encode(good)...))

	if _, err := ReadFrame(stream); !errors.Is(err, ErrChecksum) {
		t.Fatalf("expected ErrChecksum first, got %v", err)
	}
	got, err := ReadFrame(stream)
	if err != nil {
		t.Fatalf("stream wedged after quarantine: %v", err)
	}
	if got.Seq != 2 || !bytes.Equal(got.Payload, good.Payload) {
		t.Fatalf("resync read wrong frame: %v", got)
	}
}

// The injector is deterministic in its seed and classifies drops transient.
func TestFaultsDeterministicAndTransient(t *testing.T) {
	cfg := FaultsConfig{DropProb: 0.3, DupProb: 0.2, CorruptProb: 0.2, TruncateProb: 0.1}
	draw := func(seed int64) []Action {
		f := NewFaults(seed, cfg)
		out := make([]Action, 200)
		for i := range out {
			out[i], _, _ = f.draw(100)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}

	if !Transient(errDropped("send", &Frame{From: 0, To: 1})) {
		t.Fatal("an injected drop must be transient: the frame never left, so repeating it is safe")
	}
}

// An injected drop, wrapped or not, is the one transient failure. A peer
// that is down (a refused dial, a timed-out round trip), a closed transport
// and nil are not.
func TestTransientClassification(t *testing.T) {
	drop := errDropped("call", &Frame{From: 0, To: 1})
	if !Transient(ErrDropped) || !Transient(drop) || !Transient(fmt.Errorf("forward: %w", drop)) {
		t.Fatal("a dropped frame, wrapped or not, should be transient")
	}
	timeout := &PeerDownError{To: 1, Op: "call", Err: errors.New("timeout after 5ms")}
	if Transient(timeout) || Transient(fabric.ErrClusterClosed) || Transient(nil) {
		t.Fatal("peer-down, closed and nil errors must not be transient")
	}
}

func TestFaultsNilSafe(t *testing.T) {
	var f *Faults
	if act, _, _ := f.draw(64); act != ActPass {
		t.Fatalf("nil injector must pass frames, got %v", act)
	}
	if f.Stats() != (FaultsStats{}) {
		t.Fatal("nil injector stats must be zero")
	}
}

// FuzzReadFrame feeds arbitrary bytes, followed by one intact frame, to
// ReadFrame: it never panics; a frame that decodes re-encodes to exactly the
// bytes it was read from; and a damaged one fails with a typed error that
// agrees with Resyncable — a resyncable error consumed exactly the frame its
// header declares, so the stream stays aligned, and any other is bad magic,
// oversize or truncation.
func FuzzReadFrame(f *testing.F) {
	tc := trace.Context{TraceID: 7, SpanID: 9, Flags: trace.FlagSampled}
	plain := Encode(&Frame{Type: TypeSend, From: 1, To: 2, Seq: 42, Payload: []byte("<s> <p> <o> . @100")})
	traced := Encode(&Frame{Type: TypeCall, From: 3, To: 0, Seq: 1, Payload: []byte("QUERY"), Trace: tc})
	flipped := append([]byte(nil), plain...)
	flipped[headerSize+1] ^= 0x20
	f.Add(plain)
	f.Add(traced)
	f.Add(Encode(&Frame{Type: TypePing, From: 0, To: 1, Seq: 1}))
	f.Add(flipped)
	f.Add(plain[:headerSize+3])
	// FlagTrace over a context with no trace id: Encode never writes one.
	f.Add(Encode(&Frame{Type: TypeSend, Flags: FlagTrace, From: 1, To: 2, Seq: 3, Payload: make([]byte, trace.ContextSize+1)}))
	f.Add([]byte("WSxx"))
	f.Add([]byte{})

	intact := Encode(&Frame{Type: TypeSend, From: 4, To: 5, Seq: 99, Payload: []byte("intact")})
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := append(append([]byte(nil), data...), intact...)
		r := bytes.NewReader(stream)
		fr, err := ReadFrame(r)
		used := len(stream) - r.Len()
		switch {
		case err == nil:
			if again := Encode(fr); !bytes.Equal(again, stream[:used]) {
				t.Fatalf("frame %v read from %x re-encodes as %x", fr, stream[:used], again)
			}
		case Resyncable(err):
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("resyncable error %v is not a checksum mismatch", err)
			}
			if want := headerSize + int(binary.BigEndian.Uint32(stream[18:22])); used != want {
				t.Fatalf("%v after %d bytes of a %d-byte frame", err, used, want)
			}
			if used == len(data) {
				if next, err := ReadFrame(r); err != nil || next.Seq != 99 {
					t.Fatalf("after %x the stream did not resume at the intact frame: %v, %v", data, next, err)
				}
			}
		case errors.Is(err, ErrBadMagic), errors.Is(err, ErrOversize), errors.Is(err, ErrTruncated):
		default:
			t.Fatalf("untyped error %v", err)
		}
	})
}
