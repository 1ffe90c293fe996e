// Package wire is the cluster's message plane: length-prefixed CRC32C
// frames over ordinary sockets, with a seeded fault injector (faults.go)
// that mangles traffic at the frame layer. The framing is deliberately dumb — fixed header, one
// checksum, no compression, no negotiation — because everything interesting
// (membership, replication and its repair) lives above it and must not
// depend on transport cleverness.
//
// Frame layout (big-endian):
//
//	offset  size  field
//	0       4     magic "WKS1"
//	4       1     type
//	5       1     flags (reserved, 0)
//	6       2     from node id
//	8       2     to node id
//	10      8     sequence number
//	18      4     payload length
//	22      4     CRC32C over bytes [4,22) plus the payload
//	26      n     payload
//
// The CRC uses the Castagnoli polynomial, as oplog's durable records do, so
// "verified by CRC32C" means one thing in this codebase; unlike a record's
// checksum it also covers the header. A frame whose checksum fails is
// quarantined: the receiver consumed as many bytes as the length prefix
// promised, so it drops the frame, bumps the quarantine counters, and keeps
// reading. Damage that destroys framing itself (bad magic, truncation
// mid-frame) kills the connection, because byte alignment is unrecoverable.
// The length prefix is trusted before the CRC can be checked, so a damaged
// one that stays within MaxPayload leaves the reader waiting for bytes that
// never come: the sender's next round trip on that connection times out and
// drops it (TCP.roundTrip), and the operation after that redials.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/fabric"
	"repro/internal/trace"
)

// Frame types. Request-direction types (Hello, Ping, Send, Call) carry
// strictly increasing sequence numbers per connection; response-direction
// types (HelloAck, Pong, Resp, RespErr) echo the sequence number of the
// request they answer.
const (
	TypeHello    = 0x01 // dialer's opening frame: From = dialer's node id
	TypeHelloAck = 0x02 // acceptor's reply
	TypePing     = 0x03 // liveness probe
	TypePong     = 0x04 // liveness reply
	TypeSend     = 0x05 // one-way payload for the remote handler
	TypeCall     = 0x06 // two-sided request
	TypeResp     = 0x07 // successful call response
	TypeRespErr  = 0x08 // failed call response; payload is the error text
)

func typeName(t byte) string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "helloack"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeSend:
		return "send"
	case TypeCall:
		return "call"
	case TypeResp:
		return "resp"
	case TypeRespErr:
		return "resperr"
	default:
		return fmt.Sprintf("type(0x%02x)", t)
	}
}

const (
	headerSize = 26
	magic0     = 'W'
	magic1     = 'K'
	magic2     = 'S'
	magic3     = '1'

	// MaxPayload bounds a single frame's payload. Anything larger is a
	// protocol violation (or garbage after desync), not a big message.
	MaxPayload = 16 << 20
)

// FlagTrace marks a frame whose payload is prefixed with a 17-byte trace
// context (DESIGN.md §13).
const FlagTrace = 0x01

// The Hello and HelloAck payloads are one byte, helloVersion. Every daemon
// is built from the same tree, so a handshake in any other form is not a
// peer, and the side that reads it closes the connection. The handshake
// carries no epoch: fencing is per op, by the epoch each replicated op is
// stamped with (DESIGN.md §15), so a zombie's stale op is refused whether
// its connection is new or healed. Version 6: a cluster STATE reply is
// EPOCH, AUTH and SEQ alone, and it is also the verb anti-entropy reads.
const helloVersion = 6

// helloPayload is the Hello/HelloAck payload.
var helloPayload = []byte{helloVersion}

// readHello reads one handshake frame, which must have type typ and a
// well-formed payload.
func readHello(r io.Reader, typ byte) (*Frame, error) {
	f, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	if f.Type != typ {
		return nil, fmt.Errorf("unexpected %s", typeName(f.Type))
	}
	if len(f.Payload) != 1 || f.Payload[0] != helloVersion {
		return nil, fmt.Errorf("malformed %s payload (%d bytes)", typeName(typ), len(f.Payload))
	}
	return f, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Typed frame-stream errors. ErrChecksum and ErrDuplicate leave the stream
// aligned (quarantine and continue); the others do not (reset the
// connection).
var (
	ErrBadMagic  = errors.New("wire: bad frame magic")
	ErrChecksum  = errors.New("wire: frame checksum mismatch")
	ErrOversize  = errors.New("wire: frame payload exceeds limit")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrDuplicate = errors.New("wire: duplicate frame")
)

// Frame is one decoded wire frame. Trace, when valid, is carried on the
// wire as a FlagTrace-marked payload prefix; Encode adds it and ReadFrame
// strips it, so Payload is always the application payload alone.
type Frame struct {
	Type    byte
	Flags   byte
	From    fabric.NodeID
	To      fabric.NodeID
	Seq     uint64
	Payload []byte
	Trace   trace.Context
}

func (f *Frame) String() string {
	return fmt.Sprintf("%s %d->%d seq=%d len=%d", typeName(f.Type), f.From, f.To, f.Seq, len(f.Payload))
}

// Encode renders the frame to its wire bytes, checksum included. A valid
// Trace context is prepended to the payload under FlagTrace; the CRC covers
// it like any other payload byte.
func Encode(f *Frame) []byte {
	flags := f.Flags
	extra := 0
	if f.Trace.Valid() {
		flags |= FlagTrace
		extra = trace.ContextSize
	}
	buf := make([]byte, encodedLen(f))
	buf[0], buf[1], buf[2], buf[3] = magic0, magic1, magic2, magic3
	buf[4] = f.Type
	buf[5] = flags
	binary.BigEndian.PutUint16(buf[6:8], uint16(f.From))
	binary.BigEndian.PutUint16(buf[8:10], uint16(f.To))
	binary.BigEndian.PutUint64(buf[10:18], f.Seq)
	binary.BigEndian.PutUint32(buf[18:22], uint32(extra+len(f.Payload)))
	if extra > 0 {
		trace.AppendContext(buf[headerSize:headerSize], f.Trace)
	}
	copy(buf[headerSize+extra:], f.Payload)
	crc := crc32.Update(0, crcTable, buf[4:22])
	crc = crc32.Update(crc, crcTable, buf[headerSize:])
	binary.BigEndian.PutUint32(buf[22:26], crc)
	return buf
}

// encodedLen is len(Encode(f)) without encoding; it does not depend on Seq.
func encodedLen(f *Frame) int {
	n := headerSize + len(f.Payload)
	if f.Trace.Valid() {
		n += trace.ContextSize
	}
	return n
}

// ReadFrame decodes one frame from r.
//
// Error contract: ErrChecksum means the frame was fully consumed but its
// contents cannot be trusted — the caller should quarantine it and keep
// reading the same stream. ErrBadMagic and ErrOversize mean the stream is
// desynchronized. io.EOF means a clean close at a frame boundary; a partial
// frame surfaces as ErrTruncated.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if hdr[0] != magic0 || hdr[1] != magic1 || hdr[2] != magic2 || hdr[3] != magic3 {
		return nil, ErrBadMagic
	}
	n := binary.BigEndian.Uint32(hdr[18:22])
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversize, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	crc := crc32.Update(0, crcTable, hdr[4:22])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != binary.BigEndian.Uint32(hdr[22:26]) {
		return nil, ErrChecksum
	}
	f := &Frame{
		Type:    hdr[4],
		Flags:   hdr[5],
		From:    fabric.NodeID(binary.BigEndian.Uint16(hdr[6:8])),
		To:      fabric.NodeID(binary.BigEndian.Uint16(hdr[8:10])),
		Seq:     binary.BigEndian.Uint64(hdr[10:18]),
		Payload: payload,
	}
	if f.Flags&FlagTrace != 0 {
		// The frame was fully consumed and CRC-verified, so a short trace
		// prefix, or one without a trace id (Encode marks only a valid
		// context), is a peer bug, not stream damage: quarantine, don't
		// reset.
		tc, err := trace.DecodeContext(payload)
		if err == nil && !tc.Valid() {
			err = errors.New("no trace id")
		}
		if err != nil {
			return nil, fmt.Errorf("%w: trace context: %v", ErrChecksum, err)
		}
		f.Trace = tc
		f.Payload = payload[trace.ContextSize:]
		f.Flags &^= FlagTrace // Payload no longer carries the prefix
	}
	return f, nil
}

// Resyncable reports whether the frame stream is still byte-aligned after
// err: the frame was fully consumed and the reader may continue.
func Resyncable(err error) bool {
	return errors.Is(err, ErrChecksum) || errors.Is(err, ErrDuplicate)
}
