// Raw one-shot client: a single Call performed over a throwaway connection,
// for bootstrap moments when no TCP transport exists yet (a joining daemon
// must ask the seed for a rank before it can construct its transport).
package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/fabric"
)

// RawCall dials addr, performs the Hello handshake as node from, issues one
// Call to node to, and returns the response payload. A RespErr answer is
// returned as a RemoteError-matching error. The connection is closed either
// way.
func RawCall(addr string, from, to fabric.NodeID, req []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	deadline := time.Now().Add(timeout)
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, &PeerDownError{To: to, Op: "dial", Err: err}
	}
	defer c.Close()
	c.SetDeadline(deadline)

	if _, err := c.Write(Encode(&Frame{Type: TypeHello, From: from, To: to, Seq: 1, Payload: helloPayload})); err != nil {
		return nil, &PeerDownError{To: to, Op: "call", Err: fmt.Errorf("hello: %w", err)}
	}
	if _, err := readHello(c, TypeHelloAck); err != nil {
		return nil, &PeerDownError{To: to, Op: "call", Err: fmt.Errorf("handshake: %w", err)}
	}
	const seq = 2
	if _, err := c.Write(Encode(&Frame{Type: TypeCall, From: from, To: to, Seq: seq, Payload: req})); err != nil {
		return nil, &PeerDownError{To: to, Op: "call", Err: err}
	}
	for {
		f, err := ReadFrame(c)
		if err != nil {
			if Resyncable(err) {
				continue
			}
			return nil, &PeerDownError{To: to, Op: "call", Err: err}
		}
		if f.Seq != seq {
			continue // not our response (stray pong, duplicate)
		}
		switch f.Type {
		case TypeResp:
			return f.Payload, nil
		case TypeRespErr:
			return nil, fmt.Errorf("%w: %s", errRemote, f.Payload)
		}
	}
}

// RemoteText extracts the remote handler's error message from a RemoteError
// (reversing the errRemote wrap), so callers can surface the application
// error text without the wire framing around it.
func RemoteText(err error) (string, bool) {
	if err == nil || !errors.Is(err, errRemote) {
		return "", false
	}
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, errRemote.Error()+": "); ok {
		return rest, true
	}
	return msg, true
}
