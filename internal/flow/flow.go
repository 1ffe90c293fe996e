// Package flow is the engine's admission layer: the shed policies a bounded
// buffer applies when full (Policy), the typed rejection a shed returns
// (ShedError, with a retry-after hint), the token-bucket rate limiter the
// server's EMIT edge uses (Limiter), and the watermark-instrumented
// accounting a bounded buffer reports through (QueueStats).
//
// The paper's headline claim is sub-millisecond stateful querying; flow is
// what defends that latency when input outruns capacity. The design contract
// (DESIGN.md §10) extends §4.3's "never trigger on an incomplete prefix" to
// "never lie about what was shed": every admission decision is accounted —
// work is either admitted (and completes with bounded latency) or shed (and
// counted, with a retry-after hint). Silent loss is a bug; bounded,
// observable loss is the degradation mode.
//
// Everything here is zero-dependency and deterministic where it matters: the
// limiter takes an injectable clock, so a run reproduces.
package flow

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Policy selects what happens when a bounded resource is full.
type Policy int

const (
	// DropNewest rejects the incoming item (the caller gets ErrShed and a
	// retry-after hint). The default: preserves admitted work and gives
	// producers backpressure they can act on.
	DropNewest Policy = iota
	// DropOldest evicts the oldest queued item to admit the new one: fresh
	// data matters more than stale (the poll-buffer semantics).
	DropOldest
	// Block makes the producer wait for space up to a deadline, then sheds
	// like DropNewest. Turns overload into latency before turning it into
	// loss.
	Block
)

func (p Policy) String() string {
	switch p {
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	case Block:
		return "block"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as used by command-line flags.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "drop-newest", "":
		return DropNewest, nil
	case "drop-oldest":
		return DropOldest, nil
	case "block":
		return Block, nil
	default:
		return DropNewest, fmt.Errorf("flow: unknown shed policy %q (want drop-newest, drop-oldest, or block)", s)
	}
}

// ErrShed is the base error every admission-control rejection wraps. Callers
// distinguish "the system is protecting itself" from "the request is wrong"
// with errors.Is(err, flow.ErrShed).
var ErrShed = errors.New("shed by admission control")

// ShedError reports one shed decision with a backoff hint.
type ShedError struct {
	// RetryAfter is the producer's backoff hint: retrying sooner will
	// almost certainly be shed again.
	RetryAfter time.Duration
	// Reason names the bounded resource that shed.
	Reason string
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("flow: %s: retry after %v: %v", e.Reason, e.RetryAfter, ErrShed)
}

// Unwrap lets errors.Is(err, ErrShed) see through a ShedError.
func (e *ShedError) Unwrap() error { return ErrShed }

// Shed builds a ShedError.
func Shed(reason string, retryAfter time.Duration) *ShedError {
	return &ShedError{Reason: reason, RetryAfter: retryAfter}
}

// ParseShedError inverts ShedError.Error: a shed decision that crossed a
// process boundary as text (a forwarded cluster write) becomes typed again,
// so the daemon that relays it renders the same overload reply, with the same
// backoff hint, as the daemon that shed.
func ParseShedError(msg string) (*ShedError, bool) {
	const sep = ": retry after "
	rest, okPrefix := strings.CutPrefix(msg, "flow: ")
	rest, okSuffix := strings.CutSuffix(rest, ": "+ErrShed.Error())
	i := strings.LastIndex(rest, sep)
	if !okPrefix || !okSuffix || i < 0 {
		return nil, false
	}
	d, err := time.ParseDuration(rest[i+len(sep):])
	if err != nil {
		return nil, false
	}
	return Shed(rest[:i], d), true
}
