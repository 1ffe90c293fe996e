// Package flow is the engine's admission layer: the typed rejection a full
// admission edge returns (ShedError, with a retry-after hint), the
// token-bucket rate limiter the server's EMIT edge uses (Limiter), and the
// watermark-instrumented accounting a bounded buffer reports through
// (QueueStats).
//
// The paper's headline claim is sub-millisecond stateful querying; flow is
// what defends that latency when input outruns capacity. Overload has one
// answer (DESIGN.md §10): an edge that cannot take a whole unit of work
// refuses all of it, counts it, and hints when to retry. Nothing the engine
// acknowledged is evicted afterwards, and nothing in the engine waits for
// room: the producer, which holds the work in its own buffer (the paper's
// upstream backup, §5), is the only thing that waits.
//
// Everything here is zero-dependency and deterministic where it matters: the
// limiter takes an injectable clock, so a run reproduces.
package flow

import (
	"errors"
	"fmt"
	"time"
)

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
