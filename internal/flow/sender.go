package flow

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// ErrDropped is the one retryable delivery failure: the message was lost in
// transit (an injected wire.Faults frame drop) and sending it again may land.
// A delivery attempt reports a drop by returning an error that wraps it.
var ErrDropped = errors.New("message dropped")

// Transient reports whether err is a retryable drop. Every other failure —
// a peer that is down, an open breaker, a closed transport — is persistent:
// retrying it burns work until the topology changes.
func Transient(err error) bool { return errors.Is(err, ErrDropped) }

// SenderConfig tunes the retrying sender. The zero value means
// defaults (3 retries, 50µs base backoff doubling to a 5ms cap, breaker
// tripping after 5 persistent failures with a 50ms cooldown).
type SenderConfig struct {
	// Retries is the per-send retry budget for transient failures
	// (message drops). 0 = default 3; negative disables retry.
	Retries int
	// RetryBase is the first backoff; each retry doubles it (full jitter),
	// capped at RetryCap. Defaults 50µs and 5ms.
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerThreshold is how many consecutive persistent failures (a peer
	// that is down) trip a destination's breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before probing
	// again (default 50ms).
	BreakerCooldown time.Duration
	// Seed makes the backoff jitter deterministic when nonzero.
	Seed int64
}

func (c SenderConfig) withDefaults() SenderConfig {
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Microsecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 5 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 50 * time.Millisecond
	}
	return c
}

// Sender ships one-way messages with bounded, jittered retry for transient
// drops and a per-destination circuit breaker for persistent failures. The
// cluster's replication stream uses it over internal/wire: a dropped frame is
// re-sent, and a dead peer fails fast instead of causing a retry storm. Safe
// for concurrent use.
type Sender struct {
	attempt func(from, to fabric.NodeID, n int) error
	cfg     SenderConfig
	reg     *obs.Registry
	// breakers is indexed by destination. Send loads it without a lock; a
	// destination past its end grows it copy-on-write under mu.
	breakers atomic.Pointer[[]*Breaker]

	mu  sync.Mutex // guards rng and breaker-slice growth
	rng *rand.Rand

	// Outcome counters (nil-safe when no registry was given): successful
	// sends, retry attempts, sends that landed only after a retry, sends
	// that failed, sends refused by an open breaker, and breaker trips.
	cSent      *obs.Counter
	cRetries   *obs.Counter
	cRecovered *obs.Counter
	cFailed    *obs.Counter
	cFastFails *obs.Counter
	cOpens     *obs.Counter
}

// NewSenderOver creates a sender whose delivery attempt is attempt, recording
// outcome counters into r (nil r records nothing). attempt is called with the
// message endpoints and size and reports a retryable drop by wrapping
// ErrDropped. A destination's breaker is created on its first Send.
func NewSenderOver(attempt func(from, to fabric.NodeID, n int) error, cfg SenderConfig, r *obs.Registry) *Sender {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Sender{
		attempt: attempt,
		cfg:     cfg,
		reg:     r,
		rng:     rand.New(rand.NewSource(seed)),

		cSent:      r.Counter("flow_send_ok_total"),
		cRetries:   r.Counter("flow_send_retries_total"),
		cRecovered: r.Counter("flow_send_recovered_total"),
		cFailed:    r.Counter("flow_send_failed_total"),
		cFastFails: r.Counter("flow_send_breaker_fastfail_total"),
		cOpens:     r.Counter("flow_breaker_opens_total"),
	}
	s.breakers.Store(new([]*Breaker))
	return s
}

// maxBreakerGauges caps the per-destination flow_breaker_state gauges.
const maxBreakerGauges = 16

// Breaker returns the destination node's breaker (for state probes).
func (s *Sender) Breaker(to fabric.NodeID) *Breaker {
	if s == nil {
		return nil
	}
	return s.breaker(to)
}

// breaker returns to's breaker, creating it (and every lower destination's)
// on first use.
func (s *Sender) breaker(to fabric.NodeID) *Breaker {
	if bs := *s.breakers.Load(); int(to) < len(bs) {
		return bs[to]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.breakers.Load()
	if int(to) < len(old) {
		return old[to]
	}
	bs := make([]*Breaker, int(to)+1)
	copy(bs, old)
	for i := len(old); i < len(bs); i++ {
		br := NewBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown)
		bs[i] = br
		if i < maxBreakerGauges {
			s.reg.GaugeFunc(obs.Name("flow_breaker_state", "node", fmt.Sprint(i)),
				func() int64 { return int64(br.State()) })
		}
	}
	s.breakers.Store(&bs)
	return bs[to]
}

// backoff returns the jittered backoff before retry attempt (0-based).
func (s *Sender) backoff(attempt int) time.Duration {
	d := s.cfg.RetryBase << uint(attempt)
	if d > s.cfg.RetryCap || d <= 0 {
		d = s.cfg.RetryCap
	}
	s.mu.Lock()
	j := time.Duration(s.rng.Int63n(int64(d/2) + 1))
	s.mu.Unlock()
	return d/2 + j // full jitter in [d/2, d]
}

// Send ships a one-way message of n bytes from->to. Transient drops are
// retried with jittered backoff up to the configured budget; persistent
// failures are reported to the destination's breaker without burning
// retries. An open breaker fails fast with a BreakerOpenError before
// attempting delivery.
func (s *Sender) Send(from, to fabric.NodeID, n int) error {
	if s == nil {
		panic("flow: Send on nil Sender")
	}
	if from == to {
		return nil
	}
	br := s.breaker(to)
	if !br.Allow() {
		s.cFastFails.Inc()
		return &BreakerOpenError{To: int(to)}
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = s.attempt(from, to, n)
		if err == nil {
			br.Success()
			s.cSent.Inc()
			if attempt > 0 {
				s.cRecovered.Inc()
			}
			return nil
		}
		if !Transient(err) || attempt >= s.cfg.Retries {
			break
		}
		s.cRetries.Inc()
		time.Sleep(s.backoff(attempt))
	}
	before := br.Opens()
	br.Failure()
	if br.Opens() > before {
		s.cOpens.Inc()
	}
	s.cFailed.Inc()
	return err
}
