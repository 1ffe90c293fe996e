package flow

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// SenderConfig tunes the retrying fabric sender. The zero value means
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
	// BreakerThreshold is how many consecutive persistent failures (crashed
	// node, partition) trip a destination's breaker (default 5).
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

// SenderStats snapshots a sender's outcome counters.
type SenderStats struct {
	Sent      int64 // successful sends (first try or after retries)
	Retries   int64 // individual retry attempts
	Recovered int64 // sends that succeeded only after at least one retry
	Failed    int64 // sends that exhausted retries or hit a persistent fault
	FastFails int64 // sends refused because the destination's breaker was open
}

// Sender ships one-way fabric messages with bounded, jittered retry for
// transient faults and a per-destination circuit breaker for persistent ones.
// This is what turns the stream substrate's fire-and-forget shipments from
// "lost on any injected drop" into "recovered unless the path is truly dead"
// — and makes truly-dead paths cheap (fail fast) instead of a retry storm.
// Safe for concurrent use.
type Sender struct {
	attempt func(from, to fabric.NodeID, n int) error
	cfg     SenderConfig
	reg     *obs.Registry
	// breakers is indexed by destination. Send loads it without a lock; a
	// destination past its end grows it copy-on-write under mu.
	breakers atomic.Pointer[[]*Breaker]

	mu  sync.Mutex
	rng *rand.Rand

	// Pre-resolved metrics (nil-safe when no registry was given).
	cSent      *obs.Counter
	cRetries   *obs.Counter
	cRecovered *obs.Counter
	cFailed    *obs.Counter
	cFastFails *obs.Counter
	cOpens     *obs.Counter

	sent      int64
	retries   int64
	recovered int64
	failed    int64
	fastFails int64
}

// NewSender creates a sender over fab, recording outcome counters into r
// (nil r records nothing).
func NewSender(fab *fabric.Fabric, cfg SenderConfig, r *obs.Registry) *Sender {
	s := NewSenderOver(fab.SendAsync, cfg, r)
	s.breaker(fabric.NodeID(fab.Nodes() - 1))
	return s
}

// NewSenderOver creates a sender whose delivery attempt is an arbitrary
// function — the same retry budget, jittered backoff, and per-destination
// breakers, but over any substrate (the simulated fabric, or a TCP wire via
// internal/wire). attempt is called with the message endpoints and size and
// must classify its failures so fabric.Transient reports drops as retryable.
// A destination's breaker is created on its first Send.
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

// Send ships a one-way message of n bytes from->to. Transient faults
// (injected drops) are retried with jittered backoff up to the configured
// budget; persistent faults (crashed node, partition) are reported to the
// destination's breaker without burning retries. An open breaker fails fast
// with a BreakerOpenError before touching the fabric.
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
		s.mu.Lock()
		s.fastFails++
		s.mu.Unlock()
		return &BreakerOpenError{To: int(to)}
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = s.attempt(from, to, n)
		if err == nil {
			br.Success()
			s.cSent.Inc()
			s.mu.Lock()
			s.sent++
			if attempt > 0 {
				s.recovered++
			}
			s.mu.Unlock()
			if attempt > 0 {
				s.cRecovered.Inc()
			}
			return nil
		}
		if !fabric.Transient(err) || attempt >= s.cfg.Retries {
			break
		}
		s.cRetries.Inc()
		s.mu.Lock()
		s.retries++
		s.mu.Unlock()
		time.Sleep(s.backoff(attempt))
	}
	before := br.Opens()
	br.Failure()
	if br.Opens() > before {
		s.cOpens.Inc()
	}
	s.cFailed.Inc()
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
	return err
}

// Stats snapshots the sender's outcome counters.
func (s *Sender) Stats() SenderStats {
	if s == nil {
		return SenderStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SenderStats{
		Sent:      s.sent,
		Retries:   s.retries,
		Recovered: s.recovered,
		Failed:    s.failed,
		FastFails: s.fastFails,
	}
}
