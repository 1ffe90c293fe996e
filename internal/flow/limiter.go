package flow

import (
	"sync"
	"time"
)

// Limiter is a token-bucket rate limiter: capacity `burst` tokens, refilled
// at `rate` tokens per second. A nil *Limiter admits everything (rate
// limiting disabled). All methods are safe for concurrent use.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewLimiter creates a token-bucket limiter. rate <= 0 returns nil (the
// unlimited limiter); burst <= 0 defaults to rate (a one-second bucket).
func NewLimiter(rate, burst float64) *Limiter {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = rate
	}
	l := &Limiter{rate: rate, burst: burst, tokens: burst, now: time.Now}
	l.last = l.now()
	return l
}

// SetClock replaces the limiter's time source (tests).
func (l *Limiter) SetClock(now func() time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last = now()
	l.now = now
}

// Burst returns the bucket's capacity, the most tokens one Allow can ever
// take (0 for the nil limiter, which needs no tokens).
func (l *Limiter) Burst() float64 {
	if l == nil {
		return 0
	}
	return l.burst
}

// refillLocked credits tokens for the time elapsed since the last refill.
func (l *Limiter) refillLocked() {
	now := l.now()
	if dt := now.Sub(l.last).Seconds(); dt > 0 {
		l.tokens += dt * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
	}
	l.last = now
}

// Allow takes n tokens if available, reporting whether it did. A nil limiter
// always allows.
func (l *Limiter) Allow(n float64) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refillLocked()
	if l.tokens >= n {
		l.tokens -= n
		return true
	}
	return false
}

// RetryAfter returns how long until n tokens will be available (0 when they
// already are). It does not take tokens. n above Burst never becomes
// available, whatever this returns.
func (l *Limiter) RetryAfter(n float64) time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refillLocked()
	if l.tokens >= n {
		return 0
	}
	need := n - l.tokens
	return time.Duration(need / l.rate * float64(time.Second))
}
