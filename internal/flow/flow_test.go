package flow

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(0, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestShedErrorUnwraps(t *testing.T) {
	err := Shed("test queue", 5*time.Millisecond)
	if !errors.Is(err, ErrShed) {
		t.Fatal("ShedError does not unwrap to ErrShed")
	}
	var se *ShedError
	if !errors.As(err, &se) || se.RetryAfter != 5*time.Millisecond {
		t.Fatalf("ShedError lost its hint: %v", err)
	}
}

func TestLimiterTokenBucket(t *testing.T) {
	var nl *Limiter
	if !nl.Allow(100) || nl.RetryAfter(1) != 0 || nl.Burst() != 0 {
		t.Fatal("nil limiter must admit everything")
	}
	if NewLimiter(0, 10) != nil {
		t.Fatal("rate <= 0 must return the nil (unlimited) limiter")
	}

	clk := newFakeClock()
	l := NewLimiter(10, 5) // 10 tokens/s, burst 5
	l.SetClock(clk.now)
	if l.Burst() != 5 {
		t.Fatalf("Burst() = %v, want 5", l.Burst())
	}

	for i := 0; i < 5; i++ {
		if !l.Allow(1) {
			t.Fatalf("burst admit %d refused", i)
		}
	}
	if l.Allow(1) {
		t.Fatal("admitted past burst without refill")
	}
	if ra := l.RetryAfter(1); ra <= 0 || ra > 100*time.Millisecond {
		t.Fatalf("RetryAfter(1) = %v; want (0, 100ms]", ra)
	}
	clk.advance(100 * time.Millisecond) // refills exactly 1 token
	if !l.Allow(1) {
		t.Fatal("refilled token refused")
	}
	// The bucket never holds more than its burst: an hour's refill admits
	// the burst and not one token more.
	clk.advance(time.Hour)
	if l.Allow(6) || !l.Allow(5) {
		t.Fatal("the bucket held other than its burst after a long idle")
	}
}

func TestQueueStatsInstrument(t *testing.T) {
	r := obs.NewRegistry("test")
	q := NewQueueStats(4)
	q.Instrument(r, "test")
	q.OnAdmit()
	q.Observe(1)
	got := make(map[string]int64)
	r.Each(func(name string, m obs.Metric) {
		if v, ok := m.(interface{ Value() int64 }); ok {
			got[name] = v.Value()
		}
	})
	want := map[string]int64{
		obs.Name("flow_queue_capacity", "queue", "test"):       4,
		obs.Name("flow_queue_depth", "queue", "test"):          1,
		obs.Name("flow_queue_admitted_total", "queue", "test"): 1,
	}
	for name, v := range want {
		if got[name] != v {
			t.Fatalf("gauge %s = %d; want %d", name, got[name], v)
		}
	}
}
