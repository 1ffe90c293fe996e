package flow

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// fakeClock is a manually advanced time source whose sleep advances it.
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

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"": DropNewest, "drop-newest": DropNewest, "drop-oldest": DropOldest, "block": Block} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) succeeded")
	}
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

// A shed decision that crossed a process boundary as text parses back into
// the error it was, and nothing else parses as one.
func TestParseShedErrorRoundTrip(t *testing.T) {
	for _, want := range []*ShedError{
		Shed("stream S: admission buffer full", 100*time.Millisecond),
		Shed("stream S: batch 3 sealed while blocked", 0),
		Shed("odd: retry after 5s: reason", 1500*time.Microsecond),
	} {
		got, ok := ParseShedError(want.Error())
		if !ok || *got != *want {
			t.Errorf("ParseShedError(%q) = %+v, %v; want %+v", want.Error(), got, ok, want)
		}
	}
	for _, msg := range []string{
		"",
		"stream S: timestamp regression 150 after 250",
		"flow: send to node 2: circuit breaker open",
		"flow: q: retry after soon: shed by admission control",
		"flow: q: shed by admission control",
	} {
		if got, ok := ParseShedError(msg); ok {
			t.Errorf("ParseShedError(%q) = %+v, want no match", msg, got)
		}
	}
}

func TestLimiterTokenBucket(t *testing.T) {
	var nl *Limiter
	if !nl.Allow(100) || nl.RetryAfter(1) != 0 || !nl.WaitMax(1, time.Second) {
		t.Fatal("nil limiter must admit everything")
	}
	if NewLimiter(0, 10) != nil {
		t.Fatal("rate <= 0 must return the nil (unlimited) limiter")
	}

	clk := newFakeClock()
	l := NewLimiter(10, 5) // 10 tokens/s, burst 5
	l.SetClock(clk.now, func(d time.Duration) { clk.advance(d) })

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
	adm, rej := l.Stats()
	if adm != 6 || rej != 1 {
		t.Fatalf("stats = (%d, %d); want (6, 1)", adm, rej)
	}

	// WaitMax with the fake sleep advancing the clock: the wait succeeds.
	if !l.WaitMax(2, time.Second) {
		t.Fatal("WaitMax(2, 1s) should succeed after sleeping for refill")
	}
	// An impossible wait (needs 500ms of refill, only 10ms allowed) sheds.
	if l.WaitMax(5, 10*time.Millisecond) {
		t.Fatal("WaitMax beyond the deadline should refuse")
	}
}

func TestQueueDropNewest(t *testing.T) {
	q := NewQueue[int](2, DropNewest)
	if err := q.Push(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(2, 0); err != nil {
		t.Fatal(err)
	}
	err := q.Push(3, 0)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("full push = %v; want ErrShed", err)
	}
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("Pop = %d, %v; want 1", v, ok)
	}
	st := q.Stats()
	if st.Admitted() != 2 || st.ShedNewest() != 1 || st.Watermark() != 2 {
		t.Fatalf("stats admitted=%d shedNewest=%d watermark=%d", st.Admitted(), st.ShedNewest(), st.Watermark())
	}
}

func TestQueueDropOldest(t *testing.T) {
	q := NewQueue[int](2, DropOldest)
	for i := 1; i <= 3; i++ {
		if err := q.Push(i, 0); err != nil {
			t.Fatalf("Push(%d) = %v", i, err)
		}
	}
	if v, _ := q.Pop(); v != 2 {
		t.Fatalf("head = %d; want 2 (1 evicted)", v)
	}
	if v, _ := q.Pop(); v != 3 {
		t.Fatalf("second = %d; want 3", v)
	}
	if q.Stats().ShedOldest() != 1 {
		t.Fatalf("shedOldest = %d; want 1", q.Stats().ShedOldest())
	}
}

func TestQueueBlock(t *testing.T) {
	q := NewQueue[int](1, Block)
	if err := q.Push(1, 0); err != nil {
		t.Fatal(err)
	}
	// No wait budget: sheds immediately.
	if err := q.Push(2, 0); !errors.Is(err, ErrShed) {
		t.Fatalf("blocked push with no budget = %v; want ErrShed", err)
	}
	// Tiny wait budget with no consumer: times out into a shed.
	if err := q.Push(2, time.Millisecond); !errors.Is(err, ErrShed) {
		t.Fatalf("timed-out push = %v; want ErrShed", err)
	}
	if q.Stats().Timeouts() != 1 {
		t.Fatalf("timeouts = %d; want 1", q.Stats().Timeouts())
	}
	// With a consumer draining, the blocked push succeeds.
	done := make(chan error, 1)
	go func() { done <- q.Push(3, time.Second) }()
	time.Sleep(5 * time.Millisecond)
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("Pop = %d, %v; want 1", v, ok)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked push after drain = %v; want nil", err)
	}
	if v, ok := q.PopWait(time.Second); !ok || v != 3 {
		t.Fatalf("PopWait = %d, %v; want 3", v, ok)
	}
}

func TestQueueStatsInstrument(t *testing.T) {
	r := obs.NewRegistry("test")
	q := NewQueue[int](4, DropNewest)
	q.Stats().Instrument(r, "test")
	_ = q.Push(1, 0)
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

func TestBreakerLifecycle(t *testing.T) {
	var nb *Breaker
	if !nb.Allow() || nb.State() != Closed {
		t.Fatal("nil breaker must admit everything")
	}

	clk := newFakeClock()
	b := NewBreaker(2, 50*time.Millisecond)
	b.SetClock(clk.now)

	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
	b.Failure()
	if b.State() != Closed {
		t.Fatal("tripped below threshold")
	}
	b.Failure() // second consecutive failure: trips
	if b.State() != Open || b.Opens() != 1 {
		t.Fatalf("state = %v opens = %d; want open/1", b.State(), b.Opens())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted before cooldown")
	}
	clk.advance(60 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	b.Failure() // probe fails: re-open immediately
	if b.State() != Open || b.Opens() != 2 {
		t.Fatalf("after failed probe: state = %v opens = %d", b.State(), b.Opens())
	}
	clk.advance(60 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != Closed || !b.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}
	// A success also resets the consecutive-failure count.
	b.Failure()
	if b.State() != Closed {
		t.Fatal("single failure after reset tripped the breaker")
	}
}

// errPeerDown stands in for a persistent delivery failure (wire's
// PeerDownError): anything that does not wrap ErrDropped.
var errPeerDown = errors.New("peer down")

func TestTransientClassification(t *testing.T) {
	if !Transient(ErrDropped) || !Transient(fmt.Errorf("wire: send 0->1: %w", ErrDropped)) {
		t.Fatal("a dropped message, wrapped or not, should be transient")
	}
	if Transient(errPeerDown) || Transient(&BreakerOpenError{To: 1}) || Transient(nil) {
		t.Fatal("peer-down, breaker-open and nil errors must not be transient")
	}
}

// scriptedAttempt is a delivery function whose outcomes a test dictates:
// each call pops the next scripted error (nil = delivered); past the end of
// the script it returns fallback.
type scriptedAttempt struct {
	mu       sync.Mutex
	script   []error
	fallback error
	calls    int
}

func (a *scriptedAttempt) attempt(from, to fabric.NodeID, n int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls++
	if len(a.script) == 0 {
		return a.fallback
	}
	err := a.script[0]
	a.script = a.script[1:]
	return err
}

func (a *scriptedAttempt) set(fallback error, script ...error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.script, a.fallback = script, fallback
}

// sendCounts is a Sender's outcome counters, read from its registry.
type sendCounts struct{ ok, retries, recovered, failed, fastFails, opens int64 }

func senderCounts(r *obs.Registry) sendCounts {
	return sendCounts{
		ok:        r.Counter("flow_send_ok_total").Value(),
		retries:   r.Counter("flow_send_retries_total").Value(),
		recovered: r.Counter("flow_send_recovered_total").Value(),
		failed:    r.Counter("flow_send_failed_total").Value(),
		fastFails: r.Counter("flow_send_breaker_fastfail_total").Value(),
		opens:     r.Counter("flow_breaker_opens_total").Value(),
	}
}

func TestSenderRecoversTransientDrops(t *testing.T) {
	// Send i's first i%3 attempts are dropped: every send needs at most two
	// retries, and two in three need at least one.
	var script []error
	const sends = 200
	for i := 0; i < sends; i++ {
		for d := 0; d < i%3; d++ {
			script = append(script, fmt.Errorf("wire: send 0->1: %w", ErrDropped))
		}
		script = append(script, nil)
	}
	a := &scriptedAttempt{script: script}
	r := obs.NewRegistry("test")
	s := NewSenderOver(a.attempt, SenderConfig{Retries: 3, RetryBase: time.Microsecond, RetryCap: 10 * time.Microsecond, Seed: 11}, r)
	for i := 0; i < sends; i++ {
		if err := s.Send(0, 1, 64); err != nil {
			t.Fatalf("send %d failed despite retry budget: %v", i, err)
		}
	}
	if st := senderCounts(r); st.ok != sends || st.failed != 0 {
		t.Fatalf("counts = %+v; want all %d sent", st, sends)
	} else if wantRetries := int64(sends/3*3 + 1); st.retries != wantRetries || st.recovered != sends*2/3 {
		t.Fatalf("counts = %+v; want %d retries recovering %d sends", st, wantRetries, sends*2/3)
	}
	if s.Breaker(1).State() != Closed {
		t.Fatal("breaker tripped on transient drops")
	}
	// Local delivery never calls the attempt function.
	calls := a.calls
	if err := s.Send(0, 0, 64); err != nil || a.calls != calls {
		t.Fatalf("local send = %v after %d attempts", err, a.calls-calls)
	}
	// A drop that outlasts the budget fails the send.
	a.set(ErrDropped)
	if err := s.Send(0, 1, 64); !Transient(err) {
		t.Fatalf("send past the retry budget = %v; want the drop", err)
	}
}

func TestSenderBreakerFastFailsAndRecovers(t *testing.T) {
	a := &scriptedAttempt{fallback: errPeerDown}
	r := obs.NewRegistry("test")
	s := NewSenderOver(a.attempt, SenderConfig{Retries: 3, BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond, Seed: 1}, r)
	clk := newFakeClock()
	s.Breaker(1).SetClock(clk.now)

	for i := 0; i < 2; i++ {
		if err := s.Send(0, 1, 64); !errors.Is(err, errPeerDown) {
			t.Fatalf("send to a down peer = %v; want errPeerDown", err)
		}
	}
	// Persistent failures must not burn the retry budget.
	if st := senderCounts(r); st.retries != 0 || st.failed != 2 || st.opens != 1 || a.calls != 2 {
		t.Fatalf("counts after peer-down = %+v over %d attempts; want 0 retries, 2 failed, 1 breaker trip, 2 attempts", st, a.calls)
	}
	if s.Breaker(1).State() != Open {
		t.Fatal("breaker did not trip after threshold persistent failures")
	}
	err := s.Send(0, 1, 64)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("send with open breaker = %v; want ErrBreakerOpen", err)
	}
	var boe *BreakerOpenError
	if !errors.As(err, &boe) || boe.To != 1 {
		t.Fatalf("breaker error lost its destination: %v", err)
	}
	if st := senderCounts(r); st.fastFails != 1 || a.calls != 2 {
		t.Fatalf("fast fails = %d after %d attempts; want 1 fast fail and no attempt", st.fastFails, a.calls)
	}

	// The peer comes back; after the cooldown the half-open probe succeeds
	// and the breaker closes.
	a.set(nil)
	clk.advance(60 * time.Millisecond)
	if err := s.Send(0, 1, 64); err != nil {
		t.Fatalf("probe send after recovery = %v", err)
	}
	if s.Breaker(1).State() != Closed {
		t.Fatal("breaker did not close after successful probe")
	}
}

// TestBreakerHalfOpenSingleProbeUnderConcurrency hammers a tripped breaker
// with racing Allow calls right after the cooldown: per half-open episode
// exactly one caller may be admitted as the probe, no matter how many race
// across the Open→HalfOpen flip, and the probe's outcome decides the next
// episode for everyone.
func TestBreakerHalfOpenSingleProbeUnderConcurrency(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(1, 50*time.Millisecond)
	b.SetClock(clk.now)
	for round := 0; round < 20; round++ {
		b.Failure() // trip (threshold 1); also re-arms after a closed round
		if b.State() != Open {
			t.Fatalf("round %d: state = %v, want open", round, b.State())
		}
		clk.advance(60 * time.Millisecond)
		const workers = 16
		var mu sync.Mutex
		admitted := 0
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if b.Allow() {
					mu.Lock()
					admitted++
					mu.Unlock()
				}
			}()
		}
		close(start)
		wg.Wait()
		if admitted != 1 {
			t.Fatalf("round %d: %d concurrent probes admitted, want exactly 1", round, admitted)
		}
		if round%2 == 0 {
			// Probe fails: straight back to Open, nobody else slips in.
			b.Failure()
			if b.State() != Open {
				t.Fatalf("round %d: failed probe left state %v", round, b.State())
			}
			if b.Allow() {
				t.Fatalf("round %d: re-opened breaker admitted before cooldown", round)
			}
		} else {
			// Probe succeeds: closed for everyone.
			b.Success()
			if b.State() != Closed || !b.Allow() {
				t.Fatalf("round %d: successful probe did not close the breaker", round)
			}
		}
	}
}
