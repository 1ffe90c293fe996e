package stream

import (
	"errors"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// admissionSource builds a 100ms-batch source bounded at maxPending.
func admissionSource(t *testing.T, maxPending int, shed flow.Policy, wait time.Duration) *Source {
	t.Helper()
	src, err := NewSource(Config{
		Name:          "S",
		BatchInterval: 100 * time.Millisecond,
		MaxPending:    maxPending,
		Shed:          shed,
		ShedWait:      wait,
	}, strserver.New())
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func emitAt(t *testing.T, src *Source, ts rdf.Timestamp) error {
	t.Helper()
	return src.Emit(rdf.Tuple{Triple: rdf.T("s", "p", "o"), TS: ts})
}

func TestAdmissionDropNewest(t *testing.T) {
	src := admissionSource(t, 3, flow.DropNewest, 0)
	for i := 0; i < 3; i++ {
		if err := emitAt(t, src, rdf.Timestamp(i)); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	err := emitAt(t, src, 3)
	if !errors.Is(err, flow.ErrShed) {
		t.Fatalf("emit past the bound = %v, want ErrShed", err)
	}
	var se *flow.ShedError
	if !errors.As(err, &se) || se.RetryAfter <= 0 {
		t.Fatalf("shed error carries no retry-after hint: %v", err)
	}
	st := src.QueueStats()
	if st.Admitted() != 3 || st.ShedNewest() != 1 || st.Watermark() != 3 {
		t.Fatalf("stats admitted=%d shedNewest=%d watermark=%d", st.Admitted(), st.ShedNewest(), st.Watermark())
	}
	// Sealing drains the buffer; admission reopens.
	batches := src.SealUpTo(100)
	if len(batches) != 1 || len(batches[0].Tuples) != 3 {
		t.Fatalf("sealed %v", batches)
	}
	if err := emitAt(t, src, 100); err != nil {
		t.Fatalf("emit after drain: %v", err)
	}
}

func TestAdmissionDropOldest(t *testing.T) {
	src := admissionSource(t, 3, flow.DropOldest, 0)
	for i := 0; i < 5; i++ {
		if err := emitAt(t, src, rdf.Timestamp(i)); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	st := src.QueueStats()
	if st.ShedOldest() != 2 || st.Depth() != 3 {
		t.Fatalf("stats shedOldest=%d depth=%d, want 2/3", st.ShedOldest(), st.Depth())
	}
	// The freshest tuples survive: timestamps 2, 3, 4.
	batches := src.SealUpTo(100)
	if len(batches) != 1 || len(batches[0].Tuples) != 3 {
		t.Fatalf("sealed %v", batches)
	}
	if got := batches[0].Tuples[0].TS; got != 2 {
		t.Fatalf("oldest surviving tuple at %d, want 2", got)
	}
}

func TestAdmissionBlockTimesOutThenSheds(t *testing.T) {
	src := admissionSource(t, 2, flow.Block, time.Millisecond)
	for i := 0; i < 2; i++ {
		if err := emitAt(t, src, rdf.Timestamp(i)); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	// No consumer drains the buffer: the block expires into a shed.
	if err := emitAt(t, src, 2); !errors.Is(err, flow.ErrShed) {
		t.Fatalf("blocked emit = %v, want ErrShed", err)
	}
	if src.QueueStats().Timeouts() != 1 {
		t.Fatalf("timeouts = %d, want 1", src.QueueStats().Timeouts())
	}
	// With a concurrent sealer draining, the blocked emit is admitted.
	src2 := admissionSource(t, 2, flow.Block, time.Second)
	for i := 0; i < 2; i++ {
		if err := emitAt(t, src2, rdf.Timestamp(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- emitAt(t, src2, 150) }()
	time.Sleep(5 * time.Millisecond)
	if got := len(src2.SealUpTo(100)); got != 1 {
		t.Fatalf("sealed %d batches, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked emit after drain = %v", err)
	}
}

func TestAdmissionUnboundedByDefault(t *testing.T) {
	src := admissionSource(t, 0, flow.DropNewest, 0)
	for i := 0; i < 1000; i++ {
		if err := emitAt(t, src, rdf.Timestamp(i/20)); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	st := src.QueueStats()
	if st.Shed() != 0 || st.Capacity() != 0 {
		t.Fatalf("unbounded source shed %d (capacity %d)", st.Shed(), st.Capacity())
	}
	if st.Watermark() != 1000 {
		t.Fatalf("watermark = %d, want 1000", st.Watermark())
	}
}

// batchAt builds n distinct tuples with consecutive timestamps from ts.
func batchAt(ts rdf.Timestamp, n int) []rdf.Tuple {
	out := make([]rdf.Tuple, n)
	for i := range out {
		out[i] = rdf.Tuple{Triple: rdf.T("s"+string(rune('a'+i)), "p", "o"), TS: ts + rdf.Timestamp(i)}
	}
	return out
}

// sourceState is everything a refused EmitBatch must leave alone.
type sourceState struct {
	pending, entities, predicates int
	admitted, shedOldest          int64
}

func stateOf(src *Source) sourceState {
	st := src.QueueStats()
	return sourceState{src.PendingLen(), src.ss.NumEntities(), src.ss.NumPredicates(), st.Admitted(), st.ShedOldest()}
}

// TestEmitBatchAllOrNothing: every way EmitBatch can refuse — order inside
// the body, order against the stream, a sealed batch, a full buffer, a body
// that could never fit — refuses the whole body and leaves the adaptor and
// the string server as they were; shed counters move in tuples.
func TestEmitBatchAllOrNothing(t *testing.T) {
	src := admissionSource(t, 4, flow.DropNewest, 0)
	if err := src.EmitBatch(batchAt(150, 2)); err != nil {
		t.Fatal(err)
	}
	src.SealUpTo(100) // batch 1 ([0,100)) is closed; the two tuples stay pending
	before := stateOf(src)

	regress := batchAt(250, 2)
	regress[1].TS = 160
	regress[0].S, regress[1].S = rdf.NewIRI("fresh1"), rdf.NewIRI("fresh2")
	behind := []rdf.Tuple{{Triple: rdf.T("fresh3", "p2", "o"), TS: 120}} // below lastTS (151)
	for name, body := range map[string][]rdf.Tuple{"regression in body": regress, "regression against stream": behind} {
		err := src.EmitBatch(body)
		if err == nil || errors.Is(err, flow.ErrShed) {
			t.Errorf("%s: err = %v, want a plain refusal", name, err)
		}
		if got := stateOf(src); got != before {
			t.Errorf("%s: state %+v, was %+v", name, got, before)
		}
	}

	idle := admissionSource(t, 4, flow.DropNewest, 0)
	idle.SealUpTo(200)
	if err := idle.EmitBatch([]rdf.Tuple{{Triple: rdf.T("s", "p", "o"), TS: 250}, {Triple: rdf.T("s", "p", "o"), TS: 150}}); err == nil {
		t.Error("regression into a sealed batch admitted")
	}
	if err := idle.EmitBatch(batchAt(150, 1)); err == nil || idle.PendingLen() != 0 || idle.ss.NumEntities() != 0 {
		t.Errorf("tuple in a sealed batch: err = %v, pending %d, entities %d", err, idle.PendingLen(), idle.ss.NumEntities())
	}

	// 2 pending + 3 > 4: the whole body sheds, counted as three tuples.
	err := src.EmitBatch(batchAt(300, 3))
	var se *flow.ShedError
	if !errors.As(err, &se) || se.RetryAfter <= 0 {
		t.Fatalf("full buffer: err = %v, want a ShedError with a hint", err)
	}
	if got := stateOf(src); got != before || src.QueueStats().ShedNewest() != 3 {
		t.Fatalf("full buffer: state %+v (was %+v), shedNewest %d", got, before, src.QueueStats().ShedNewest())
	}
	// Five tuples can never fit a four-tuple buffer: an error that says so,
	// not a retry hint.
	err = src.EmitBatch(batchAt(300, 5))
	if err == nil || errors.Is(err, flow.ErrShed) || stateOf(src) != before {
		t.Fatalf("oversize body: err = %v, state %+v (was %+v)", err, stateOf(src), before)
	}
	// What fits is admitted whole, at a timestamp the refusals did not burn.
	if err := src.EmitBatch(batchAt(160, 2)); err != nil {
		t.Fatal(err)
	}
	if got := src.PendingLen(); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
}

func TestEmitBatchDropOldestNeverRefuses(t *testing.T) {
	src := admissionSource(t, 3, flow.DropOldest, 0)
	if err := src.EmitBatch(batchAt(0, 2)); err != nil {
		t.Fatal(err)
	}
	// 2 + 2 > 3: the oldest buffered tuple makes room.
	if err := src.EmitBatch(batchAt(10, 2)); err != nil {
		t.Fatal(err)
	}
	// A body larger than the buffer keeps its own newest three.
	if err := src.EmitBatch(batchAt(20, 5)); err != nil {
		t.Fatal(err)
	}
	b := src.SealUpTo(100)
	if len(b) != 1 || len(b[0].Tuples) != 3 || b[0].Tuples[0].TS != 22 {
		t.Fatalf("sealed %+v, want the three newest tuples (22,23,24)", b)
	}
	if st := src.QueueStats(); st.Admitted() != 9 || st.ShedOldest() != 6 || st.ShedNewest() != 0 {
		t.Fatalf("admitted=%d shedOldest=%d shedNewest=%d, want 9/6/0", st.Admitted(), st.ShedOldest(), st.ShedNewest())
	}
}

func TestEmitBatchBlockWaitsForTheWholeBody(t *testing.T) {
	src := admissionSource(t, 4, flow.Block, 2*time.Second)
	if err := src.EmitBatch(batchAt(0, 3)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- src.EmitBatch(batchAt(100, 3)) }()
	select {
	case err := <-done:
		t.Fatalf("EmitBatch returned %v with no room for the body", err)
	case <-time.After(20 * time.Millisecond):
	}
	src.SealUpTo(100) // drains the first three
	if err := <-done; err != nil {
		t.Fatalf("EmitBatch after the drain: %v", err)
	}
	if got := src.PendingLen(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}

	// No drain: the wait expires and the whole body sheds.
	short := admissionSource(t, 2, flow.Block, 10*time.Millisecond)
	if err := short.EmitBatch(batchAt(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := short.EmitBatch(batchAt(10, 2)); !errors.Is(err, flow.ErrShed) {
		t.Fatalf("EmitBatch on a full buffer = %v, want ErrShed", err)
	}
	if st := short.QueueStats(); st.Timeouts() != 1 || st.ShedNewest() != 2 || short.PendingLen() != 2 {
		t.Fatalf("timeouts=%d shedNewest=%d pending=%d, want 1/2/2", st.Timeouts(), st.ShedNewest(), short.PendingLen())
	}
}
