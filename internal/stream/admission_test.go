package stream

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// admissionSource builds a 100ms-batch source bounded at maxPending.
func admissionSource(t *testing.T, maxPending int) *Source {
	t.Helper()
	src, err := NewSource(Config{
		Name:          "S",
		BatchInterval: 100 * time.Millisecond,
		MaxPending:    maxPending,
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
	src := admissionSource(t, 3)
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

func TestAdmissionUnboundedByDefault(t *testing.T) {
	src := admissionSource(t, 0)
	for i := 0; i < 1000; i++ {
		if err := emitAt(t, src, rdf.Timestamp(i/20)); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	st := src.QueueStats()
	if st.ShedNewest() != 0 || st.Capacity() != 0 {
		t.Fatalf("unbounded source shed %d (capacity %d)", st.ShedNewest(), st.Capacity())
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

// emitBody sends tuples to src as one EMIT body, one rendered line each.
func emitBody(src *Source, tuples []rdf.Tuple) error {
	var b []byte
	for _, t := range tuples {
		b = append(rdf.AppendTuple(b, t), '\n')
	}
	_, err := src.EmitBody(string(b))
	return err
}

// sourceState is everything a refused EmitBody must leave alone.
type sourceState struct {
	pending, entities, predicates int
	admitted                      int64
	keys                          string
}

func stateOf(src *Source) sourceState {
	st := src.QueueStats()
	return sourceState{src.PendingLen(), src.ss.NumEntities(), src.ss.NumPredicates(), st.Admitted(),
		strings.Join(src.ss.EntityKeys(), "\n")}
}

// TestEmitBodyAllOrNothing: every way EmitBody can refuse — a malformed
// line anywhere, order inside the body, order against the stream, a sealed
// batch, a full buffer, a body that could never fit, predicates past the
// predicate space — refuses the whole body and leaves the adaptor and the
// string server as they were, entity keys included; shed counters move in
// tuples.
func TestEmitBodyAllOrNothing(t *testing.T) {
	src := admissionSource(t, 4)
	if err := emitBody(src, batchAt(150, 2)); err != nil {
		t.Fatal(err)
	}
	src.SealUpTo(100) // batch 1 ([0,100)) is closed; the two tuples stay pending
	before := stateOf(src)

	regress := batchAt(250, 2)
	regress[1].TS = 160
	regress[0].S, regress[1].S = rdf.NewIRI("fresh1"), rdf.NewIRI("fresh2")
	behind := []rdf.Tuple{{Triple: rdf.T("fresh3", "p2", "o"), TS: 120}} // below lastTS (151)
	for name, body := range map[string][]rdf.Tuple{"regression in body": regress, "regression against stream": behind} {
		err := emitBody(src, body)
		if err == nil || errors.Is(err, flow.ErrShed) {
			t.Errorf("%s: err = %v, want a plain refusal", name, err)
		}
		if got := stateOf(src); got != before {
			t.Errorf("%s: state %+v, was %+v", name, got, before)
		}
	}
	for _, body := range []string{
		"<fresh4> <p3> <o> . @300\n<fresh5> <p> <o> . @301\n<a> <p>\n",
		"<a> <p> . @300\n<fresh6> <p> <o> . @301\n",
	} {
		if _, err := src.EmitBody(body); err == nil || !strings.HasPrefix(err.Error(), "line ") {
			t.Errorf("%q: err = %v, want a line error", body, err)
		}
		if got := stateOf(src); got != before {
			t.Errorf("%q: state %+v, was %+v", body, got, before)
		}
	}

	idle := admissionSource(t, 4)
	idle.SealUpTo(200)
	if err := emitBody(idle, []rdf.Tuple{{Triple: rdf.T("s", "p", "o"), TS: 250}, {Triple: rdf.T("s", "p", "o"), TS: 150}}); err == nil {
		t.Error("regression into a sealed batch admitted")
	}
	if err := emitBody(idle, batchAt(150, 1)); err == nil || idle.PendingLen() != 0 || idle.ss.NumEntities() != 0 {
		t.Errorf("tuple in a sealed batch: err = %v, pending %d, entities %d", err, idle.PendingLen(), idle.ss.NumEntities())
	}

	// 2 pending + 3 > 4: the whole body sheds, counted as three tuples.
	err := emitBody(src, batchAt(300, 3))
	var se *flow.ShedError
	if !errors.As(err, &se) || se.RetryAfter <= 0 {
		t.Fatalf("full buffer: err = %v, want a ShedError with a hint", err)
	}
	if got := stateOf(src); got != before || src.QueueStats().ShedNewest() != 3 {
		t.Fatalf("full buffer: state %+v (was %+v), shedNewest %d", got, before, src.QueueStats().ShedNewest())
	}
	// Five tuples can never fit a four-tuple buffer: an error that says so,
	// not a retry hint.
	err = emitBody(src, batchAt(300, 5))
	if err == nil || errors.Is(err, flow.ErrShed) || stateOf(src) != before {
		t.Fatalf("oversize body: err = %v, state %+v (was %+v)", err, stateOf(src), before)
	}
	// Two new predicates with one ID left: neither is interned, and neither
	// are the body's new entities.
	fill := make([]rdf.ID, int(strserver.MaxPredicateID)-1-src.ss.NumPredicates())
	if err := src.ss.InternPredicates(fill, func(i int) string { return "fill/" + strconv.Itoa(i) }); err != nil {
		t.Fatal(err)
	}
	before = stateOf(src)
	full := []rdf.Tuple{{Triple: rdf.T("fresh7", "new1", "o"), TS: 160}, {Triple: rdf.T("fresh8", "new2", "o"), TS: 161}}
	if err := emitBody(src, full); !errors.Is(err, strserver.ErrPredicateSpace) || stateOf(src) != before {
		t.Fatalf("predicates past the space: err = %v, state %+v (was %+v)", err, stateOf(src), before)
	}
	// What fits is admitted whole, at a timestamp the refusals did not burn.
	if err := emitBody(src, batchAt(160, 2)); err != nil {
		t.Fatal(err)
	}
	if got := src.PendingLen(); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
}

// TestEmitBodyAssignsIDsInTupleOrder: a body of known and new terms, some
// repeated within it, gets the IDs that interning its predicates and then
// each tuple's subject and object one by one assigns on a twin server.
func TestEmitBodyAssignsIDsInTupleOrder(t *testing.T) {
	src := admissionSource(t, 0)
	twin := strserver.New()
	for _, ss := range []*strserver.Server{src.ss, twin} {
		ss.InternEntity(rdf.NewIRI("known"))
		ss.InternEntity(rdf.NewLiteral("7"))
		if _, err := ss.InternPredicate("po"); err != nil {
			t.Fatal(err)
		}
	}
	body := []rdf.Tuple{
		{Triple: rdf.Triple{S: rdf.NewIRI("new1"), P: rdf.NewIRI("po"), O: rdf.NewIRI("known")}, TS: 1},
		{Triple: rdf.Triple{S: rdf.NewBlank("b"), P: rdf.NewIRI("q"), O: rdf.NewIntLiteral(7)}, TS: 2},
		{Triple: rdf.Triple{S: rdf.NewIRI("known"), P: rdf.NewIRI("r"), O: rdf.NewIRI("new1")}, TS: 2},
		{Triple: rdf.Triple{S: rdf.NewLiteral("7"), P: rdf.NewIRI("q"), O: rdf.NewTypedLiteral("x\ny", "dt")}, TS: 3},
		{Triple: rdf.Triple{S: rdf.NewBlank("b"), P: rdf.NewIRI("po"), O: rdf.NewBlank("b")}, TS: 3},
	}
	if err := emitBody(src, body); err != nil {
		t.Fatal(err)
	}
	pids := make([]rdf.ID, len(body))
	if err := twin.InternPredicates(pids, func(i int) string { return body[i].P.Value }); err != nil {
		t.Fatal(err)
	}
	var want []strserver.EncodedTuple
	for i, tu := range body {
		want = append(want, strserver.EncodedTuple{EncodedTriple: twin.EncodeWith(tu.Triple, pids[i]), TS: tu.TS})
	}
	b := src.SealUpTo(100)
	if len(b) != 1 || len(b[0].Tuples) != len(want) {
		t.Fatalf("sealed %+v, want one batch of %d", b, len(want))
	}
	for i, tu := range b[0].Tuples {
		if tu.EncodedTuple != want[i] {
			t.Errorf("tuple %d = %+v, the twin assigns %+v", i, tu.EncodedTuple, want[i])
		}
	}
	if got, want := strings.Join(src.ss.EntityKeys(), "|"), strings.Join(twin.EntityKeys(), "|"); got != want {
		t.Errorf("entity keys %q, the twin has %q", got, want)
	}
	if got, want := strings.Join(src.ss.PredicateIRIs(), "|"), strings.Join(twin.PredicateIRIs(), "|"); got != want {
		t.Errorf("predicates %q, the twin has %q", got, want)
	}
}

// emitEntries emits one tuple through each entry point that admits tuples.
var emitEntries = map[string]func(*Source, rdf.Tuple) error{
	"Emit":     (*Source).Emit,
	"EmitBody": func(src *Source, tu rdf.Tuple) error { return emitBody(src, []rdf.Tuple{tu}) },
}

// TestRefusedEmitChangesNothing: Emit and EmitBody pass one admission check.
// An emit refused for order, for a sealed batch or for room (drop-newest, the
// one answer to a full buffer) leaves the stream's clock, its buffer, its
// admit count and the string server as they were, and a shed counts once per
// tuple. So a tuple shed at 500 does not move the clock: one at 400 is
// admitted once the buffer drains.
func TestRefusedEmitChangesNothing(t *testing.T) {
	for ename, emit := range emitEntries {
		t.Run(ename+"/drop-newest", func(t *testing.T) {
			src := admissionSource(t, 2)
			for _, tu := range batchAt(150, 2) {
				if err := emit(src, tu); err != nil {
					t.Fatal(err)
				}
			}
			src.SealUpTo(100)
			type state struct {
				sourceState
				lastTS rdf.Timestamp
			}
			snap := func() state { return state{stateOf(src), src.lastTS} }
			before := snap()
			fresh := func(name string, ts rdf.Timestamp) rdf.Tuple {
				return rdf.Tuple{Triple: rdf.T(name, "p", "o"), TS: ts}
			}
			for _, tu := range []rdf.Tuple{fresh("sealed", 50), fresh("behind", 140)} {
				if err := emit(src, tu); err == nil || errors.Is(err, flow.ErrShed) {
					t.Errorf("emit at %d: err = %v, want a plain refusal", tu.TS, err)
				}
				if got := snap(); got != before {
					t.Errorf("refused emit at %d: state %+v, was %+v", tu.TS, got, before)
				}
			}
			if err := emit(src, fresh("late", 500)); !errors.Is(err, flow.ErrShed) {
				t.Fatalf("emit on a full buffer = %v, want ErrShed", err)
			}
			if got := snap(); got != before || src.QueueStats().ShedNewest() != 1 {
				t.Fatalf("shed emit: state %+v (was %+v), shedNewest %d", got, before, src.QueueStats().ShedNewest())
			}
			src.SealUpTo(200)
			if err := emit(src, fresh("early", 400)); err != nil {
				t.Fatalf("emit at 400 after a shed at 500: %v", err)
			}
		})
	}
}
