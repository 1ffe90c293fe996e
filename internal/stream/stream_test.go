package stream

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/sindex"
	"repro/internal/store"
	"repro/internal/strserver"
	"repro/internal/tstore"
)

func newSource(t *testing.T, cfg Config, ss *strserver.Server) *Source {
	t.Helper()
	s, err := NewSource(cfg, ss)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tupleAt(ts rdf.Timestamp, s, p, o string) rdf.Tuple {
	return rdf.Tuple{Triple: rdf.T(s, p, o), TS: ts}
}

func TestSourceValidation(t *testing.T) {
	ss := strserver.New()
	if _, err := NewSource(Config{BatchInterval: time.Second}, ss); err == nil {
		t.Error("nameless source accepted")
	}
	if _, err := NewSource(Config{Name: "s"}, ss); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestBatchOf(t *testing.T) {
	ss := strserver.New()
	s := newSource(t, Config{Name: "s", BatchInterval: 100 * time.Millisecond}, ss)
	cases := map[rdf.Timestamp]tstore.BatchID{0: 1, 99: 1, 100: 2, 802: 9}
	for ts, want := range cases {
		if got := s.BatchOf(ts); got != want {
			t.Errorf("BatchOf(%d) = %d, want %d", ts, got, want)
		}
	}
	if got := s.BatchEnd(1); got != 100 {
		t.Errorf("BatchEnd(1) = %d", got)
	}
}

func TestSealUpTo(t *testing.T) {
	ss := strserver.New()
	s := newSource(t, Config{Name: "s", BatchInterval: 100 * time.Millisecond}, ss)
	for _, ts := range []rdf.Timestamp{10, 50, 120, 130, 350} {
		if err := s.Emit(tupleAt(ts, "a", "p", "b")); err != nil {
			t.Fatal(err)
		}
	}
	batches := s.SealUpTo(299)
	if len(batches) != 2 {
		t.Fatalf("sealed %d batches, want 2", len(batches))
	}
	if batches[0].ID != 1 || len(batches[0].Tuples) != 2 {
		t.Errorf("batch 1 = %+v", batches[0])
	}
	if batches[1].ID != 2 || len(batches[1].Tuples) != 2 {
		t.Errorf("batch 2 = %+v", batches[1])
	}
	if s.SealedTo() != 2 {
		t.Errorf("SealedTo = %d", s.SealedTo())
	}
	// Sealing again at the same point yields nothing.
	if more := s.SealUpTo(299); more != nil {
		t.Errorf("re-seal yielded %v", more)
	}
	// Empty batch 3 is produced so the coordinator can advance.
	batches = s.SealUpTo(400)
	if len(batches) != 2 || len(batches[0].Tuples) != 0 || len(batches[1].Tuples) != 1 {
		t.Errorf("batches 3,4 = %+v", batches)
	}
}

func TestEmitMonotonicity(t *testing.T) {
	ss := strserver.New()
	s := newSource(t, Config{Name: "s", BatchInterval: 100 * time.Millisecond}, ss)
	if err := s.Emit(tupleAt(500, "a", "p", "b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Emit(tupleAt(400, "a", "p", "b")); err == nil {
		t.Error("timestamp regression accepted")
	}
	s.SealUpTo(600)
	if err := s.Emit(tupleAt(550, "a", "p", "b")); err == nil {
		t.Error("tuple for sealed batch accepted")
	}
}

func TestTimingClassification(t *testing.T) {
	ss := strserver.New()
	s := newSource(t, Config{
		Name:             "s",
		BatchInterval:    100 * time.Millisecond,
		TimingPredicates: []string{"ga"},
	}, ss)
	s.Emit(tupleAt(10, "T-15", "ga", "pos"))
	s.Emit(tupleAt(20, "Logan", "po", "T-15"))
	b := s.SealUpTo(100)[0]
	if !b.Tuples[0].Timing || b.Tuples[1].Timing {
		t.Errorf("classification = %+v", b.Tuples)
	}
}

func TestDispatchPartitionsBySide(t *testing.T) {
	fab := fabric.New(fabric.DefaultConfig(4))
	ss := strserver.New()
	var tuples []Tuple
	for i := 0; i < 50; i++ {
		enc := must(ss.EncodeTuple(tupleAt(rdf.Timestamp(i), string(rune('a'+i%20)), "p", string(rune('A'+i%20)))))
		tuples = append(tuples, Tuple{EncodedTuple: enc})
	}
	work := Dispatch(fab, 0, Batch{ID: 1, Tuples: tuples})
	subj, obj := 0, 0
	for n, w := range work {
		subj += len(w.SubjectSide)
		obj += len(w.ObjectSide)
		for _, t := range w.SubjectSide {
			if fab.HomeOf(uint64(t.S)) != fabric.NodeID(n) {
				t2 := t
				_ = t2
				panic("misrouted subject side")
			}
		}
		for _, t := range w.ObjectSide {
			if fab.HomeOf(uint64(t.O)) != fabric.NodeID(n) {
				panic("misrouted object side")
			}
		}
	}
	if subj != 50 || obj != 50 {
		t.Errorf("sides = %d, %d; want 50, 50", subj, obj)
	}
	if fab.Stats().RPCs == 0 {
		t.Error("dispatch charged no network traffic")
	}
}

func TestInjectNodeEndToEnd(t *testing.T) {
	fab := fabric.New(fabric.DefaultConfig(2))
	ss := strserver.New()
	st := store.NewSharded(fab, 0)
	ix := sindex.New(0)
	transients := []*tstore.Store{tstore.New(0), tstore.New(0)}

	src := newSource(t, Config{
		Name:             "s",
		BatchInterval:    100 * time.Millisecond,
		TimingPredicates: []string{"ga"},
	}, ss)
	src.Emit(tupleAt(10, "Logan", "po", "T-15"))
	src.Emit(tupleAt(20, "T-15", "ga", "pos1"))
	batch := src.SealUpTo(100)[0]

	work := Dispatch(fab, 0, batch)
	var stats InjectStats
	for n := range work {
		stats.Add(InjectNode(fabric.NodeID(n), work[n], batch.ID, 1, InjectTarget{
			Store: st, Index: ix, Transient: transients[n],
		}))
	}
	if stats.TimelessTuples != 1 || stats.TimingTuples != 1 {
		t.Errorf("stats = %+v", stats)
	}

	logan := ss.InternEntity(rdf.NewIRI("Logan"))
	t15 := ss.InternEntity(rdf.NewIRI("T-15"))
	po, _ := ss.LookupPredicate("po")
	ga, _ := ss.LookupPredicate("ga")

	// Timeless tuple visible in the persistent store at SN 1.
	if got := st.ShardOf(logan).Get(store.EdgeKey(logan, po, store.Out), 1); len(got) != 1 || got[0] != t15 {
		t.Errorf("persistent out-edge = %v", got)
	}
	// Reverse edge present on the object's home.
	if got := st.ShardOf(t15).Get(store.EdgeKey(t15, po, store.In), 1); len(got) != 1 || got[0] != logan {
		t.Errorf("persistent in-edge = %v", got)
	}
	// Stream index covers the batch.
	if sp := ix.Lookup(store.EdgeKey(logan, po, store.Out), 1, 1); len(sp) != 1 {
		t.Errorf("stream index spans = %v", sp)
	}
	// Timing tuple is in the transient store of T-15's home, not the KV.
	home := st.HomeOf(t15)
	if got := transients[home].Get(store.EdgeKey(t15, ga, store.Out), 1, 1); len(got) != 1 {
		t.Errorf("transient = %v", got)
	}
	if got := st.ShardOf(t15).Get(store.EdgeKey(t15, ga, store.Out), 99); len(got) != 0 {
		t.Errorf("timing data leaked into KV: %v", got)
	}
	// Planner stats were maintained.
	if edges, subj, _ := st.Stats(po); edges != 1 || subj != 1 {
		t.Errorf("stats(po) = %d, %d", edges, subj)
	}
}

func TestInjectEmptyBatchKeepsIndexTimeline(t *testing.T) {
	fab := fabric.New(fabric.DefaultConfig(1))
	st := store.NewSharded(fab, 0)
	ix := sindex.New(0)
	ts := tstore.New(0)
	InjectNode(0, NodeWork{}, 7, 1, InjectTarget{Store: st, Index: ix, Transient: ts})
	if o, n := ix.Batches(); o != 7 || n != 7 {
		t.Errorf("index batches = %d..%d", o, n)
	}
}

func TestInjectReplicationCharged(t *testing.T) {
	fab := fabric.New(fabric.DefaultConfig(4))
	ss := strserver.New()
	st := store.NewSharded(fab, 0)
	ix := sindex.New(0)
	for n := 0; n < 4; n++ {
		ix.Replicate(fabric.NodeID(n))
	}
	enc := must(ss.EncodeTuple(tupleAt(1, "a", "p", "b")))
	w := NodeWork{SubjectSide: []Tuple{{EncodedTuple: enc}}}
	home := fab.HomeOf(uint64(enc.S))
	fab.ResetStats()
	InjectNode(home, w, 1, 1, InjectTarget{Store: st, Index: ix, Transient: tstore.New(0)})
	if got := fab.Stats().RPCs; got != 3 {
		t.Errorf("replication RPCs = %d, want 3", got)
	}
}
