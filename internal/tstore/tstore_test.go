package tstore

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rdf"
	"repro/internal/store"
)

func key(v rdf.ID) store.Key { return store.EdgeKey(v, 1, store.Out) }

// add appends vals under k to batch b, as one share.
func add(s *Store, b BatchID, k store.Key, vals ...rdf.ID) {
	pairs := make([]Pair, len(vals))
	for i, v := range vals {
		pairs[i] = Pair{Key: k.Ord(), Val: v}
	}
	s.Append(b, pairs)
}

// sliceBytes is the resident size of a slice holding n pairs of one run.
func sliceBytes(n int) int64 {
	return int64(n)*int64(unsafe.Sizeof(Pair{})) + int64(unsafe.Sizeof(store.Run{}))
}

func TestAppendGet(t *testing.T) {
	s := New(0)
	add(s, 1, key(7), 10, 11)
	add(s, 2, key(7), 12)
	add(s, 3, key(8), 13)

	if got := s.Get(key(7), 1, 3); len(got) != 3 || got[2] != 12 {
		t.Errorf("Get window [1,3] = %v", got)
	}
	if got := s.Get(key(7), 2, 3); len(got) != 1 || got[0] != 12 {
		t.Errorf("Get window [2,3] = %v", got)
	}
	if got := s.Get(key(8), 1, 2); len(got) != 0 {
		t.Errorf("Get wrong window = %v", got)
	}
	if got := s.Get(key(9), 1, 3); got != nil {
		t.Errorf("Get missing key = %v", got)
	}
}

func TestAppendEmptyNoop(t *testing.T) {
	s := New(0)
	s.Append(1, nil)
	if st := s.Stats(); st.Slices != 0 || st.Bytes != 0 {
		t.Errorf("empty append created state: %+v", st)
	}
}

func TestAppendSameBatchAccumulates(t *testing.T) {
	s := New(0)
	add(s, 5, key(1), 1)
	add(s, 5, key(1), 2)
	add(s, 5, key(2), 3)
	if st := s.Stats(); st.Slices != 1 {
		t.Errorf("Slices = %d, want 1", st.Slices)
	}
	if got := s.Get(key(1), 5, 5); len(got) != 2 {
		t.Errorf("Get = %v", got)
	}
}

func TestBatchRegressionPanics(t *testing.T) {
	s := New(0)
	add(s, 5, key(1), 1)
	defer func() {
		if recover() == nil {
			t.Error("batch regression did not panic")
		}
	}()
	add(s, 4, key(1), 2)
}

func TestBatches(t *testing.T) {
	s := New(0)
	if o, n := s.Batches(); o != 0 || n != 0 {
		t.Error("empty store reports batches")
	}
	add(s, 3, key(1), 1)
	add(s, 7, key(1), 2)
	if o, n := s.Batches(); o != 3 || n != 7 {
		t.Errorf("Batches = %d, %d", o, n)
	}
}

func TestGC(t *testing.T) {
	s := New(0)
	for b := BatchID(1); b <= 5; b++ {
		add(s, b, key(1), rdf.ID(b))
	}
	s.GC(4)
	if o, n := s.Batches(); o != 4 || n != 5 {
		t.Errorf("after GC: batches %d..%d, want 4..5", o, n)
	}
	if got := s.Get(key(1), 1, 5); len(got) != 2 {
		t.Errorf("Get after GC = %v", got)
	}
	if st := s.Stats(); st.GCRuns != 1 {
		t.Errorf("GCRuns = %d", st.GCRuns)
	}
	s.GC(1) // nothing to free; should not count
	if st := s.Stats(); st.GCRuns != 1 {
		t.Errorf("no-op GC counted: %d", st.GCRuns)
	}
}

func TestForcedGCOnBudget(t *testing.T) {
	// Budget fits two slices of one pair each.
	s := New(2 * sliceBytes(1))
	for b := BatchID(1); b <= 10; b++ {
		add(s, b, key(rdf.ID(b)), 1)
	}
	st := s.Stats()
	if st.Bytes > st.Budget {
		t.Errorf("over budget after forced GC: %+v", st)
	}
	if st.ForcedGCs == 0 {
		t.Error("no forced GCs recorded")
	}
	if _, newest := s.Batches(); newest != 10 {
		t.Errorf("newest batch = %d, want 10 (forced GC must evict oldest)", newest)
	}
}

func TestForcedGCNeverDropsNewest(t *testing.T) {
	s := New(1) // absurdly small budget
	add(s, 1, key(1), 1, 2, 3)
	if st := s.Stats(); st.Slices != 1 {
		t.Errorf("newest slice evicted: %+v", st)
	}
	if got := s.Get(key(1), 1, 1); len(got) != 3 {
		t.Errorf("Get = %v", got)
	}
}

func TestByteAccounting(t *testing.T) {
	s := New(0)
	add(s, 1, key(1), 1, 2)
	want := sliceBytes(2)
	if st := s.Stats(); st.Bytes != want {
		t.Errorf("Bytes = %d, want %d", st.Bytes, want)
	}
	add(s, 1, key(1), 3)
	want = sliceBytes(3)
	if st := s.Stats(); st.Bytes != want {
		t.Errorf("Bytes = %d, want %d", st.Bytes, want)
	}
	s.GC(2)
	if st := s.Stats(); st.Bytes != 0 {
		t.Errorf("Bytes after full GC = %d", st.Bytes)
	}
}

func TestConcurrentReadersWriter(t *testing.T) {
	s := New(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := BatchID(1); b <= 100; b++ {
			add(s, b, key(rdf.ID(b%5)), rdf.ID(b))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = s.Get(key(rdf.ID(i%5)), 1, 100)
				_ = s.Stats()
			}
		}()
	}
	wg.Wait()
}

// Property: Get over [from,to] returns exactly the values appended to
// batches in that range, in order.
func TestWindowProperty(t *testing.T) {
	f := func(deltas []uint8, from8, width8 uint8) bool {
		s := New(0)
		k := key(1)
		b := BatchID(1)
		var batches []BatchID
		for i, d := range deltas {
			b += BatchID(d % 3)
			add(s, b, k, rdf.ID(i+1))
			batches = append(batches, b)
		}
		from := BatchID(from8%16) + 1
		to := from + BatchID(width8%16)
		var want []rdf.ID
		for i, bb := range batches {
			if bb >= from && bb <= to {
				want = append(want, rdf.ID(i+1))
			}
		}
		got := s.Get(k, from, to)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRunsAnswerPredicateReads: a share arrives in any order; the slice's
// runs give each (pid, dir) its vertices in ascending order, its values in
// arrival order per key, and the counts the planner reads.
func TestRunsAnswerPredicateReads(t *testing.T) {
	s := New(0)
	other := store.EdgeKey(4, 2, store.Out)
	s.Append(1, []Pair{
		{Key: key(9).Ord(), Val: 90}, {Key: other.Ord(), Val: 40}, {Key: key(3).Ord(), Val: 30},
		{Key: key(9).Ord(), Val: 91}, {Key: key(3).Ord(), Val: 31},
	})
	add(s, 2, key(5), 50)
	add(s, 2, key(3), 32)
	want := []Pair{{key(3).Ord(), 30}, {key(3).Ord(), 31}, {key(9).Ord(), 90}, {key(9).Ord(), 91}}
	if got := s.BatchEdges(1, 1, store.Out); !slices.Equal(got, want) {
		t.Errorf("BatchEdges = %v, want %v", got, want)
	}
	if got := s.BatchEdges(1, 1, store.In); len(got) != 0 {
		t.Errorf("BatchEdges of an absent run = %v", got)
	}
	if got := s.ScanVertices(1, store.Out, 1, 2); !slices.Equal(got, []rdf.ID{3, 5, 9}) {
		t.Errorf("ScanVertices = %v, want [3 5 9]", got)
	}
	if v, k := s.PredWindowStats(1, store.Out, 1, 2); v != 6 || k != 4 {
		t.Errorf("PredWindowStats = %d values, %d keys; want 6, 4", v, k)
	}
	if got := s.Get(key(3), 1, 2); !slices.Equal(got, []rdf.ID{30, 31, 32}) {
		t.Errorf("Get = %v", got)
	}
}
