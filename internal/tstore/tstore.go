// Package tstore implements the time-based transient store of Wukong+S's
// hybrid store (§4.1, Fig. 7). Timing data — stream tuples whose facts are
// only meaningful inside a window, like GPS positions — is held in a sequence
// of transient slices arranged in time order, one slice per stream batch.
// The injector appends new slices at the later side while the garbage
// collector frees expired slices from the earlier side. The store is a ring
// buffer with a fixed, user-defined memory budget; GC runs periodically in
// the background or is forced when the buffer fills.
//
// A slice does not change once its batch is injected, so it is one array of
// (key, value) pairs in the store's batch order (store.Ord) — a key's values
// side by side, in arrival order — with a run directory per (pid, dir).
package tstore

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/store"
)

// BatchID numbers a stream's mini-batches, sequential from 1.
type BatchID int64

// Pair is one timing value and the key it was recorded under.
type Pair struct {
	Key store.Ord
	Val rdf.ID
}

// slice holds the timing data of one stream batch.
type slice struct {
	batch BatchID
	pairs []Pair // batch order; a key's values in arrival order
	runs  []store.Run
}

// bytes is the slice's resident size: its two arrays.
func (sl *slice) bytes() int64 {
	return int64(cap(sl.pairs))*int64(unsafe.Sizeof(Pair{})) + int64(cap(sl.runs))*int64(unsafe.Sizeof(store.Run{}))
}

// Store is the transient store for one stream on one node. Methods are safe
// for concurrent use.
type Store struct {
	mu          sync.RWMutex
	slices      []*slice // ascending batch order (deque)
	budgetBytes int64
	curBytes    int64
	gcRuns      int64
	forcedGCs   int64
	dropped     int64 // batches freed by forced GC before natural expiry
	appends     int64 // Append calls that stored data
	reclaimed   int64 // bytes freed by GC (natural or forced)

	gets atomic.Int64 // Get calls (atomic: bumped under the read lock)
}

// DefaultBudget is the default per-stream transient-store budget.
const DefaultBudget = 64 << 20 // 64 MiB

// New creates a transient store with the given memory budget in bytes
// (DefaultBudget if ≤ 0).
func New(budgetBytes int64) *Store {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	return &Store{budgetBytes: budgetBytes}
}

// Append records one injection share's timing pairs for a batch. It sorts
// pairs in place (the caller's scratch) into batch order, keeping each key's
// values in arrival order, then merges them into the batch's slice after
// any values an earlier share recorded. Batches must arrive in non-decreasing
// order (C-SPARQL's time model guarantees monotonic timestamps per stream,
// §4.3 "Consistency guarantee"); appending to an older batch panics.
func (s *Store) Append(batch BatchID, pairs []Pair) {
	if len(pairs) == 0 {
		return
	}
	slices.SortStableFunc(pairs, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) })
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.slices)
	var sl *slice
	switch {
	case n > 0 && s.slices[n-1].batch == batch:
		sl = s.slices[n-1]
	case n > 0 && s.slices[n-1].batch > batch:
		panic("tstore: batch regression on append")
	default:
		sl = &slice{batch: batch}
		s.slices = append(s.slices, sl)
	}
	old := sl.pairs
	merged := make([]Pair, 0, len(old)+len(pairs))
	i := 0
	for _, p := range pairs {
		for i < len(old) && old[i].Key <= p.Key {
			merged = append(merged, old[i])
			i++
		}
		merged = append(merged, p)
	}
	merged = append(merged, old[i:]...)
	before := sl.bytes()
	sl.pairs = merged
	sl.runs = store.BuildRuns(sl.runs, merged, func(p *Pair) store.Ord { return p.Key },
		func(*Pair) int64 { return 1 })
	s.curBytes += sl.bytes() - before
	s.appends++
	// Ring buffer full: force GC from the earlier side, never touching the
	// newest slice (it is still being written).
	for s.curBytes > s.budgetBytes && len(s.slices) > 1 {
		s.dropOldestLocked()
		s.forcedGCs++
	}
}

// window returns the slices in [from, to].
func (s *Store) window(from, to BatchID) []*slice {
	i := sort.Search(len(s.slices), func(i int) bool { return s.slices[i].batch >= from })
	j := i
	for j < len(s.slices) && s.slices[j].batch <= to {
		j++
	}
	return s.slices[i:j]
}

// Get returns the values recorded for key across batches in [from, to],
// concatenated in time order. The result is freshly allocated.
func (s *Store) Get(key store.Key, from, to BatchID) []rdf.ID {
	s.gets.Add(1)
	k := key.Ord()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []rdf.ID
	for _, sl := range s.window(from, to) {
		for i := sort.Search(len(sl.pairs), func(i int) bool { return sl.pairs[i].Key >= k }); i < len(sl.pairs) && sl.pairs[i].Key == k; i++ {
			out = append(out, sl.pairs[i].Val)
		}
	}
	return out
}

// GetFrom is Get on behalf of a worker on node `from` against a store living
// on node `home`: a non-empty remote result costs one one-sided read of the
// values.
func (s *Store) GetFrom(fab *fabric.Fabric, from, home fabric.NodeID, key store.Key, lo, hi BatchID) []rdf.ID {
	vals := s.Get(key, lo, hi)
	if len(vals) > 0 {
		fab.ReadRemote(from, home, 8*len(vals))
	}
	return vals
}

// BatchEdges returns a copy of the timing pairs batch b recorded for
// (pid, d), in vertex order — one run of the batch's slice, used by delta
// evaluation to fold timing data into a batch edge list.
func (s *Store) BatchEdges(b BatchID, pid rdf.ID, d store.Dir) []Pair {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w := s.window(b, b)
	if len(w) == 0 {
		return nil
	}
	r := store.FindRun(w[0].runs, pid, d)
	return slices.Clone(w[0].pairs[r.Lo:r.Hi])
}

// BatchEdgesFrom is BatchEdges on behalf of a worker on node `from`: a
// non-empty remote result costs one one-sided read of the values, mirroring
// GetFrom's pricing.
func (s *Store) BatchEdgesFrom(fab *fabric.Fabric, from, home fabric.NodeID, b BatchID, pid rdf.ID, d store.Dir) []Pair {
	ps := s.BatchEdges(b, pid, d)
	if from != home && len(ps) > 0 {
		fab.ReadRemote(from, home, 8*len(ps))
	}
	return ps
}

// Batches returns the range of batches currently held, or (0,0) when empty.
func (s *Store) Batches() (oldest, newest BatchID) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.slices) == 0 {
		return 0, 0
	}
	return s.slices[0].batch, s.slices[len(s.slices)-1].batch
}

// GC frees all slices with batch < before. The engine invokes it once every
// registered window has slid past those batches.
func (s *Store) GC(before BatchID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	freed := false
	for len(s.slices) > 0 && s.slices[0].batch < before {
		s.dropOldestLocked()
		freed = true
	}
	if freed {
		s.gcRuns++
	}
}

func (s *Store) dropOldestLocked() {
	n := s.slices[0].bytes()
	s.curBytes -= n
	s.reclaimed += n
	s.slices[0] = nil
	s.slices = s.slices[1:]
	s.dropped++
}

// ScanVertices returns the distinct vertices that carry a pid edge in
// direction d within batches [from, to], in ascending order. Timing data has
// no index vertices (it expires too fast to be worth indexing), so
// unbound-pattern seeds over timing data read the window's runs — which are
// small by construction.
func (s *Store) ScanVertices(pid rdf.ID, d store.Dir, from, to BatchID) []rdf.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []rdf.ID
	runs := 0
	for _, sl := range s.window(from, to) {
		r := store.FindRun(sl.runs, pid, d)
		if r.Vertices == 0 {
			continue
		}
		runs++
		for i, p := range sl.pairs[r.Lo:r.Hi] {
			if i == 0 || sl.pairs[int(r.Lo)+i-1].Key != p.Key {
				out = append(out, p.Key.Vid())
			}
		}
	}
	if runs > 1 {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// PredWindowStats returns planner cardinality statistics for (pid, d) over
// batches [from, to]: total values and keys (distinct per batch; summing
// across batches upper-bounds the window-distinct count). Both are counted
// when a slice's run directory is built, so the call never scans timing data.
func (s *Store) PredWindowStats(pid rdf.ID, d store.Dir, from, to BatchID) (values, vertices int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sl := range s.window(from, to) {
		r := store.FindRun(sl.runs, pid, d)
		values += r.Values
		vertices += int64(r.Vertices)
	}
	return values, vertices
}

// Stats describes the store's occupancy.
type Stats struct {
	Slices    int
	Bytes     int64 // the slices' arrays
	Budget    int64
	GCRuns    int64
	ForcedGCs int64
	Dropped   int64
	Appends   int64 // Append calls that stored data
	Gets      int64 // Get calls
	Reclaimed int64 // bytes freed by GC (natural or forced)
}

// Stats returns a snapshot of occupancy counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Slices:    len(s.slices),
		Bytes:     s.curBytes,
		Budget:    s.budgetBytes,
		GCRuns:    s.gcRuns,
		ForcedGCs: s.forcedGCs,
		Dropped:   s.dropped,
		Appends:   s.appends,
		Gets:      s.gets.Load(),
		Reclaimed: s.reclaimed,
	}
}
