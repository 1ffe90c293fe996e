// Package tstore implements the time-based transient store of Wukong+S's
// hybrid store (§4.1, Fig. 7). Timing data — stream tuples whose facts are
// only meaningful inside a window, like GPS positions — is held in a sequence
// of transient slices arranged in time order, one slice per stream batch.
// The injector appends new slices at the later side while the garbage
// collector frees expired slices from the earlier side. The store is a ring
// buffer with a fixed, user-defined memory budget; GC runs periodically in
// the background or is forced when the buffer fills.
package tstore

import (
	"sync"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/store"
)

// BatchID numbers a stream's mini-batches, sequential from 1.
type BatchID int64

// predDir keys the per-slice planner statistics.
type predDir struct {
	pid rdf.ID
	dir store.Dir
}

// slice holds the timing data of one stream batch.
type slice struct {
	batch BatchID
	data  map[store.Key][]rdf.ID
	// predVals / predKeys count values and keys per (pid,dir) — the
	// planner's window-scoped cardinality statistics, maintained on append.
	predVals map[predDir]int64
	predKeys map[predDir]int64
	bytes    int64
	// spare is where a key's first values are carved from (at full capacity,
	// so a key appended to again reallocates its own slice): timing tuples
	// arrive one value at a time, and a heap slice per ID would cost more in
	// headers than in data.
	spare []rdf.ID
}

// spareChunk is how many IDs a slice's value chunk holds.
const spareChunk = 64

// sliceBytes approximates the resident size of one (key, vals) pair.
func pairBytes(n int) int64 { return 24 + 8*int64(n) }

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

// Append records timing values for key within a batch. Batches must arrive
// in non-decreasing order (C-SPARQL's time model guarantees monotonic
// timestamps per stream, §4.3 "Consistency guarantee"). Appending to the
// newest batch is allowed repeatedly; appending to an older batch panics.
func (s *Store) Append(batch BatchID, key store.Key, vals []rdf.ID) {
	if len(vals) == 0 {
		return
	}
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
		sl = &slice{
			batch:    batch,
			data:     make(map[store.Key][]rdf.ID),
			predVals: make(map[predDir]int64),
			predKeys: make(map[predDir]int64),
		}
		s.slices = append(s.slices, sl)
	}
	prev := sl.data[key]
	pd := predDir{pid: key.Pid, dir: key.Dir}
	var delta int64
	if prev == nil {
		delta = pairBytes(len(vals))
		sl.predKeys[pd]++
		if len(sl.spare) < len(vals) {
			sl.spare = make([]rdf.ID, max(spareChunk, len(vals)))
		}
		prev, sl.spare = sl.spare[:0:len(vals)], sl.spare[len(vals):]
	} else {
		delta = 8 * int64(len(vals))
	}
	sl.predVals[pd] += int64(len(vals))
	sl.data[key] = append(prev, vals...)
	sl.bytes += delta
	s.curBytes += delta
	s.appends++
	// Ring buffer full: force GC from the earlier side, never touching the
	// newest slice (it is still being written).
	for s.curBytes > s.budgetBytes && len(s.slices) > 1 {
		s.dropOldestLocked()
		s.forcedGCs++
	}
}

// Get returns the values recorded for key across batches in [from, to],
// concatenated in time order. The result is freshly allocated.
func (s *Store) Get(key store.Key, from, to BatchID) []rdf.ID {
	s.gets.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []rdf.ID
	for _, sl := range s.slices {
		if sl.batch < from {
			continue
		}
		if sl.batch > to {
			break
		}
		out = append(out, sl.data[key]...)
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

// BatchEdges returns the (vertex → values) timing pairs batch b recorded for
// (pid, d), or nil when the batch holds none — one walk of the batch's slice,
// used by delta evaluation to fold timing data into a batch edge list. The
// per-slice predKeys counter short-circuits batches without matching keys
// before the slice's data map is scanned.
func (s *Store) BatchEdges(b BatchID, pid rdf.ID, d store.Dir) map[rdf.ID][]rdf.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sl := range s.slices {
		if sl.batch > b {
			break
		}
		if sl.batch != b {
			continue
		}
		pd := predDir{pid: pid, dir: d}
		if sl.predKeys[pd] == 0 {
			return nil
		}
		out := make(map[rdf.ID][]rdf.ID, sl.predKeys[pd])
		for k, vals := range sl.data {
			if k.Pid == pid && k.Dir == d {
				out[k.Vid] = append(out[k.Vid], vals...)
			}
		}
		return out
	}
	return nil
}

// BatchEdgesFrom is BatchEdges on behalf of a worker on node `from`: a
// non-empty remote result costs one one-sided read of the values, mirroring
// GetFrom's pricing.
func (s *Store) BatchEdgesFrom(fab *fabric.Fabric, from, home fabric.NodeID, b BatchID, pid rdf.ID, d store.Dir) map[rdf.ID][]rdf.ID {
	m := s.BatchEdges(b, pid, d)
	if from != home && len(m) > 0 {
		var n int
		for _, vals := range m {
			n += len(vals)
		}
		fab.ReadRemote(from, home, 8*n)
	}
	return m
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
	sl := s.slices[0]
	s.curBytes -= sl.bytes
	s.reclaimed += sl.bytes
	s.slices[0] = nil
	s.slices = s.slices[1:]
	s.dropped++
}

// ScanVertices returns the distinct vertices that carry a pid edge in
// direction d within batches [from, to]. Timing data has no index vertices
// (it expires too fast to be worth indexing), so unbound-pattern seeds over
// timing data scan the window — which is small by construction.
func (s *Store) ScanVertices(pid rdf.ID, d store.Dir, from, to BatchID) []rdf.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := make(map[rdf.ID]bool)
	var out []rdf.ID
	for _, sl := range s.slices {
		if sl.batch < from || sl.batch > to {
			continue
		}
		for k := range sl.data {
			if k.Pid == pid && k.Dir == d && !seen[k.Vid] {
				seen[k.Vid] = true
				out = append(out, k.Vid)
			}
		}
	}
	return out
}

// PredWindowStats returns planner cardinality statistics for (pid, d) over
// batches [from, to]: total values and keys (distinct per batch; summing
// across batches upper-bounds the window-distinct count). Counters are
// maintained on append, so the call never scans timing data.
func (s *Store) PredWindowStats(pid rdf.ID, d store.Dir, from, to BatchID) (values, vertices int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pd := predDir{pid: pid, dir: d}
	for _, sl := range s.slices {
		if sl.batch < from {
			continue
		}
		if sl.batch > to {
			break
		}
		values += sl.predVals[pd]
		vertices += sl.predKeys[pd]
	}
	return values, vertices
}

// Stats describes the store's occupancy.
type Stats struct {
	Slices    int
	Bytes     int64
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
