// Package wukongext implements Wukong/Ext, the paper's intuitive extension
// of the static RDF store Wukong (Table 4, §6.2): streaming data — timing
// and timeless alike — is inserted directly into the underlying key/value
// store together with its timestamps.
//
// The two structural consequences the paper measures:
//
//   - Extracting a stream window is inefficient: without a stream index,
//     every window read walks the key's whole value list and filters by
//     timestamp, so the cost grows with all data ever absorbed.
//   - Garbage collection is absent: deletion is costly once values and
//     timestamps are coupled, so stale timestamps accumulate, inflating
//     memory and scan time as the stream runs.
package wukongext

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/strserver"
)

// tsVal is one value element with its timestamp — the coupling that makes
// GC "costly and non-trivial" in this design.
type tsVal struct {
	val rdf.ID
	ts  rdf.Timestamp
}

// Store is the timestamped sharded KV store.
type Store struct {
	fab    *fabric.Fabric
	shards []*shard

	statMu sync.RWMutex
	preds  map[rdf.ID]*predStat
}

type predStat struct{ edges, subjects, objects int64 }

type shard struct {
	mu sync.RWMutex
	kv map[store.Key][]tsVal
}

// New creates an empty Wukong/Ext store over a fabric.
func New(fab *fabric.Fabric) *Store {
	s := &Store{fab: fab, preds: make(map[rdf.ID]*predStat)}
	for n := 0; n < fab.Nodes(); n++ {
		s.shards = append(s.shards, &shard{kv: make(map[store.Key][]tsVal)})
	}
	return s
}

// Fabric returns the underlying fabric.
func (s *Store) Fabric() *fabric.Fabric { return s.fab }

func (s *Store) homeOf(vid rdf.ID) fabric.NodeID { return s.fab.HomeOf(uint64(vid)) }

// append writes one value element; on a key's first value it also registers
// the vertex in this shard's partition of the predicate's index vertex
// (index vertices are partitioned by the indexed vertex's home, as in
// Wukong).
func (s *Store) append(key store.Key, v tsVal) {
	sh := s.shards[s.homeOf(key.Vid)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prev := sh.kv[key]
	if len(prev) == 0 && !key.IsIndex() {
		idx := store.IndexKey(key.Pid, key.Dir)
		sh.kv[idx] = append(sh.kv[idx], tsVal{val: key.Vid, ts: v.ts})
	}
	sh.kv[key] = append(prev, v)
}

func (s *Store) pstat(pid rdf.ID) *predStat {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	st, ok := s.preds[pid]
	if !ok {
		st = &predStat{}
		s.preds[pid] = st
	}
	return st
}

// Insert adds one triple at the given timestamp (0 for base data).
func (s *Store) Insert(t strserver.EncodedTriple, ts rdf.Timestamp) {
	outKey := store.EdgeKey(t.S, t.P, store.Out)
	inKey := store.EdgeKey(t.O, t.P, store.In)
	sh := s.shards[s.homeOf(t.S)]
	sh.mu.RLock()
	newSubj := len(sh.kv[outKey]) == 0
	sh.mu.RUnlock()
	oh := s.shards[s.homeOf(t.O)]
	oh.mu.RLock()
	newObj := len(oh.kv[inKey]) == 0
	oh.mu.RUnlock()
	s.append(outKey, tsVal{val: t.O, ts: ts})
	s.append(inKey, tsVal{val: t.S, ts: ts})
	st := s.pstat(t.P)
	s.statMu.Lock()
	st.edges++
	if newSubj {
		st.subjects++
	}
	if newObj {
		st.objects++
	}
	s.statMu.Unlock()
}

// LoadBase bulk-loads the initial dataset at timestamp 0.
func (s *Store) LoadBase(triples []strserver.EncodedTriple) {
	for _, t := range triples {
		s.Insert(t, 0)
	}
}

// PredStats implements plan.StatsProvider's cardinality part.
func (s *Store) PredStats(pid rdf.ID) (int64, int64, int64) {
	s.statMu.RLock()
	defer s.statMu.RUnlock()
	st, ok := s.preds[pid]
	if !ok {
		return 0, 0, 0
	}
	return st.edges, st.subjects, st.objects
}

// WindowFraction implements plan.StatsProvider. Wukong/Ext has no separate
// stream statistics — windows are filtered scans of the whole value, so the
// planner sees no selectivity benefit (part of why its plans degrade).
func (s *Store) WindowFraction(g sparql.GraphRef) float64 { return 1 }

// MemoryBytes reports the resident value bytes: 16 per element (value +
// timestamp), versus 8 in Wukong+S's persistent store. Timestamps never die.
func (s *Store) MemoryBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, vals := range sh.kv {
			n += 24 + 16*int64(len(vals))
		}
		sh.mu.RUnlock()
	}
	return n
}

// scan returns key's values with timestamps in [from, to], walking the whole
// value list — the slow path the stream index avoids (§6.2: "extracting data
// in a certain time period is inefficient without indexing").
func (s *Store) scan(reqNode fabric.NodeID, key store.Key, from, to rdf.Timestamp) []rdf.ID {
	home := s.homeOf(key.Vid)
	sh := s.shards[home]
	sh.mu.RLock()
	vals := sh.kv[key]
	var out []rdf.ID
	for _, v := range vals {
		if v.ts >= from && v.ts <= to {
			out = append(out, v.val)
		}
	}
	sh.mu.RUnlock()
	s.fab.ReadRemote(reqNode, home, 16)
	s.fab.ReadRemote(reqNode, home, 16*len(vals)) // whole value crosses the wire
	return out
}

// Access adapts the store to the executor for a time range. A full-history
// access (one-shot) uses from=0, to=MaxInt64.
type Access struct {
	Store    *Store
	From, To rdf.Timestamp
}

// FullRange covers all data regardless of timestamp.
func FullRange(s *Store) Access {
	return Access{Store: s, From: 0, To: 1<<62 - 1}
}

// Neighbors implements exec.Access by a filtered scan per key.
func (a Access) Neighbors(from fabric.NodeID, keys []store.Key, out [][]rdf.ID) {
	for i, k := range keys {
		out[i] = a.Store.scan(from, k, a.From, a.To)
	}
}

// Candidates implements exec.Access over the timestamped index vertices.
func (a Access) Candidates(from fabric.NodeID, pid rdf.ID, d store.Dir) []rdf.ID {
	var out []rdf.ID
	for n := 0; n < a.Store.fab.Nodes(); n++ {
		a.Store.fab.ReadRemote(from, fabric.NodeID(n), 16)
		out = append(out, a.LocalCandidates(fabric.NodeID(n), pid, d)...)
	}
	return out
}

// LocalCandidates returns node n's index partition filtered by time.
// The index vertex records first-sight timestamps only, so a window scan
// must still check every candidate's edges — include all candidates whose
// first sight is not after the window.
func (a Access) LocalCandidates(n fabric.NodeID, pid rdf.ID, d store.Dir) []rdf.ID {
	sh := a.Store.shards[n]
	key := store.IndexKey(pid, d)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []rdf.ID
	for _, v := range sh.kv[key] {
		if a.Store.homeOf(v.val) != n {
			continue
		}
		if v.ts <= a.To {
			out = append(out, v.val)
		}
	}
	return out
}

var _ exec.Access = Access{}
