// Package store implements the continuous persistent store of Wukong+S's
// hybrid store (§4.1): a sharded key/value graph store in the style of Wukong
// (OSDI'16), extended with incremental key/value update and bounded snapshot
// scalarization (§4.3).
//
// Layout follows the paper's Fig. 6: the key combines a vertex ID, an edge
// (predicate) ID, and an in/out direction — [vid|pid|dir] — and the value is
// the list of neighboring vertex IDs. Index vertices (pseudo vid 0) provide a
// reverse mapping from an edge label to all normal vertices carrying it.
//
// A shard stores each key as one 64-bit word, vid<<18 | pid<<1 | dir: the
// string server's 46-bit entity and 17-bit predicate spaces fill it exactly.
// Each of a shard's stripes keeps a flat open-addressed table of 16-byte
// cells, the word and the slot of its entry in the stripe's slab, four to a
// cache line: a lookup reads one line in the common case, as the paper's
// hash bucket does. The slab is a list of fixed-size chunks of entries that
// never move, so a key costs no heap object of its own: its table cell holds
// no pointer, and its 32-byte entry, with its first two snapshot boundaries
// inline, shares a chunk with 254 others.
//
// Values are append-only. Each key keeps a bounded list of snapshot
// boundaries {SN, end}: a one-shot query reading at stable snapshot number s
// sees the value prefix up to the newest boundary with SN ≤ s. Because stream
// batches with the same SN are inserted consecutively (§4.3), one boundary
// per snapshot suffices — this is the storage half of bounded snapshot
// scalarization. Boundaries older than the coordinator's minimum active SN
// are pruned, so per-key metadata stays at O(MaxSnapshots).
package store

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// Dir is the edge direction component of a key.
type Dir uint8

const (
	// In selects edges arriving at the vertex (the vertex is the object).
	In Dir = 0
	// Out selects edges leaving the vertex (the vertex is the subject).
	Out Dir = 1
)

func (d Dir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Reverse returns the opposite direction.
func (d Dir) Reverse() Dir { return 1 - d }

// Key is a store key [vid|pid|dir] per Fig. 6.
type Key struct {
	Vid rdf.ID
	Pid rdf.ID
	Dir Dir
}

func (k Key) String() string {
	return fmt.Sprintf("[%d|%d|%d]", k.Vid, k.Pid, k.Dir)
}

// EdgeKey returns the key addressing vid's pid-neighbors in direction d.
func EdgeKey(vid, pid rdf.ID, d Dir) Key { return Key{Vid: vid, Pid: pid, Dir: d} }

// IndexKey returns the index-vertex key listing all normal vertices that
// carry a pid edge in direction d (e.g. [0|po|in] lists all posts).
func IndexKey(pid rdf.ID, d Dir) Key {
	return Key{Vid: strserver.ReservedIndexID, Pid: pid, Dir: d}
}

// PredIndexKey returns the key of a vertex's predicate index: the list of
// predicate IDs the vertex carries edges for in direction d (Wukong's
// per-vertex predicate index, [vid|0|d]). Variable-predicate patterns read
// it to enumerate a bound vertex's predicates.
func PredIndexKey(vid rdf.ID, d Dir) Key {
	return Key{Vid: vid, Pid: 0, Dir: d}
}

// IsPredIndex reports whether the key addresses a vertex's predicate index.
func (k Key) IsPredIndex() bool { return k.Pid == 0 && k.Vid != strserver.ReservedIndexID }

// IsIndex reports whether the key addresses an index vertex.
func (k Key) IsIndex() bool { return k.Vid == strserver.ReservedIndexID }

// The fields of a packed key word: dir in bit 0, pid above it, vid on top.
const (
	pidShift = 1
	vidShift = 18

	// allKeyBits is the word with every field at its maximum. As a constant
	// it stops the build if the ID spaces outgrow the word.
	allKeyBits = uint64(rdf.MaxEntityID)<<vidShift | uint64(strserver.MaxPredicateID)<<pidShift | uint64(Out)
)

// pack returns k as one word and whether k fits it. The string server
// assigns no ID past rdf.MaxEntityID or strserver.MaxPredicateID, so only a
// key made up by hand can fail.
func pack(k Key) (uint64, bool) {
	return uint64(k.Vid)<<vidShift | uint64(k.Pid)<<pidShift | uint64(k.Dir),
		k.Vid <= rdf.MaxEntityID && k.Pid <= strserver.MaxPredicateID && k.Dir <= Out
}

// packWrite is pack for a key about to be written, which must fit.
func packWrite(k Key) uint64 {
	w, ok := pack(k)
	if !ok {
		panic(fmt.Sprintf("store: key %v does not fit the [vid|pid|dir] word", k))
	}
	return w
}

// unpack inverts pack.
func unpack(w uint64) Key {
	return Key{
		Vid: rdf.ID(w >> vidShift),
		Pid: rdf.ID(w>>pidShift) & strserver.MaxPredicateID,
		Dir: Dir(w & 1),
	}
}

// BaseSN is the snapshot number of the initially stored data.
const BaseSN uint32 = 0

// DefaultMaxSnapshots bounds per-key snapshot boundaries: "one is for using
// and another is for inserting" (§4.3).
const DefaultMaxSnapshots = 2

// segBoundary records that the value prefix [:end] is visible at snapshots
// ≥ sn (until superseded by a newer boundary).
type segBoundary struct {
	sn  uint32
	end uint32
}

// entry is one key's value: an append-only neighbor list plus its snapshot
// boundaries, newest last. 32 bytes.
//
// The list is its array's first element and capacity; how many values are in
// use is the end of the newest boundary, which every append moves (bound),
// so the entry keeps no length of its own. Up to two boundaries live inline,
// nseg counting them; an entry with more keeps its whole list in its
// stripe's spill map instead (Shard.segs), which only a shard with
// MaxSnapshots > 2 ever needs.
type entry struct {
	vals   *rdf.ID
	cap    uint32
	nseg   uint32
	inline [2]segBoundary
}

// chunkLen is how many entries a slab chunk holds: 255 × 32 B is 8160 B,
// which with the allocator's 8-byte header fills the 8192 B size class (256
// entries would land in the 9472 B class).
const chunkLen = 255

// chunk is a slab's unit of allocation. Chunks never move, so an *entry stays
// valid for the shard's life.
type chunk [chunkLen]entry

// array returns e's value array with its first n values in use.
func (e *entry) array(n uint32) []rdf.ID { return unsafe.Slice(e.vals, e.cap)[:n] }

// prefix returns e's first n values, capped so an append by the caller
// cannot reach the store.
func (e *entry) prefix(n uint32) []rdf.ID { return unsafe.Slice(e.vals, n) }

// visible returns the values a reader at snapshot sn may see, given e's
// boundaries segs.
func (e *entry) visible(segs []segBoundary, sn uint32) []rdf.ID {
	// segs is short (≤ MaxSnapshots) and ordered; scan from the newest.
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].sn <= sn {
			return e.prefix(segs[i].end)
		}
	}
	return e.prefix(0)
}

// span returns the values sp covers, or nil when sp reaches past the n in use.
func (e *entry) span(n uint32, sp Span) []rdf.ID {
	if sp.End > n {
		return nil
	}
	return e.prefix(sp.End)[sp.Start:]
}

// count returns how many values boundaries segs hold: the newest one's end.
func count(segs []segBoundary) uint32 {
	if len(segs) == 0 {
		return 0
	}
	return segs[len(segs)-1].end
}

// Span is a half-open [Start,End) range into a key's value list. Stream
// indexes store spans as their fat pointers into the persistent store (§4.2).
type Span struct {
	Start, End uint32
}

// Len returns the number of values covered by the span.
func (s Span) Len() int { return int(s.End - s.Start) }

const (
	stripeBits = 6
	stripes    = 1 << stripeBits
)

// fib is the Fibonacci hashing multiplier. Its product with a packed word
// picks the stripe from the top stripeBits bits and the probe start within
// the stripe's table from the bits below them: the top bits are the same for
// every key of a stripe.
const fib = 0x9e3779b97f4a7c15

// cell is one slot of a keyTable: a packed key word and the slab slot of its
// entry plus one. Every word is a real key (allKeyBits is all ones), so an
// empty cell is marked by at1 == 0, never by its word.
type cell struct {
	w   uint64
	at1 uint32
}

// minTableCells is the size of a new stripe's table.
const minTableCells = 16

// keyTable maps packed key words to slab slots: open addressing with linear
// probing over a power-of-two array that doubles when it passes ¾ full. Keys
// are never deleted, so it needs no tombstones.
type keyTable struct {
	cells []cell
	shift uint8 // 64 - log2(len(cells))
	n     int   // keys held
}

func newKeyTable(size int) keyTable {
	return keyTable{cells: make([]cell, size), shift: uint8(64 - bits.Len(uint(size-1)))}
}

// lookup returns the index of w's cell and true, or the index of the empty
// cell where w belongs and false.
func (t *keyTable) lookup(w uint64) (int, bool) {
	mask := len(t.cells) - 1
	for i := int(w * fib << stripeBits >> t.shift); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.at1 == 0 {
			return i, false
		}
		if c.w == w {
			return i, true
		}
	}
}

// get returns w's slab slot.
func (t *keyTable) get(w uint64) (uint32, bool) {
	i, ok := t.lookup(w)
	return t.cells[i].at1 - 1, ok
}

// insert stores w, absent, at slab slot at in cell i, which lookup(w)
// returned, and doubles the table once it is over ¾ full.
func (t *keyTable) insert(i int, w uint64, at uint32) {
	t.cells[i] = cell{w: w, at1: at + 1}
	t.n++
	if t.n*4 <= len(t.cells)*3 {
		return
	}
	n, old := t.n, t.cells
	*t = newKeyTable(2 * len(old))
	t.n = n
	for _, c := range old {
		if c.at1 != 0 {
			j, _ := t.lookup(c.w)
			t.cells[j] = c
		}
	}
}

// Shard is one node's partition of the persistent store. Reads and writes
// are safe for concurrent use; the injector additionally partitions the key
// space across its threads so writes rarely contend (§4.1).
type Shard struct {
	node         fabric.NodeID
	maxSnapshots int

	mu [stripes]sync.RWMutex
	// kv[st] maps a packed key to its slot in slab[st]; slot i is entry
	// i%chunkLen of chunk i/chunkLen. Slots are handed out in order and never
	// freed, so kv[st].n is the next one.
	kv   [stripes]keyTable
	slab [stripes][]*chunk
	stat [stripes]shardStat
	// spill[st] holds the boundaries of stripe st's entries that have more
	// than fit inline, guarded by mu[st]: an entry is a key ⇔ nseg > 2.
	spill [stripes]map[*entry][]segBoundary

	// multi[st] lists the entries of stripe st that carry more than one
	// snapshot boundary, guarded by mu[st]: an entry is listed ⇔
	// nseg > 1. It joins where bound takes it from one boundary to two
	// and leaves where PruneSnapshots collapses it back to one, so the list
	// itself is the membership record and entry needs no flag. Only listed
	// entries can have anything to prune, which makes a prune cost what the
	// last few snapshots touched instead of what the shard stores.
	multi [stripes][]*entry
	// nmulti[st] mirrors len(multi[st]) so a prune skips a stripe with
	// nothing listed without taking its lock.
	nmulti [stripes]atomic.Int32

	pruneVisited atomic.Int64 // entries PruneSnapshots has examined
}

type shardStat struct {
	values    int64
	segBounds int64
}

// stripeOf picks a packed key's stripe from the top bits of its Fibonacci
// hash.
func stripeOf(w uint64) int { return int(w * fib >> (64 - stripeBits)) }

// NewShard creates an empty shard for a node.
func NewShard(node fabric.NodeID, maxSnapshots int) *Shard {
	if maxSnapshots <= 0 {
		maxSnapshots = DefaultMaxSnapshots
	}
	s := &Shard{node: node, maxSnapshots: maxSnapshots}
	for i := range s.kv {
		s.kv[i] = newKeyTable(minTableCells)
	}
	return s
}

// Node returns the shard's owning node.
func (s *Shard) Node() fabric.NodeID { return s.node }

// at returns slot i of stripe st's slab. Caller holds mu[st].
func (s *Shard) at(st int, i uint32) *entry { return &s.slab[st][i/chunkLen][i%chunkLen] }

// find returns the entry of packed key w in stripe st, or nil. Caller holds
// mu[st].
func (s *Shard) find(st int, w uint64) *entry {
	i, ok := s.kv[st].get(w)
	if !ok {
		return nil
	}
	return s.at(st, i)
}

// entryLocked returns packed key w's entry in stripe st, carving it from the
// slab on first sight. Caller holds mu[st].
func (s *Shard) entryLocked(st int, w uint64) *entry {
	c, ok := s.kv[st].lookup(w)
	if ok {
		return s.at(st, s.kv[st].cells[c].at1-1)
	}
	i := uint32(s.kv[st].n)
	if i%chunkLen == 0 {
		s.slab[st] = append(s.slab[st], new(chunk))
	}
	s.kv[st].insert(c, w, i)
	return s.at(st, i)
}

// eachLocked calls f with every key of stripe st and its entry, in no
// particular order. Caller holds mu[st].
func (s *Shard) eachLocked(st int, f func(Key, *entry)) {
	for _, c := range s.kv[st].cells {
		if c.at1 != 0 {
			f(unpack(c.w), s.at(st, c.at1-1))
		}
	}
}

// segs returns the boundaries of e, an entry of stripe st, oldest first: its
// inline ones or, past two, its spilled list. Caller holds mu[st]; a writer
// may change the boundaries in place but must store a list of another length
// with setSegs.
func (s *Shard) segs(st int, e *entry) []segBoundary {
	if e.nseg <= uint32(len(e.inline)) {
		return e.inline[:e.nseg]
	}
	return s.spill[st][e]
}

// setSegs makes segs e's boundaries, inline when they fit and in the spill
// map when not. Caller holds mu[st] for writing.
func (s *Shard) setSegs(st int, e *entry, segs []segBoundary) {
	if len(segs) > len(e.inline) {
		if s.spill[st] == nil {
			s.spill[st] = make(map[*entry][]segBoundary)
		}
		s.spill[st][e] = segs
	} else {
		if e.nseg > uint32(len(e.inline)) {
			delete(s.spill[st], e)
		}
		copy(e.inline[:], segs)
	}
	e.nseg = uint32(len(segs))
}

// bound records that e's first end values are visible from snapshot sn on:
// it extends the newest boundary when that already is sn's and adds one
// otherwise. Every append goes through here, so this is the one place a
// key's value count moves, the one place a boundary is added and the one
// place an entry joins the stripe's multi-boundary list. Snapshot numbers
// must be non-decreasing per key; the dispatcher and coordinator guarantee
// this (stream batches within a stream are inserted in order, and SN–VTS
// plans advance monotonically). segs is s.segs(st, e). Caller holds mu[st].
func (s *Shard) bound(st int, e *entry, segs []segBoundary, sn, end uint32) {
	n := len(segs)
	if n > 0 && segs[n-1].sn == sn {
		segs[n-1].end = end
		return
	}
	if n > 0 && segs[n-1].sn > sn {
		panic(fmt.Sprintf("store: snapshot regression on append: %d after %d", sn, segs[n-1].sn))
	}
	// Bound metadata: collapse the oldest boundaries to make room. This is
	// safe only once no reader is below the collapsed SN; PruneSnapshots is
	// the coordinated path, but a hard cap protects memory if a caller never
	// prunes. Collapsing {sn1,e1},{sn2,e2} into {sn2,e2} loses only the
	// ability to read below sn2. Collapse before appending and copy down
	// rather than reslice forward, so segs keeps its backing array: under the
	// default cap of two that is the entry's inline pair, for good.
	if over := n + 1 - s.maxSnapshots; over > 0 {
		segs = append(segs[:0], segs[over:]...)
	}
	segs = append(segs, segBoundary{sn: sn, end: end})
	s.setSegs(st, e, segs)
	s.stat[st].segBounds += int64(len(segs) - n)
	if n == 1 && len(segs) > 1 {
		s.multi[st] = append(s.multi[st], e)
		s.nmulti[st].Add(1)
	}
}

// appendLocked appends vals to e, an entry of stripe st, under snapshot sn,
// clamped up to e's newest boundary when floor is set and sn would regress,
// and returns the span they take. Caller holds mu[st].
func (s *Shard) appendLocked(st int, e *entry, sn uint32, floor bool, vals []rdf.ID) Span {
	segs := s.segs(st, e)
	start := count(segs)
	if n := len(segs); floor && n > 0 {
		sn = max(sn, segs[n-1].sn)
	}
	// Past the count the array holds nothing a reader can see, so the new
	// values may land there before bound publishes them.
	v := append(e.array(start), vals...)
	e.vals, e.cap = unsafe.SliceData(v), uint32(cap(v))
	s.stat[st].values += int64(len(vals))
	s.bound(st, e, segs, sn, uint32(len(v)))
	return Span{Start: start, End: uint32(len(v))}
}

// Append adds vals to key under snapshot sn, returning the span of the newly
// appended values (for the stream index).
func (s *Shard) Append(key Key, vals []rdf.ID, sn uint32) Span {
	w := packWrite(key)
	st := stripeOf(w)
	s.mu[st].Lock()
	defer s.mu[st].Unlock()
	return s.appendLocked(st, s.entryLocked(st, w), sn, false, vals)
}

// AppendOne is Append for a single value, avoiding a slice allocation on the
// injection hot path. wasEmpty reports whether the key had no values before
// this append — the injector's atomic cue to update the index vertex.
func (s *Shard) AppendOne(key Key, val rdf.ID, sn uint32) (sp Span, wasEmpty bool) {
	return s.appendOne(key, val, sn, false)
}

// AppendOneFloor is AppendOne with the snapshot number clamped up to the
// key's newest boundary when sn would regress. Snapshot catch-up replays
// historical triples into an engine that may already hold newer data for the
// same key; the replayed value must land (continuous queries read the full
// list via spans), but it may not tear the per-key snapshot monotonicity
// invariant. Clamping is sound for catch-up because the receiving replica's
// snapshot readers are already at or above the newest boundary.
func (s *Shard) AppendOneFloor(key Key, val rdf.ID, sn uint32) (sp Span, wasEmpty bool) {
	return s.appendOne(key, val, sn, true)
}

func (s *Shard) appendOne(key Key, val rdf.ID, sn uint32, floor bool) (sp Span, wasEmpty bool) {
	w := packWrite(key)
	st := stripeOf(w)
	s.mu[st].Lock()
	defer s.mu[st].Unlock()
	sp = s.appendLocked(st, s.entryLocked(st, w), sn, floor, []rdf.ID{val})
	return sp, sp.Start == 0
}

// RangeKeys calls f for every key in the shard with a copy of its full
// value list, one stripe at a time under the stripe's read lock. Iteration
// order is unspecified. Snapshot transfer uses this to dump the store.
func (s *Shard) RangeKeys(f func(Key, []rdf.ID)) {
	for st := 0; st < stripes; st++ {
		s.mu[st].RLock()
		keys := make([]Key, 0, s.kv[st].n)
		vals := make([][]rdf.ID, 0, s.kv[st].n)
		s.eachLocked(st, func(k Key, e *entry) {
			keys = append(keys, k)
			vals = append(vals, append([]rdf.ID(nil), e.prefix(count(s.segs(st, e)))...))
		})
		s.mu[st].RUnlock()
		for i, k := range keys {
			f(k, vals[i])
		}
	}
}

// Get returns the values of key visible at snapshot sn. The returned slice
// aliases the store (values below the visible length are immutable); callers
// must not modify it.
func (s *Shard) Get(key Key, sn uint32) []rdf.ID {
	w, ok := pack(key)
	if !ok {
		return nil
	}
	st := stripeOf(w)
	s.mu[st].RLock()
	defer s.mu[st].RUnlock()
	e := s.find(st, w)
	if e == nil {
		return nil
	}
	return e.visible(s.segs(st, e), sn)
}

// GetAll returns every value of key regardless of snapshot (continuous
// queries use window extraction, not snapshots, so they read via spans).
func (s *Shard) GetAll(key Key) []rdf.ID {
	w, ok := pack(key)
	if !ok {
		return nil
	}
	st := stripeOf(w)
	s.mu[st].RLock()
	defer s.mu[st].RUnlock()
	e := s.find(st, w)
	if e == nil {
		return nil
	}
	return e.prefix(count(s.segs(st, e)))
}

// GetSpan returns the values covered by a stream-index span. The span's fat
// pointer may locate into the middle of the value (§4.2).
func (s *Shard) GetSpan(key Key, sp Span) []rdf.ID {
	w, ok := pack(key)
	if !ok {
		return nil
	}
	st := stripeOf(w)
	s.mu[st].RLock()
	defer s.mu[st].RUnlock()
	e := s.find(st, w)
	if e == nil {
		return nil
	}
	return e.span(count(s.segs(st, e)), sp)
}

// PruneSnapshots collapses per-key snapshot metadata below minSN. The engine
// calls this as the coordinator's stable SN advances. Only the entries on the
// multi-boundary lists are examined — an entry with a single boundary has
// nothing to collapse — and a stripe with none listed is not locked.
func (s *Shard) PruneSnapshots(minSN uint32) {
	for st := 0; st < stripes; st++ {
		if s.nmulti[st].Load() == 0 {
			continue
		}
		s.mu[st].Lock()
		listed := s.multi[st]
		kept := listed[:0]
		for _, e := range listed {
			if s.prune(st, e, minSN) > 1 {
				kept = append(kept, e)
			}
		}
		s.multi[st] = kept
		s.nmulti[st].Store(int32(len(kept)))
		s.mu[st].Unlock()
		s.pruneVisited.Add(int64(len(listed)))
	}
}

// prune collapses e's boundaries below minSN into a single floor boundary and
// returns how many it keeps. Caller holds mu[st] for writing.
func (s *Shard) prune(st int, e *entry, minSN uint32) int {
	segs := s.segs(st, e)
	i := 0
	for i < len(segs) && segs[i].sn < minSN {
		i++
	}
	if i <= 1 {
		return len(segs)
	}
	// Keep the newest pruned boundary as the floor for readers at exactly
	// minSN-1 .. the paper's coordinator guarantees no reader is below it.
	kept := append(segs[:0], segs[i-1:]...)
	s.setSegs(st, e, kept)
	s.stat[st].segBounds -= int64(len(segs) - len(kept))
	return len(kept)
}

// PruneVisited returns how many entries PruneSnapshots has examined since the
// shard was created.
func (s *Shard) PruneVisited() int64 { return s.pruneVisited.Load() }

// MultiBoundaryKeys returns how many keys currently carry more than one
// snapshot boundary — what the next PruneSnapshots will examine.
func (s *Shard) MultiBoundaryKeys() int64 {
	var n int64
	for st := range s.nmulti {
		n += int64(s.nmulti[st].Load())
	}
	return n
}

// MemoryStats describes a shard's resident footprint for the memory
// experiments (Table 7 and §6.7).
type MemoryStats struct {
	Entries        int64 // number of keys
	Values         int64 // total neighbor-list elements
	SegBoundaries  int64 // total snapshot boundaries across keys
	ValueBytes     int64 // Values * 8
	SegBytes       int64 // SegBoundaries * 8
	KeyBytes       int64 // Entries * 8 (one packed [vid|pid|dir] word per key)
	ScalarizedCost int64 // KeyBytes + ValueBytes + SegBytes
}

// VTSAlternativeBytes models the footprint of the straw-man design the paper
// rejects in §4.3: every value element carries a vector timestamp with one
// 8-byte slot per stream.
func (m MemoryStats) VTSAlternativeBytes(streams int) int64 {
	return m.KeyBytes + m.ValueBytes + m.Values*8*int64(streams)
}

// Memory returns the shard's memory statistics.
func (s *Shard) Memory() MemoryStats {
	var m MemoryStats
	for st := 0; st < stripes; st++ {
		s.mu[st].RLock()
		m.Entries += int64(s.kv[st].n)
		m.Values += s.stat[st].values
		m.SegBoundaries += s.stat[st].segBounds
		s.mu[st].RUnlock()
	}
	m.ValueBytes = m.Values * 8
	m.SegBytes = m.SegBoundaries * 8
	m.KeyBytes = m.Entries * 8
	m.ScalarizedCost = m.KeyBytes + m.ValueBytes + m.SegBytes
	return m
}

// Len returns the number of keys in the shard.
func (s *Shard) Len() int {
	var n int64
	for st := 0; st < stripes; st++ {
		s.mu[st].RLock()
		n += int64(s.kv[st].n)
		s.mu[st].RUnlock()
	}
	return int(n)
}
