package store

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/race"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// This file pins the shard's layout — one packed word per key, 32-byte entries
// carved from slabs with their first two boundaries inline and any more in
// the stripe's spill map — against a plain model, and pins what the layout
// costs.

// must unwraps a value the test's inputs always produce.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestPackedKeyFillsOneWord(t *testing.T) {
	if allKeyBits != ^uint64(0) {
		t.Fatalf("the ID spaces fill %#x of the key word, want all 64 bits", allKeyBits)
	}
	for _, k := range edgeKeys() {
		w, ok := pack(k)
		if !ok || unpack(w) != k {
			t.Errorf("pack(%v) = %#x, %v; unpacks to %v", k, w, ok, unpack(w))
		}
	}
	for _, k := range []Key{
		{Vid: rdf.MaxEntityID + 1, Pid: 1},
		{Vid: 1, Pid: strserver.MaxPredicateID + 1},
		{Vid: 1, Pid: 1, Dir: 2},
	} {
		if _, ok := pack(k); ok {
			t.Errorf("pack(%v) fits the word", k)
		}
	}
}

// TestOrdIsTheBatchOrder: every storable key round-trips through its Ord,
// and Ords sort by (pid, dir, vid) — what a batch's runs rely on.
func TestOrdIsTheBatchOrder(t *testing.T) {
	ks := edgeKeys()
	for _, k := range ks {
		if got := k.Ord().Key(); got != k {
			t.Errorf("%v.Ord() unpacks to %v", k, got)
		}
	}
	byOrd := slices.Clone(ks)
	slices.SortFunc(byOrd, func(a, b Key) int { return cmp.Compare(a.Ord(), b.Ord()) })
	byFields := slices.Clone(ks)
	slices.SortFunc(byFields, func(a, b Key) int {
		return cmp.Or(cmp.Compare(a.Pid, b.Pid), cmp.Compare(a.Dir, b.Dir), cmp.Compare(a.Vid, b.Vid))
	})
	if !slices.Equal(byOrd, byFields) {
		t.Errorf("Ord order %v, want (pid, dir, vid) order %v", byOrd, byFields)
	}
}

// An out-of-range key is never stored: reads find nothing, writes panic
// rather than alias another key's entry.
func TestKeyOutsideTheWord(t *testing.T) {
	s := NewShard(0, 0)
	in := Key{Vid: 1, Pid: 1}
	out := Key{Vid: 1, Pid: strserver.MaxPredicateID + 1}
	s.AppendOne(in, 7, BaseSN)
	if s.Get(out, BaseSN) != nil || s.GetAll(out) != nil || s.GetSpan(out, Span{0, 1}) != nil {
		t.Errorf("a key outside the word reads values")
	}
	defer func() {
		if recover() == nil {
			t.Error("appending to a key outside the word did not panic")
		}
	}()
	s.AppendOne(out, 8, BaseSN)
}

func TestChunkFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 32 {
		t.Errorf("entry is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(cell{}); got != 16 {
		t.Errorf("a key-table cell is %d bytes, want 16, four to a cache line", got)
	}
	// The allocator prefixes a pointerful object this large with an 8-byte
	// header; both must fit the 8192-byte class, and one more entry must not.
	if got := unsafe.Sizeof(chunk{}) + 8; got > 8192 {
		t.Errorf("a chunk and its header take %d bytes, past the 8192-byte class", got)
	}
	if got := unsafe.Sizeof(entry{})*(chunkLen+1) + 8; got <= 8192 {
		t.Errorf("a chunk of %d entries would still fit the 8192-byte class (%d bytes)", chunkLen+1, got)
	}
}

// edgeKeys are the keys at the edges of every field: the index vertex, the
// largest entity, a vertex's predicate index, the largest predicate, both
// directions, and neighbors that differ in one bit of one field.
func edgeKeys() []Key {
	var ks []Key
	for _, d := range []Dir{In, Out} {
		ks = append(ks,
			IndexKey(1, d),
			IndexKey(strserver.MaxPredicateID, d),
			PredIndexKey(1, d),
			PredIndexKey(rdf.MaxEntityID, d),
			EdgeKey(rdf.MaxEntityID, 1, d),
			EdgeKey(rdf.MaxEntityID, strserver.MaxPredicateID, d),
			EdgeKey(1, strserver.MaxPredicateID, d),
			EdgeKey(1, 1<<16, d),
			EdgeKey(1<<45, 1, d),
			EdgeKey(2, 1, d),
			EdgeKey(3, 1, d),
		)
	}
	return ks
}

// modelVal is one value the model holds, with the snapshot it landed in.
type modelVal struct {
	val rdf.ID
	sn  uint32
}

// shardModel is what a Shard must answer, kept the plainest way: every value
// with its snapshot, and per key the snapshots whose boundaries survive the
// cap and the prunes, oldest first.
type shardModel struct {
	max  int
	vals map[Key][]modelVal
	sns  map[Key][]uint32
}

func (m *shardModel) append(k Key, sn uint32, floor bool, vals ...rdf.ID) Span {
	sns := m.sns[k]
	if n := len(sns); floor && n > 0 && sns[n-1] > sn {
		sn = sns[n-1]
	}
	if n := len(sns); n == 0 || sns[n-1] != sn {
		sns = append(sns, sn)
		if len(sns) > m.max {
			sns = sns[len(sns)-m.max:]
		}
	}
	m.sns[k] = sns
	start := uint32(len(m.vals[k]))
	for _, v := range vals {
		m.vals[k] = append(m.vals[k], modelVal{v, sn})
	}
	return Span{Start: start, End: uint32(len(m.vals[k]))}
}

func (m *shardModel) prune(minSN uint32) {
	for k, sns := range m.sns {
		i := 0
		for i < len(sns) && sns[i] < minSN {
			i++
		}
		if i > 1 {
			m.sns[k] = sns[i-1:]
		}
	}
}

// visible is what a reader at sn sees of k.
func (m *shardModel) visible(k Key, sn uint32) []rdf.ID {
	var out []rdf.ID
	for _, v := range m.vals[k] {
		if v.sn <= sn {
			out = append(out, v.val)
		}
	}
	return out
}

func allVals(mv []modelVal) []rdf.ID {
	out := make([]rdf.ID, len(mv))
	for i, v := range mv {
		out[i] = v.val
	}
	return out
}

// check fails the test unless s answers every read the way m does: Get at
// every SN from each key's floor (its oldest surviving boundary) to past the
// last, GetAll, every span an append returned, RangeKeys and Memory.
func (m *shardModel) check(t *testing.T, s *Shard, lastSN uint32, spans map[Key][]Span, when string) {
	t.Helper()
	var values, bounds int64
	for k, mv := range m.vals {
		values += int64(len(mv))
		bounds += int64(len(m.sns[k]))
		for sn := m.sns[k][0]; sn <= lastSN+1; sn++ {
			if got, want := s.Get(k, sn), m.visible(k, sn); !slices.Equal(got, want) {
				t.Fatalf("%s: Get(%v, %d) = %v, want %v", when, k, sn, got, want)
			}
		}
		all := allVals(mv)
		if got := s.GetAll(k); !slices.Equal(got, all) {
			t.Fatalf("%s: GetAll(%v) = %v, want %v", when, k, got, all)
		}
		for _, sp := range spans[k] {
			if got := s.GetSpan(k, sp); !slices.Equal(got, all[sp.Start:sp.End]) {
				t.Fatalf("%s: GetSpan(%v, %v) = %v, want %v", when, k, sp, got, all[sp.Start:sp.End])
			}
		}
	}
	ranged := 0
	s.RangeKeys(func(k Key, vals []rdf.ID) {
		ranged++
		if mv, ok := m.vals[k]; !ok || !slices.Equal(vals, allVals(mv)) {
			t.Fatalf("%s: RangeKeys gives %v → %v, the model %v (present %v)", when, k, vals, allVals(mv), ok)
		}
	})
	keys := int64(len(m.vals))
	want := MemoryStats{
		Entries: keys, Values: values, SegBoundaries: bounds,
		ValueBytes: values * 8, SegBytes: bounds * 8, KeyBytes: keys * 8,
		ScalarizedCost: keys*8 + values*8 + bounds*8,
	}
	if got := s.Memory(); got != want || ranged != len(m.vals) || s.Len() != len(m.vals) {
		t.Fatalf("%s: Memory() = %+v, RangeKeys %d keys, Len %d; the model %+v", when, got, ranged, s.Len(), want)
	}
}

// TestShardMatchesModel drives a Shard and the model through the same seeded
// appends and prunes, on the edge keys and on random ones, for caps on both
// sides of the two inline boundaries.
func TestShardMatchesModel(t *testing.T) {
	const lastSN = 24
	for _, maxSnapshots := range []int{1, 2, 3, 5} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("max=%d/seed=%d", maxSnapshots, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				s := NewShard(0, maxSnapshots)
				m := &shardModel{max: maxSnapshots, vals: map[Key][]modelVal{}, sns: map[Key][]uint32{}}
				spans := map[Key][]Span{}
				keys := edgeKeys()
				for len(keys) < 300 {
					keys = append(keys, EdgeKey(rdf.ID(rng.Int63n(int64(rdf.MaxEntityID)+1)), rdf.ID(rng.Intn(int(strserver.MaxPredicateID)+1)), Dir(rng.Intn(2))))
				}
				next := rdf.ID(0)
				val := func() rdf.ID { next++; return next }
				for _, k := range edgeKeys() {
					v := val()
					sp, _ := s.AppendOne(k, v, BaseSN)
					m.append(k, BaseSN, false, v)
					spans[k] = append(spans[k], sp)
				}
				minSN := uint32(0)
				for sn := uint32(0); sn <= lastSN; sn++ {
					for op := 0; op < 60; op++ {
						k := keys[rng.Intn(len(keys))]
						var got, want Span
						switch rng.Intn(3) {
						case 0:
							vals := make([]rdf.ID, 1+rng.Intn(3))
							for i := range vals {
								vals[i] = val()
							}
							got, want = s.Append(k, vals, sn), m.append(k, sn, false, vals...)
						case 1:
							v := val()
							wasEmpty := len(m.vals[k]) == 0
							var empty bool
							got, empty = s.AppendOne(k, v, sn)
							want = m.append(k, sn, false, v)
							if empty != wasEmpty {
								t.Fatalf("AppendOne(%v) wasEmpty = %v, want %v", k, empty, wasEmpty)
							}
						default:
							// Catch-up replay below the key's newest boundary.
							v, at := val(), sn-uint32(rng.Intn(int(min(sn, 3))+1))
							got, _ = s.AppendOneFloor(k, v, at)
							want = m.append(k, at, true, v)
						}
						if got != want {
							t.Fatalf("append to %v at sn=%d returned span %v, want %v", k, sn, got, want)
						}
						spans[k] = append(spans[k], got)
					}
					if rng.Intn(2) == 0 {
						minSN = max(minSN, sn-uint32(rng.Intn(int(min(sn, 2))+1)))
						s.PruneSnapshots(minSN)
						m.prune(minSN)
					}
					m.check(t, s, lastSN, spans, fmt.Sprintf("after sn=%d (prune floor %d)", sn, minSN))
				}
				s.checkMultiInvariant(t)
			})
		}
	}
}

// FuzzShardMatchesModel decodes a shard's operations from the fuzz input —
// the cap first, then ops on the edge keys — and checks the shard against the
// model after every one: appends of every kind at non-decreasing snapshots
// (a floor append may name an older one), prunes up to the newest snapshot,
// and Get, GetSpan and GetAll at drawn snapshots and spans.
func FuzzShardMatchesModel(f *testing.F) {
	f.Add([]byte{1, 0, 0, 3, 1, 0, 2, 3, 4, 1, 5, 0, 6, 0, 7, 0})
	f.Add([]byte{2, 1, 3, 0, 3, 1, 3, 0, 3, 3, 4, 2, 2, 3, 1, 3, 5, 3})
	f.Add([]byte{4, 0, 1, 3, 0, 1, 3, 0, 1, 3, 0, 1, 3, 0, 1, 4, 1, 6, 1, 5, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		maxSnapshots := 1 + int(in[0])%5
		in = in[1:]
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		s := NewShard(0, maxSnapshots)
		m := &shardModel{max: maxSnapshots, vals: map[Key][]modelVal{}, sns: map[Key][]uint32{}}
		spans := map[Key][]Span{}
		keys := edgeKeys()
		var sn, minSN uint32
		val := rdf.ID(0)
		// Every check reads each key at every snapshot from its floor, so
		// inputs stop at 48 ops, which keeps a run in milliseconds.
		for op := 0; len(in) > 0 && op < 48; op++ {
			kind, k := next()%8, keys[next()%len(keys)]
			switch kind {
			case 0, 1, 2: // Append, AppendOne, AppendOneFloor
				var got, want Span
				val++
				switch kind {
				case 0:
					vals := []rdf.ID{val, val + 1, val + 2}[:1+next()%3]
					val += 2
					got, want = s.Append(k, vals, sn), m.append(k, sn, false, vals...)
				case 1:
					got, _ = s.AppendOne(k, val, sn)
					want = m.append(k, sn, false, val)
				default:
					at := sn - min(sn, uint32(next()%4))
					got, _ = s.AppendOneFloor(k, val, at)
					want = m.append(k, at, true, val)
				}
				if got != want {
					t.Fatalf("op %d: append to %v at sn=%d returned %v, want %v", op, k, sn, got, want)
				}
				spans[k] = append(spans[k], got)
			case 3: // the next snapshot
				sn += 1 + uint32(next()%3)
			case 4:
				minSN = max(minSN, sn-min(sn, uint32(next()%3)))
				s.PruneSnapshots(minSN)
				m.prune(minSN)
			case 5: // Get at a snapshot from the key's floor to past the newest
				if sns := m.sns[k]; len(sns) > 0 {
					at := sns[0] + uint32(next())%(sn+2-sns[0])
					if got, want := s.Get(k, at), m.visible(k, at); !slices.Equal(got, want) {
						t.Fatalf("op %d: Get(%v, %d) = %v, want %v", op, k, at, got, want)
					}
				}
			case 6: // GetSpan over a drawn span, inside the values or past them
				all := allVals(m.vals[k])
				end := uint32(next() % (len(all) + 2))
				sp := Span{Start: end - min(end, uint32(next()%3)), End: end}
				past := int(end) > len(all)
				want := []rdf.ID(nil)
				if !past {
					want = all[sp.Start:sp.End]
				}
				if got := s.GetSpan(k, sp); !slices.Equal(got, want) || past && got != nil {
					t.Fatalf("op %d: GetSpan(%v, %v) = %v, want %v", op, k, sp, got, want)
				}
			default:
				if got, want := s.GetAll(k), allVals(m.vals[k]); !slices.Equal(got, want) {
					t.Fatalf("op %d: GetAll(%v) = %v, want %v", op, k, got, want)
				}
			}
			m.check(t, s, sn, spans, fmt.Sprintf("op %d (%d at sn=%d, prune floor %d)", op, kind, sn, minSN))
			s.checkMultiInvariant(t)
		}
	})
}

// TestKeyTableMatchesMap drives a key table and a map through the same seeded
// inserts and lookups, word 0 and the all-ones word among the keys, across
// every doubling from 16 cells to 2^16; after each doubling every key must
// still find its slot and the table must hold nothing else.
func TestKeyTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := newKeyTable(minTableCells)
	oracle := map[uint64]uint32{}
	check := func(when string) {
		t.Helper()
		for w, at := range oracle {
			if got, ok := tab.get(w); !ok || got != at {
				t.Fatalf("%s: get(%#x) = %d, %v; want %d", when, w, got, ok, at)
			}
		}
		used := 0
		for _, c := range tab.cells {
			if c.at1 != 0 {
				used++
			}
		}
		if used != len(oracle) || tab.n != len(oracle) || tab.n*4 > len(tab.cells)*3 {
			t.Fatalf("%s: %d cells used, n = %d, %d cells; the map holds %d", when, used, tab.n, len(tab.cells), len(oracle))
		}
	}
	sizes := []int{len(tab.cells)}
	edges := []uint64{0, ^uint64(0), 1, ^uint64(0) - 1}
	for len(tab.cells) < 1<<16 {
		w := rng.Uint64()
		if len(edges) > 0 {
			w, edges = edges[0], edges[1:]
		} else if rng.Intn(4) == 0 {
			w = uint64(rng.Intn(1 << 12)) // small words, some of them repeats
		}
		i, ok := tab.lookup(w)
		if at, want := oracle[w]; ok != want || ok && tab.cells[i].at1-1 != at {
			t.Fatalf("lookup(%#x) = %d, %v; the map has %d, %v", w, i, ok, at, want)
		}
		if !ok {
			oracle[w] = uint32(len(oracle))
			tab.insert(i, w, oracle[w])
		}
		absent := rng.Uint64()
		if _, ok := oracle[absent]; !ok {
			if _, ok := tab.get(absent); ok {
				t.Fatalf("get(%#x) found a key the map lacks", absent)
			}
		}
		if len(tab.cells) != sizes[len(sizes)-1] {
			sizes = append(sizes, len(tab.cells))
			check(fmt.Sprintf("after doubling to %d cells", len(tab.cells)))
		}
	}
	check("at the end")
	for i, n := range sizes {
		if n != minTableCells<<i {
			t.Fatalf("the table went through sizes %v, want every doubling from %d", sizes, minTableCells)
		}
	}
	for _, w := range []uint64{0, ^uint64(0)} {
		if _, ok := tab.get(w); !ok {
			t.Errorf("word %#x is lost", w)
		}
	}
}

// The keys of one stripe share the top bits of their hash, so the probe
// start must come from the bits below them: otherwise every key of a stripe
// starts at the same cell and the table degrades to one long run.
func TestKeyTableSpreadsOneStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := newKeyTable(minTableCells)
	for tab.n < 5000 {
		if w := rng.Uint64(); stripeOf(w) == 3 {
			if i, ok := tab.lookup(w); !ok {
				tab.insert(i, w, uint32(tab.n))
			}
		}
	}
	longest, run := 0, 0
	for _, c := range append(tab.cells, tab.cells...) { // a run may wrap
		if c.at1 == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	if longest > len(tab.cells)/16 {
		t.Errorf("%d keys of one stripe in %d cells make a run of %d occupied cells", tab.n, len(tab.cells), longest)
	}
}

// RangeKeys visits every key exactly once, across the table doublings of
// every stripe.
func TestRangeKeysVisitsEachKeyOnce(t *testing.T) {
	s := NewShard(0, 0)
	const keys = 20_000
	for i := 0; i < keys; i++ {
		s.AppendOne(EdgeKey(rdf.ID(1+i/2), rdf.ID(1+i%5), Dir(i%2)), rdf.ID(i), BaseSN)
	}
	seen := map[Key]int{}
	s.RangeKeys(func(k Key, vals []rdf.ID) {
		seen[k]++
		if len(vals) != 1 {
			t.Errorf("%v ranges with %d values, want 1", k, len(vals))
		}
	})
	if len(seen) != keys {
		t.Errorf("RangeKeys visited %d distinct keys, want %d", len(seen), keys)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("RangeKeys visited %v %d times", k, n)
		}
	}
}

// A single-value key costs about half a heap object: its one-value list, which
// the allocator packs two to a 16-byte block. The entry is a slot in a chunk
// shared with 254 others, and the table cell holding the key is no object.
func TestStoreHeapObjectsPerKey(t *testing.T) {
	if race.Enabled {
		t.Skip("heap counts are meaningless under the race detector")
	}
	const keys = 50_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewShard(0, 0)
	for i := 0; i < keys; i++ {
		s.AppendOne(EdgeKey(rdf.ID(1+i), 1, Out), rdf.ID(i), BaseSN)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if perKey := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / keys; perKey > 0.75 {
		t.Errorf("%.2f heap objects per single-value key, want ≤ 0.75", perKey)
	}
}

// A read allocates nothing, and neither does an append into a key with room
// for the value, at its newest snapshot or at a new one: under the default cap
// the boundaries stay in the entry's inline pair.
func TestShardHotPathsDoNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s := NewShard(0, 0)
	k := EdgeKey(7, 3, Out)
	for i := 0; i < 10; i++ {
		s.AppendOne(EdgeKey(rdf.ID(100+i), 3, Out), 1, BaseSN) // neighbors in the stripes
	}
	s.AppendOne(k, 1, BaseSN)
	w, _ := pack(k)
	e := s.find(stripeOf(w), w)
	for e.cap-e.inline[0].end < 500 {
		s.AppendOne(k, 1, BaseSN)
	}
	if n := testing.AllocsPerRun(100, func() { s.Get(k, BaseSN) }); n != 0 {
		t.Errorf("Get allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.GetSpan(k, Span{Start: 1, End: 3}) }); n != 0 {
		t.Errorf("GetSpan allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.AppendOne(k, 2, BaseSN) }); n != 0 {
		t.Errorf("AppendOne at the newest snapshot allocates %.0f times, want 0", n)
	}
	sn := uint32(BaseSN)
	if n := testing.AllocsPerRun(100, func() { sn++; s.AppendOne(k, 3, sn) }); n != 0 {
		t.Errorf("AppendOne at a new snapshot allocates %.0f times, want 0", n)
	}
	if _, spilled := s.spill[stripeOf(w)][e]; e.nseg != 2 || spilled {
		t.Errorf("after 100 snapshots the entry has %d boundaries, spilled %v; want its inline pair", e.nseg, spilled)
	}
}

// benchKeys fills a shard with n single-value keys and returns them in a
// random order, so consecutive probes land far apart.
func benchKeys(b *testing.B, n int) (*Shard, []Key) {
	s := NewShard(0, 0)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = EdgeKey(rdf.ID(1+i), rdf.ID(1+i%7), Dir(i%2))
		s.AppendOne(keys[i], rdf.ID(i), BaseSN)
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b.ReportAllocs()
	b.ResetTimer()
	return s, keys
}

func BenchmarkShardGet(b *testing.B) {
	s, keys := benchKeys(b, 100_000)
	for i := 0; i < b.N; i++ {
		if s.Get(keys[i%len(keys)], BaseSN) == nil {
			b.Fatal("a stored key read nothing")
		}
	}
}

// BenchmarkShardReadFrontier reads BenchmarkShardGet's 100 k keys, 128
// random keys per ReadFrontier call, on a one-node store over the same
// shard, and reports ns/key beside Get's ns/op.
func BenchmarkShardReadFrontier(b *testing.B) {
	s, keys := benchKeys(b, 100_000)
	g := &Sharded{fab: fabric.New(fabric.DefaultConfig(1)), shards: []*Shard{s}}
	const width = 128
	out := make([][]rdf.ID, width)
	for i := 0; i < b.N; i++ {
		lo := i * width % (len(keys) - width)
		g.ReadFrontier(0, keys[lo:lo+width], BaseSN, out)
		if out[0] == nil || out[width-1] == nil {
			b.Fatal("a stored key read nothing")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/key")
}

// BenchmarkShardedParallelRead has GOMAXPROCS readers read the same keys
// through the one-node store at once, 128 per round, one ReadValues per key
// or one ReadFrontier per round, in ns/key of wall time. One reader alone
// reads about as fast either way; concurrent per-key readers contend on the
// store's read counter and on the stripe locks' reader counts, frontier
// readers touch each once per round.
func BenchmarkShardedParallelRead(b *testing.B) {
	const width = 128
	for _, way := range []string{"ReadValues", "ReadFrontier"} {
		frontier := way == "ReadFrontier"
		b.Run(way, func(b *testing.B) {
			s, keys := benchKeys(b, 100_000)
			g := &Sharded{fab: fabric.New(fabric.DefaultConfig(1)), shards: []*Shard{s}}
			b.RunParallel(func(pb *testing.PB) {
				out := make([][]rdf.ID, width)
				lo := rand.Intn(len(keys) - width)
				for pb.Next() {
					lo = (lo + width) % (len(keys) - width)
					if frontier {
						g.ReadFrontier(0, keys[lo:lo+width], BaseSN, out)
						continue
					}
					for i, k := range keys[lo : lo+width] {
						out[i] = g.ReadValues(0, k, BaseSN)
					}
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/key")
		})
	}
}

// BenchmarkShardAppendOne appends to existing keys in random order, each pass
// over them under the next snapshot, pruning between passes as the engine does.
func BenchmarkShardAppendOne(b *testing.B) {
	s, keys := benchKeys(b, 100_000)
	for i := 0; i < b.N; i++ {
		sn := uint32(1 + i/len(keys))
		if i%len(keys) == 0 {
			s.PruneSnapshots(sn - 1)
		}
		s.AppendOne(keys[i%len(keys)], rdf.ID(i), sn)
	}
}
