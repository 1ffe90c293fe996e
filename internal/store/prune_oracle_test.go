package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rdf"
)

// This file holds the oracle PruneSnapshots is checked against — the
// every-key walk it replaced — and the tests that fail if the multi-boundary
// lists and the walk ever disagree.

// PruneSnapshotsWalk collapses snapshot metadata below minSN by visiting
// every entry of every stripe under the stripe's write lock, taking no hint
// from the multi-boundary lists. It rebuilds them from what it finds, so a
// shard pruned only this way keeps the listed ⇔ nseg > 1 invariant.
// Exported (from a _test.go file only) so the engine-level test in package
// store_test can reach it.
func (s *Shard) PruneSnapshotsWalk(minSN uint32) {
	for st := 0; st < stripes; st++ {
		s.mu[st].Lock()
		s.multi[st] = s.multi[st][:0]
		s.eachLocked(st, func(_ Key, e *entry) {
			if s.prune(st, e, minSN) > 1 {
				s.multi[st] = append(s.multi[st], e)
			}
		})
		s.nmulti[st].Store(int32(len(s.multi[st])))
		s.mu[st].Unlock()
	}
}

// PruneSnapshotsWalk is the oracle walk on every shard.
func (g *Sharded) PruneSnapshotsWalk(minSN uint32) {
	for _, s := range g.shards {
		s.PruneSnapshotsWalk(minSN)
	}
}

// checkMultiInvariant fails the test unless, in every stripe, the
// multi-boundary list holds exactly the entries with more than one boundary,
// each once, and the lock-free count mirrors its length; and the spill map
// holds exactly the entries with more than two, each with its count of
// boundaries.
func (s *Shard) checkMultiInvariant(t *testing.T) {
	t.Helper()
	for st := 0; st < stripes; st++ {
		s.mu[st].RLock()
		listed := make(map[*entry]bool, len(s.multi[st]))
		for _, e := range s.multi[st] {
			if e.nseg <= 1 {
				t.Errorf("stripe %d lists an entry with %d boundaries", st, e.nseg)
			}
			if listed[e] {
				t.Errorf("stripe %d lists an entry twice", st)
			}
			listed[e] = true
		}
		spilled := 0
		s.eachLocked(st, func(k Key, e *entry) {
			if e.nseg > 1 && !listed[e] {
				t.Errorf("stripe %d: %v has %d boundaries and is not listed", st, k, e.nseg)
			}
			if segs, ok := s.spill[st][e]; ok != (e.nseg > 2) || ok && len(segs) != int(e.nseg) {
				t.Errorf("stripe %d: %v has %d boundaries and %d spilled (present %v)", st, k, e.nseg, len(segs), ok)
			}
			if e.nseg > 2 {
				spilled++
			}
		})
		if len(s.spill[st]) != spilled {
			t.Errorf("stripe %d spills %d entries, %d have more than two boundaries", st, len(s.spill[st]), spilled)
		}
		if got := int(s.nmulti[st].Load()); got != len(s.multi[st]) {
			t.Errorf("stripe %d: count %d, list length %d", st, got, len(s.multi[st]))
		}
		s.mu[st].RUnlock()
	}
}

// Seeded random schedules drive a list-pruned shard and a walk-pruned shard
// through the same appends and the same prunes: their memory statistics agree
// after every prune, and at the end every key reads the same at every
// snapshot at or above the last floor.
func TestPruneListMatchesWalk(t *testing.T) {
	const (
		keys    = 3200
		hotKeys = 16 // appended to on every SN, like the index vertices
		lastSN  = 40
	)
	key := func(i int) Key { return EdgeKey(rdf.ID(1+i), rdf.ID(1+i%7), Dir(i%2)) }
	for _, maxSnapshots := range []int{1, 2, 3, 5} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("max=%d/seed=%d", maxSnapshots, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				list, walk := NewShard(0, maxSnapshots), NewShard(0, maxSnapshots)
				both := func(f func(*Shard)) { f(list); f(walk) }
				for i := 0; i < keys; i++ {
					both(func(s *Shard) { s.AppendOne(key(i), rdf.ID(i), BaseSN) })
				}
				next := rdf.ID(keys)
				var minSN uint32
				for sn := uint32(1); sn <= lastSN; sn++ {
					touched := make([]int, 0, hotKeys+120)
					for i := 0; i < hotKeys; i++ {
						touched = append(touched, i)
					}
					for i := 0; i < 120; i++ {
						// Half the cold appends revisit a small recent set so
						// keys collect boundaries on consecutive SNs too.
						if i%2 == 0 {
							touched = append(touched, hotKeys+rng.Intn(200))
						} else {
							touched = append(touched, rng.Intn(keys))
						}
					}
					for _, i := range touched {
						k := key(i)
						switch rng.Intn(3) {
						case 0:
							vals := make([]rdf.ID, 1+rng.Intn(3))
							for j := range vals {
								next++
								vals[j] = next
							}
							both(func(s *Shard) { s.Append(k, vals, sn) })
						case 1:
							next++
							both(func(s *Shard) { s.AppendOne(k, next, sn) })
						default:
							// Catch-up replay: the SN may lie below the key's
							// newest boundary and is clamped up to it.
							next++
							at := sn - uint32(rng.Intn(int(min(sn, 2))+1))
							both(func(s *Shard) { s.AppendOneFloor(k, next, at) })
						}
					}
					minSN = sn - uint32(rng.Intn(int(min(sn, 2))+1))
					list.PruneSnapshots(minSN)
					walk.PruneSnapshotsWalk(minSN)
					if got, want := list.Memory(), walk.Memory(); got != want {
						t.Fatalf("after prune(%d) at sn=%d: Memory() = %+v, the walk's = %+v", minSN, sn, got, want)
					}
					if got, want := list.MultiBoundaryKeys(), walk.MultiBoundaryKeys(); got != want {
						t.Fatalf("after prune(%d) at sn=%d: %d keys listed, the walk leaves %d", minSN, sn, got, want)
					}
				}
				list.checkMultiInvariant(t)
				walk.checkMultiInvariant(t)
				floor := uint32(0)
				if minSN > 0 {
					floor = minSN - 1
				}
				for i := 0; i < keys; i++ {
					for sn := floor; sn <= lastSN+1; sn++ {
						got, want := list.Get(key(i), sn), walk.Get(key(i), sn)
						if len(got) != len(want) {
							t.Fatalf("Get(%v, %d) sees %d values, the walk-pruned shard %d", key(i), sn, len(got), len(want))
						}
					}
				}
			})
		}
	}
}

// A prune visits what recent snapshots touched, whatever the shard stores:
// the same 50 appends cost the same visits over 10 k and over 100 k keys.
func TestPruneVisitsOnlyTouchedKeys(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		s := NewShard(0, 0)
		for i := 0; i < n; i++ {
			s.AppendOne(EdgeKey(rdf.ID(1+i), 1, Out), 7, BaseSN)
		}
		prune := func(minSN uint32) int64 {
			before := s.PruneVisited()
			s.PruneSnapshots(minSN)
			return s.PruneVisited() - before
		}
		if v := prune(1); v != 0 {
			t.Errorf("N=%d: a prune over single-boundary keys visited %d entries", n, v)
		}
		for sn := uint32(1); sn <= 2; sn++ {
			for i := 0; i < 50; i++ {
				s.AppendOne(EdgeKey(rdf.ID(1+i*(n/50)), 1, Out), rdf.ID(sn), sn)
			}
			if v := prune(sn); v == 0 || v > 100 {
				t.Errorf("N=%d: prune(%d) visited %d entries, want 1..100", n, sn, v)
			}
		}
		// Once the floor passes the last append every key is back to one
		// boundary, and the next prune has nothing to look at.
		if v := prune(3); v == 0 || v > 100 {
			t.Errorf("N=%d: prune(3) visited %d entries, want 1..100", n, v)
		}
		if m := s.Memory(); m.SegBoundaries != m.Entries {
			t.Errorf("N=%d: %d boundaries over %d keys after the floor passed every append", n, m.SegBoundaries, m.Entries)
		}
		if v, listed := prune(4), s.MultiBoundaryKeys(); v != 0 || listed != 0 {
			t.Errorf("N=%d: idle prune visited %d entries with %d keys listed", n, v, listed)
		}
	}
}

// Readers, writers and a pruning loop share a shard (run under -race), under
// the default cap and under a cap of three, where keys spill past their two
// inline boundaries and come back. Every value a reader sees is the one its
// writer put at that position, and once the floor passes the last append the
// lists are empty and every key is back to one boundary.
func TestConcurrentPruneWithReadersAndWriters(t *testing.T) {
	for _, maxSnapshots := range []int{DefaultMaxSnapshots, 3} {
		t.Run(fmt.Sprintf("max=%d", maxSnapshots), func(t *testing.T) {
			concurrentPruneWithReadersAndWriters(t, maxSnapshots)
		})
	}
}

func concurrentPruneWithReadersAndWriters(t *testing.T, maxSnapshots int) {
	const (
		writers = 2
		perW    = 400 // keys per writer
		lastSN  = 30
	)
	s := NewShard(0, maxSnapshots)
	key := func(w, i int) Key { return EdgeKey(rdf.ID(1+w*perW+i), 1, Out) }
	val := func(k Key, pos int) rdf.ID { return rdf.ID(uint64(k.Vid)*1000 + uint64(pos)) }
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			s.AppendOne(key(w, i), val(key(w, i), 0), BaseSN)
		}
	}

	var stable atomic.Uint32 // every writer has finished this SN
	var done [writers]atomic.Uint32
	var writersWG, othersWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for sn := uint32(1); sn <= lastSN; sn++ {
				for n := 0; n < 60; n++ {
					k := key(w, rng.Intn(perW))
					// This writer owns k, so its length cannot move under us.
					s.AppendOne(k, val(k, len(s.GetAll(k))), sn)
				}
				done[w].Store(sn)
				lo := sn
				for i := range done {
					if d := done[i].Load(); d < lo {
						lo = d
					}
				}
				for cur := stable.Load(); lo > cur && !stable.CompareAndSwap(cur, lo); cur = stable.Load() {
				}
			}
		}()
	}
	othersWG.Add(1)
	go func() { // the pruner
		defer othersWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.PruneSnapshots(stable.Load())
			}
		}
	}()
	for r := 0; r < 2; r++ {
		r := r
		othersWG.Add(1)
		go func() {
			defer othersWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := key(rng.Intn(writers), rng.Intn(perW))
				// A reader above every SN always finds a boundary; one at the
				// stable SN may have been overtaken by the cap or the pruner
				// (nothing pins it), so only what it does see is checked.
				sn := stable.Load()
				if rng.Intn(2) == 0 {
					sn = lastSN + 1
				}
				got := s.Get(k, sn)
				if sn > lastSN && len(got) == 0 {
					t.Errorf("Get(%v, %d) sees nothing", k, sn)
					return
				}
				for pos, v := range got {
					if v != val(k, pos) {
						t.Errorf("Get(%v, %d)[%d] = %d, want %d", k, sn, pos, v, val(k, pos))
						return
					}
				}
				if sp := s.GetSpan(k, Span{Start: 0, End: uint32(len(got))}); len(sp) != len(got) {
					t.Errorf("GetSpan(%v, [0,%d)) returned %d values", k, len(got), len(sp))
					return
				}
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	othersWG.Wait()

	s.PruneSnapshots(lastSN + 1)
	s.checkMultiInvariant(t)
	if m := s.Memory(); m.SegBoundaries != m.Entries || s.MultiBoundaryKeys() != 0 {
		t.Errorf("after the final prune: %d boundaries over %d keys, %d keys listed", m.SegBoundaries, m.Entries, s.MultiBoundaryKeys())
	}
}
