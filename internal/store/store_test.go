package store

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

func TestDir(t *testing.T) {
	if In.Reverse() != Out || Out.Reverse() != In {
		t.Error("Reverse wrong")
	}
	if In.String() != "in" || Out.String() != "out" {
		t.Error("Dir strings wrong")
	}
}

func TestKeyHelpers(t *testing.T) {
	k := EdgeKey(7, 4, Out)
	if k.Vid != 7 || k.Pid != 4 || k.Dir != Out || k.IsIndex() {
		t.Errorf("EdgeKey = %v", k)
	}
	idx := IndexKey(4, In)
	if !idx.IsIndex() || idx.Pid != 4 {
		t.Errorf("IndexKey = %v", idx)
	}
	if k.String() != "[7|4|1]" {
		t.Errorf("String = %q", k.String())
	}
}

func TestShardAppendGet(t *testing.T) {
	s := NewShard(0, 0)
	k := EdgeKey(1, 4, Out)
	sp := s.Append(k, []rdf.ID{5, 6}, BaseSN)
	if sp != (Span{Start: 0, End: 2}) {
		t.Errorf("span = %v", sp)
	}
	got := s.Get(k, BaseSN)
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Errorf("Get = %v", got)
	}
	if s.Get(EdgeKey(2, 4, Out), BaseSN) != nil {
		t.Error("missing key returned values")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSnapshotVisibility(t *testing.T) {
	s := NewShard(0, 4)
	k := EdgeKey(1, 4, Out)
	s.Append(k, []rdf.ID{5, 6}, 0) // base
	s.Append(k, []rdf.ID{7}, 2)    // snapshot 2
	s.Append(k, []rdf.ID{8, 9}, 3) // snapshot 3

	cases := []struct {
		sn   uint32
		want int
	}{{0, 2}, {1, 2}, {2, 3}, {3, 5}, {9, 5}}
	for _, c := range cases {
		if got := len(s.Get(k, c.sn)); got != c.want {
			t.Errorf("Get(sn=%d) has %d values, want %d", c.sn, got, c.want)
		}
	}
}

func TestSnapshotInvisibleBeforeCreation(t *testing.T) {
	s := NewShard(0, 4)
	k := EdgeKey(9, 1, Out)
	s.Append(k, []rdf.ID{1}, 5)
	if got := s.Get(k, 4); len(got) != 0 {
		t.Errorf("pre-creation snapshot sees %v", got)
	}
	if got := s.Get(k, 5); len(got) != 1 {
		t.Errorf("creation snapshot sees %v", got)
	}
}

func TestSnapshotRegressionPanics(t *testing.T) {
	s := NewShard(0, 4)
	k := EdgeKey(1, 1, Out)
	s.Append(k, []rdf.ID{1}, 3)
	defer func() {
		if recover() == nil {
			t.Error("snapshot regression did not panic")
		}
	}()
	s.Append(k, []rdf.ID{2}, 2)
}

func TestAppendOneMatchesAppend(t *testing.T) {
	a := NewShard(0, 2)
	b := NewShard(0, 2)
	k := EdgeKey(3, 2, In)
	for i := rdf.ID(1); i <= 10; i++ {
		sn := uint32(i / 3)
		a.Append(k, []rdf.ID{i}, sn)
		sp, wasEmpty := b.AppendOne(k, i, sn)
		if (i == 1) != wasEmpty {
			t.Errorf("wasEmpty = %v at i=%d", wasEmpty, i)
		}
		if sp.Len() != 1 {
			t.Errorf("AppendOne span = %v", sp)
		}
	}
	for sn := uint32(0); sn <= 4; sn++ {
		av, bv := a.Get(k, sn), b.Get(k, sn)
		if len(av) != len(bv) {
			t.Errorf("sn=%d: Append saw %d, AppendOne saw %d", sn, len(av), len(bv))
		}
	}
}

func TestMaxSnapshotsBound(t *testing.T) {
	s := NewShard(0, 2)
	k := EdgeKey(1, 1, Out)
	for sn := uint32(0); sn < 10; sn++ {
		s.Append(k, []rdf.ID{rdf.ID(sn)}, sn)
	}
	m := s.Memory()
	if m.SegBoundaries > 2 {
		t.Errorf("SegBoundaries = %d, want ≤ 2", m.SegBoundaries)
	}
	// The newest snapshots stay readable.
	if got := len(s.Get(k, 9)); got != 10 {
		t.Errorf("newest snapshot sees %d values", got)
	}
	if got := len(s.Get(k, 8)); got != 9 {
		t.Errorf("second-newest snapshot sees %d values", got)
	}
}

func TestPruneSnapshots(t *testing.T) {
	s := NewShard(0, 16)
	k := EdgeKey(1, 1, Out)
	for sn := uint32(0); sn < 8; sn++ {
		s.Append(k, []rdf.ID{rdf.ID(sn)}, sn)
	}
	before := s.Memory().SegBoundaries
	if before != 8 {
		t.Fatalf("SegBoundaries = %d, want 8", before)
	}
	s.PruneSnapshots(6)
	after := s.Memory().SegBoundaries
	if after != 3 { // floor (sn=5) + 6 + 7
		t.Errorf("SegBoundaries after prune = %d, want 3", after)
	}
	// Readers at or above minSN-1 (the floor) still see correct prefixes.
	if got := len(s.Get(k, 6)); got != 7 {
		t.Errorf("Get(6) = %d values, want 7", got)
	}
	if got := len(s.Get(k, 7)); got != 8 {
		t.Errorf("Get(7) = %d values, want 8", got)
	}
}

func TestGetSpan(t *testing.T) {
	s := NewShard(0, 0)
	k := EdgeKey(7, 3, In)
	s.Append(k, []rdf.ID{2, 9, 10}, 1)
	sp := s.Append(k, []rdf.ID{12, 13}, 2)
	got := s.GetSpan(k, sp)
	if len(got) != 2 || got[0] != 12 || got[1] != 13 {
		t.Errorf("GetSpan = %v", got)
	}
	if s.GetSpan(k, Span{Start: 0, End: 99}) != nil {
		t.Error("out-of-range span returned values")
	}
	if s.GetSpan(EdgeKey(8, 3, In), Span{0, 1}) != nil {
		t.Error("missing key span returned values")
	}
}

func TestGetAll(t *testing.T) {
	s := NewShard(0, 2)
	k := EdgeKey(1, 1, Out)
	s.Append(k, []rdf.ID{1, 2}, 0)
	s.Append(k, []rdf.ID{3}, 5)
	if got := s.GetAll(k); len(got) != 3 {
		t.Errorf("GetAll = %v", got)
	}
	if s.GetAll(EdgeKey(2, 1, Out)) != nil {
		t.Error("GetAll on missing key returned values")
	}
}

func TestConcurrentAppendsDistinctKeys(t *testing.T) {
	s := NewShard(0, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := EdgeKey(rdf.ID(w*1000+i), 1, Out)
				s.AppendOne(k, rdf.ID(i), 0)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", s.Len(), 8*200)
	}
}

// A reader pinned at a snapshot sees an immutable prefix while a writer
// appends under later snapshots and a pruner collapses metadata at or below
// the reader's SN. The shard has room for every boundary, as in
// TestSnapshotPrefixProperty, or, under a cap of three, the writer stops two
// snapshots past the reader's, so the key holds three boundaries — spilled
// out of the entry — without the cap overtaking the reader: what the cap does
// to a reader it overtakes is TestCapAndPruneKeepReadersAtOrAboveFloor's
// subject, not this test's.
func TestConcurrentReadersDuringAppends(t *testing.T) {
	for _, maxSnapshots := range []int{1 << 30, 3} {
		t.Run(fmt.Sprintf("max=%d", maxSnapshots), func(t *testing.T) {
			const pinned = 3
			s := NewShard(0, maxSnapshots)
			k := EdgeKey(1, 1, Out)
			s.Append(k, []rdf.ID{1, 2, 3}, 0)
			for sn := uint32(1); sn <= pinned; sn++ {
				s.AppendOne(k, rdf.ID(100+sn), sn)
			}
			want := []rdf.ID{1, 2, 3, 101, 102, 103}
			last := uint32(min(200, pinned+maxSnapshots-1))

			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := uint32(pinned + 1); i <= 200; i++ {
					s.AppendOne(k, rdf.ID(100+i), min(i, last))
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					s.PruneSnapshots(uint32(i % (pinned + 1)))
				}
			}()
			for i := 0; i < 1000; i++ {
				if got := s.Get(k, pinned); !slices.Equal(got, want) {
					t.Fatalf("read %d: snapshot-%d prefix changed under appends and prunes: %v", i, pinned, got)
				}
			}
			wg.Wait()
			s.checkMultiInvariant(t)
		})
	}
}

// The contract the store does give: neither the hard cap nor a prune changes
// what a reader at or above the floor sees. The floor is the oldest SN still
// readable — minSN-1 after PruneSnapshots(minSN), the oldest retained boundary
// after the cap. (Below the floor a reader is not protected: once the cap
// drops every boundary ≤ its SN, visibleLen answers 0. DESIGN.md §6 records
// that gap for in-flight one-shots.)
func TestCapAndPruneKeepReadersAtOrAboveFloor(t *testing.T) {
	for _, maxSnapshots := range []int{1, 2, 3, 5} {
		ref := NewShard(0, 1<<30) // never capped, never pruned
		s := NewShard(0, maxSnapshots)
		k := EdgeKey(1, 1, Out)
		const last = 12
		floor := uint32(0) // only ever rises
		for sn := uint32(0); sn <= last; sn++ {
			sameAsRefFromFloor := func(after string) {
				t.Helper()
				for at := floor; at <= sn+1; at++ {
					if got, want := len(s.Get(k, at)), len(ref.Get(k, at)); got != want {
						t.Fatalf("max=%d after %s at sn=%d: Get(%d) sees %d values, want %d", maxSnapshots, after, sn, at, got, want)
					}
				}
			}
			for _, sh := range []*Shard{ref, s} {
				sh.Append(k, []rdf.ID{rdf.ID(2 * sn), rdf.ID(2*sn + 1)}, sn)
			}
			// The cap keeps at least the newest maxSnapshots SNs readable.
			if capFloor := int(sn) - maxSnapshots + 1; capFloor > int(floor) {
				floor = uint32(capFloor)
			}
			sameAsRefFromFloor("append")
			// A prune at minSN keeps every reader ≥ minSN-1 whole (and cannot
			// resurrect what the cap already dropped).
			if sn%3 == 2 {
				minSN := sn - 1
				s.PruneSnapshots(minSN)
				floor = max(floor, minSN-1)
				sameAsRefFromFloor(fmt.Sprintf("prune(%d)", minSN))
			}
		}
	}
}

// Property: for any append schedule with non-decreasing SNs, a reader at
// snapshot s sees exactly the values appended with SN ≤ s (prefix integrity).
func TestSnapshotPrefixProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewShard(0, 1<<30) // effectively unbounded; pruning tested separately
		k := EdgeKey(1, 1, Out)
		// Build a non-decreasing SN schedule from raw deltas (0..2).
		sns := make([]uint32, len(raw))
		sn := uint32(0)
		for i, d := range raw {
			sn += uint32(d % 3)
			sns[i] = sn
			s.AppendOne(k, rdf.ID(i+1), sn)
		}
		for _, probe := range []uint32{0, 1, sn / 2, sn} {
			want := 0
			for _, x := range sns {
				if x <= probe {
					want++
				}
			}
			if len(s.Get(k, probe)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMemoryStats(t *testing.T) {
	s := NewShard(0, 2)
	s.Append(EdgeKey(1, 1, Out), []rdf.ID{1, 2, 3}, 0)
	s.Append(EdgeKey(2, 1, Out), []rdf.ID{4}, 0)
	m := s.Memory()
	if m.Entries != 2 || m.Values != 4 {
		t.Errorf("Memory = %+v", m)
	}
	if m.ValueBytes != 32 || m.KeyBytes != 16 {
		t.Errorf("byte accounting = %+v", m)
	}
	if alt := m.VTSAlternativeBytes(5); alt <= m.ScalarizedCost {
		t.Errorf("VTS alternative (%d) should exceed scalarized cost (%d)", alt, m.ScalarizedCost)
	}
}

func newTestSharded(t *testing.T, nodes int) (*Sharded, *strserver.Server) {
	t.Helper()
	f := fabric.New(fabric.DefaultConfig(nodes))
	return NewSharded(f, 0), strserver.New()
}

func TestShardedInsertAndRead(t *testing.T) {
	g, ss := newTestSharded(t, 4)
	logan := ss.InternEntity(rdf.NewIRI("Logan"))
	t15 := ss.InternEntity(rdf.NewIRI("T-15"))
	po := must(ss.InternPredicate("po"))

	var spans []KeySpan
	g.Insert(strserver.EncodedTriple{S: logan, P: po, O: t15}, 1, false, &spans)
	if len(spans) != 4 { // out edge + out index + in edge + in index (all first-sight)
		t.Fatalf("got %d spans: %v", len(spans), spans)
	}

	// Forward exploration: Logan --po--> ?
	vals := g.ShardOf(logan).Get(EdgeKey(logan, po, Out), 1)
	if len(vals) != 1 || vals[0] != t15 {
		t.Errorf("out edge = %v", vals)
	}
	// Backward: ? --po--> T-15
	vals = g.ShardOf(t15).Get(EdgeKey(t15, po, In), 1)
	if len(vals) != 1 || vals[0] != logan {
		t.Errorf("in edge = %v", vals)
	}
	// Index vertices live on the endpoint's home node.
	idx := g.ReadLocalIndex(g.HomeOf(t15), po, In, 1)
	if len(idx) != 1 || idx[0] != t15 {
		t.Errorf("in index = %v", idx)
	}
}

func TestShardedIndexDedup(t *testing.T) {
	g, ss := newTestSharded(t, 2)
	a := ss.InternEntity(rdf.NewIRI("a"))
	b := ss.InternEntity(rdf.NewIRI("b"))
	c := ss.InternEntity(rdf.NewIRI("c"))
	p := must(ss.InternPredicate("p"))
	g.Insert(strserver.EncodedTriple{S: a, P: p, O: b}, 0, false, nil)
	g.Insert(strserver.EncodedTriple{S: a, P: p, O: c}, 0, false, nil)
	idx := g.Shard(g.HomeOf(a)).Get(IndexKey(p, Out), 0)
	if len(idx) != 1 || idx[0] != a {
		t.Errorf("subject indexed %v times: %v", len(idx), idx)
	}
	edges, subjects, objects := g.Stats(p)
	if edges != 2 || subjects != 1 || objects != 2 {
		t.Errorf("stats = %d, %d, %d", edges, subjects, objects)
	}
}

func TestShardedStatsUnseenPredicate(t *testing.T) {
	g, _ := newTestSharded(t, 2)
	if e, s, o := g.Stats(42); e != 0 || s != 0 || o != 0 {
		t.Error("unseen predicate has nonzero stats")
	}
}

func TestShardedReadChargesFabric(t *testing.T) {
	f := fabric.New(fabric.DefaultConfig(4))
	g := NewSharded(f, 0)
	ss := strserver.New()
	// Find an entity not homed on node 0.
	var vid rdf.ID
	for i := 0; ; i++ {
		vid = ss.InternEntity(rdf.NewIRI(string(rune('a' + i))))
		if g.HomeOf(vid) != 0 {
			break
		}
	}
	p := must(ss.InternPredicate("p"))
	g.Insert(strserver.EncodedTriple{S: vid, P: p, O: vid}, 0, false, nil)
	f.ResetStats()

	g.Read(0, EdgeKey(vid, p, Out), 0)
	if got := f.Stats().RDMAReads; got != 2 {
		t.Errorf("remote Read issued %d RDMA reads, want 2 (lookup + value)", got)
	}
	f.ResetStats()
	g.ReadSpan(0, EdgeKey(vid, p, Out), Span{0, 1})
	if got := f.Stats().RDMAReads; got != 1 {
		t.Errorf("remote ReadSpan issued %d RDMA reads, want 1", got)
	}
	f.ResetStats()
	g.Read(g.HomeOf(vid), EdgeKey(vid, p, Out), 0)
	if got := f.Stats().RDMAReads; got != 0 {
		t.Errorf("local Read issued %d RDMA reads", got)
	}
}

func TestShardedLoadBaseVisibleAtBaseSN(t *testing.T) {
	g, ss := newTestSharded(t, 3)
	var triples []strserver.EncodedTriple
	p := must(ss.InternPredicate("fo"))
	for i := 0; i < 50; i++ {
		s := ss.InternEntity(rdf.NewIntLiteral(int64(i)))
		o := ss.InternEntity(rdf.NewIntLiteral(int64(i + 1)))
		triples = append(triples, strserver.EncodedTriple{S: s, P: p, O: o})
	}
	g.LoadBase(triples)
	for _, tr := range triples {
		if got := g.ShardOf(tr.S).Get(EdgeKey(tr.S, p, Out), BaseSN); len(got) == 0 {
			t.Fatalf("base triple %v invisible at base SN", tr)
		}
	}
	m := g.Memory()
	if m.Values == 0 || m.Entries == 0 {
		t.Errorf("cluster memory empty: %+v", m)
	}
}

func TestShardedConcurrentInsert(t *testing.T) {
	g, ss := newTestSharded(t, 4)
	p := must(ss.InternPredicate("li"))
	// Pre-intern entities to avoid measuring the string server.
	ids := make([]rdf.ID, 400)
	for i := range ids {
		ids[i] = ss.InternEntity(rdf.NewIntLiteral(int64(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Distinct (s,o) pairs per worker: no index dedup races by construction.
				g.Insert(strserver.EncodedTriple{S: ids[w*100+i], P: p, O: ids[(w*100+i+1)%400]}, 1, false, nil)
			}
		}(w)
	}
	wg.Wait()
	edges, _, _ := g.Stats(p)
	if edges != 400 {
		t.Errorf("edges = %d, want 400", edges)
	}
}
