package store

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// twinStores builds two identical stores over their own fabrics of n nodes:
// keys with one, two or three snapshot boundaries (SNs 1–3) and a few values
// under each. It returns the stores and the keys written.
func twinStores(t *testing.T, nodes int) (a, b *Sharded, written []Key) {
	t.Helper()
	build := func() *Sharded {
		g := NewSharded(fabric.New(fabric.DefaultConfig(nodes)), 4)
		for j := 0; j < 300; j++ {
			k := EdgeKey(rdf.ID(1+j), rdf.ID(1+j%3), Dir(j%2))
			for sn := uint32(1); sn <= uint32(1+j%3); sn++ {
				for v := 0; v <= j%4; v++ {
					g.ShardOf(k.Vid).AppendOne(k, rdf.ID(1000*j+10*int(sn)+v), sn)
				}
			}
		}
		return g
	}
	a, b = build(), build()
	for j := 0; j < 300; j++ {
		written = append(written, EdgeKey(rdf.ID(1+j), rdf.ID(1+j%3), Dir(j%2)))
	}
	return a, b, written
}

// frontierKeys is a frontier with every case a read must get right: stored
// keys in a scrambled order, each twice, keys never written (an unknown
// vertex, a known vertex under another predicate), vids past
// rdf.MaxEntityID and a pid past the predicate space.
func frontierKeys(written []Key) []Key {
	var keys []Key
	for i := range written {
		keys = append(keys, written[(i*37)%len(written)])
	}
	keys = append(keys, written[:50]...)
	keys = append(keys,
		EdgeKey(5000, 1, Out),
		EdgeKey(written[0].Vid, 2, written[0].Dir),
		EdgeKey(rdf.MaxEntityID+1, 1, Out),
		EdgeKey(rdf.MaxEntityID+12345, 2, In),
		EdgeKey(7, strserver.MaxPredicateID+1, Out),
	)
	return keys
}

// sameTraffic fails unless the two stores' fabrics and operation counters
// agree: every counter, the charged time and every node pair's traffic.
func sameTraffic(t *testing.T, when string, got, want *Sharded) {
	t.Helper()
	if g, w := got.fab.Stats(), want.fab.Stats(); g != w {
		t.Errorf("%s: fabric stats %+v, want %+v", when, g, w)
	}
	if g, w := got.OpStats(), want.OpStats(); g != w {
		t.Errorf("%s: OpStats %+v, want %+v", when, g, w)
	}
	n := got.fab.Nodes()
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			gm, gb := got.fab.PairTraffic(fabric.NodeID(from), fabric.NodeID(to))
			wm, wb := want.fab.PairTraffic(fabric.NodeID(from), fabric.NodeID(to))
			if gm != wm || gb != wb {
				t.Errorf("%s: pair %d→%d carried %d msgs / %d bytes, want %d / %d", when, from, to, gm, gb, wm, wb)
			}
		}
	}
}

// TestReadFrontierMatchesReadValues: a frontier read returns, for every key,
// what ReadValues returns, and leaves the store's and the fabric's counters
// where a ReadValues per key leaves them — from every node, at every SN.
func TestReadFrontierMatchesReadValues(t *testing.T) {
	const nodes = 3
	one, batch, written := twinStores(t, nodes)
	keys := frontierKeys(written)
	homes := map[fabric.NodeID]bool{}
	for _, k := range keys {
		homes[one.HomeOf(k.Vid)] = true
	}
	if len(homes) != nodes {
		t.Fatalf("the frontier's keys are homed on %d of %d nodes", len(homes), nodes)
	}
	out := make([][]rdf.ID, len(keys))
	for from := fabric.NodeID(0); from < nodes; from++ {
		for sn := uint32(0); sn <= 4; sn++ {
			when := fmt.Sprintf("from node %d at SN %d", from, sn)
			batch.ReadFrontier(from, keys, sn, out)
			for i, k := range keys {
				want := one.ReadValues(from, k, sn)
				if !slices.Equal(out[i], want) || (out[i] == nil) != (want == nil) {
					t.Fatalf("%s: key %v read %v, ReadValues %v", when, k, out[i], want)
				}
			}
			sameTraffic(t, when, batch, one)
		}
	}
	// The SNs must have told the boundaries apart.
	k := written[2] // three boundaries
	if a, b := one.ShardOf(k.Vid).Get(k, 1), one.ShardOf(k.Vid).Get(k, 3); len(a) >= len(b) {
		t.Errorf("key %v reads %v at SN 1 and %v at SN 3", k, a, b)
	}
	batch.ReadFrontier(0, nil, 0, nil)
	sameTraffic(t, "after an empty frontier", batch, one)
}

// TestGatherSpansMatchesGetSpan: GatherSpans returns each span's values as
// GetSpan does, counts one span read per span, and charges one read per
// remote home that sent values, sized by what that home sent.
func TestGatherSpansMatchesGetSpan(t *testing.T) {
	const nodes = 3
	g, _, written := twinStores(t, nodes)
	var kss []KeySpan
	for i, k := range frontierKeys(written) {
		kss = append(kss, KeySpan{Key: k, Span: Span{Start: uint32(i % 2), End: uint32(1 + i%4)}})
	}
	for from := fabric.NodeID(0); from < nodes; from++ {
		before, ops := g.fab.Stats(), g.OpStats()
		got := g.GatherSpans(from, kss)
		perHome := make([]int, nodes)
		for i, ks := range kss {
			want := g.ShardOf(ks.Key.Vid).GetSpan(ks.Key, ks.Span)
			if !slices.Equal(got[i], want) || (got[i] == nil) != (want == nil) {
				t.Fatalf("from %d: %v read %v, GetSpan %v", from, ks, got[i], want)
			}
			if h := g.HomeOf(ks.Key.Vid); h != from {
				perHome[h] += 8 * len(want)
			}
		}
		reads, bytes := int64(0), int64(0)
		for _, b := range perHome {
			if b > 0 {
				reads++
				bytes += int64(b)
			}
		}
		after := g.fab.Stats()
		if after.RDMAReads-before.RDMAReads != reads || after.BytesRead-before.BytesRead != bytes {
			t.Errorf("from %d: charged %d reads / %d bytes, want %d / %d", from,
				after.RDMAReads-before.RDMAReads, after.BytesRead-before.BytesRead, reads, bytes)
		}
		if d := g.OpStats().SpanReads - ops.SpanReads; d != int64(len(kss)) {
			t.Errorf("from %d: %d span reads counted for %d spans", from, d, len(kss))
		}
	}
}

// TestReadFrontierDuringAppends runs frontier readers against a writer that
// appends to the same stripes, at rising SNs, and adds keys until every
// stripe's table has doubled several times (make race runs it). A reader
// sees each key's values as a prefix of what was appended, and nothing past
// its snapshot.
func TestReadFrontierDuringAppends(t *testing.T) {
	g := NewSharded(fabric.New(fabric.DefaultConfig(2)), 0)
	const hot, added = 64, 8000
	hotKeys := make([]Key, hot)
	for i := range hotKeys {
		hotKeys[i] = EdgeKey(rdf.ID(1+i), 1, Out)
		g.ShardOf(hotKeys[i].Vid).AppendOne(hotKeys[i], 0, 1)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			keys := slices.Clone(hotKeys)
			for i := 0; i < 256; i++ {
				keys = append(keys, EdgeKey(rdf.ID(1000+i*31), 2, In))
			}
			out := make([][]rdf.ID, len(keys))
			for sn := uint32(1); ; sn++ {
				select {
				case <-done:
					return
				default:
				}
				g.ReadFrontier(fabric.NodeID(r), keys, sn, out)
				for i, vals := range out {
					for j, v := range vals {
						if i < hot && v != rdf.ID(j) || i >= hot && v != keys[i].Vid {
							t.Errorf("key %v at SN %d read %v", keys[i], sn, vals)
							return
						}
					}
					if i < hot && len(vals) > int(sn) {
						t.Errorf("key %v at SN %d read %d values, past its snapshot", keys[i], sn, len(vals))
						return
					}
				}
			}
		}(r)
	}
	for i := 0; i < added; i++ {
		k := EdgeKey(rdf.ID(1000+i), 2, In)
		g.ShardOf(k.Vid).AppendOne(k, k.Vid, 1)
		if i%100 == 0 {
			hk := hotKeys[i/100%hot]
			n := len(g.ShardOf(hk.Vid).GetAll(hk))
			g.ShardOf(hk.Vid).AppendOne(hk, rdf.ID(n), uint32(n+1))
		}
	}
	close(done)
	wg.Wait()
	for _, s := range g.shards {
		for st := range s.kv {
			if len(s.kv[st].cells) < 4*minTableCells {
				t.Fatalf("stripe %d holds a table of %d cells: the appends did not force doublings", st, len(s.kv[st].cells))
			}
		}
	}
}
