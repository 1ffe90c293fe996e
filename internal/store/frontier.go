package store

import (
	"slices"
	"sync"

	"repro/internal/fabric"
	"repro/internal/rdf"
)

// A frontier read serves many keys in one call: a traversal step's whole
// intermediate table (the paper explores the graph one step at a time over
// it), or a delta firing's batch edge list. Read one key at a time, every key
// pays an atomic counter add, a stripe RLock and an RUnlock: three locked
// read-modify-writes, each of which waits for every earlier load, so each
// key's chain of dependent cache misses (table cell → slab entry → value
// list) runs alone — and concurrent readers hand the counter's and the lock
// words' cache lines back and forth. Grouped by (home, stripe), a read takes
// one RLock per stripe it touches and probes every table cell of the group
// before it reads any entry, so the misses of independent keys overlap; the
// counter moves once per call.

// groups is the number of key groups per home: one per stripe, and one for
// the keys outside the [vid|pid|dir] word, which read nothing.
const groups = stripes + 1

// frontier is one grouped read's scratch. It is pooled and holds no pointer
// into the store, so a read allocates nothing once the pool has one large
// enough.
type frontier struct {
	words []uint64 // per key: its packed word
	group []int32  // per key: home*groups + stripe
	// ends[g] is, once sorted, the end in order of group g's keys.
	ends  []int32
	order []int32  // key indexes by group, in key order within one
	at1   []uint32 // per position in order: the key's slab slot + 1, or 0
}

var frontiers = sync.Pool{New: func() any { return new(frontier) }}

// grow returns s resized to n, reusing its array when it is large enough.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// frontierFor takes a pooled frontier and places keys in it, each under
// the home g assigns its vertex.
func (g *Sharded) frontierFor(n int, key func(i int) Key) *frontier {
	fr := frontiers.Get().(*frontier)
	fr.words = grow(fr.words, n)
	fr.group = grow(fr.group, n)
	fr.order = grow(fr.order, n)
	fr.at1 = grow(fr.at1, n)
	fr.ends = grow(fr.ends, len(g.shards)*groups)
	clear(fr.ends)
	for i := range n {
		k := key(i)
		w, ok := pack(k)
		st := stripes
		if ok {
			st = stripeOf(w)
		}
		grp := int32(int(g.HomeOf(k.Vid))*groups + st)
		fr.words[i], fr.group[i] = w, grp
		fr.ends[grp]++
	}
	// A counting sort: starts first, then each placement moves its group's
	// start up, so every group ends where the next one starts.
	var sum int32
	for grp, c := range fr.ends {
		fr.ends[grp] = sum
		sum += c
	}
	for i, grp := range fr.group {
		fr.order[fr.ends[grp]] = int32(i)
		fr.ends[grp]++
	}
	return fr
}

// home returns the indexes of the keys homed on node h.
func (fr *frontier) home(h int) []int32 {
	lo := int32(0)
	if h > 0 {
		lo = fr.ends[h*groups-1]
	}
	return fr.order[lo:fr.ends[h*groups+groups-1]]
}

// read fills out[i] for every key i: its values visible at sn or, when spans
// is not nil, the values spans[i] covers — what Shard.Get and Shard.GetSpan
// return for it.
func (fr *frontier) read(shards []*Shard, sn uint32, spans []KeySpan, out [][]rdf.ID) {
	var lo int32
	for grp, hi := range fr.ends {
		if hi == lo {
			continue
		}
		idx, at1 := fr.order[lo:hi], fr.at1[lo:hi]
		lo = hi
		st := grp % groups
		if st == stripes {
			for _, i := range idx {
				out[i] = nil
			}
			continue
		}
		shards[grp/groups].readStripe(st, fr.words, idx, at1, sn, spans, out)
	}
}

// readStripe reads the keys idx, all of stripe st, under one RLock: it probes
// every key's cell into at1 before it reads any entry.
func (s *Shard) readStripe(st int, words []uint64, idx []int32, at1 []uint32, sn uint32, spans []KeySpan, out [][]rdf.ID) {
	s.mu[st].RLock()
	t := &s.kv[st]
	for j, i := range idx {
		at1[j] = 0
		if at, ok := t.get(words[i]); ok {
			at1[j] = at + 1
		}
	}
	for j, i := range idx {
		if at1[j] == 0 {
			out[i] = nil
			continue
		}
		e := s.at(st, at1[j]-1)
		if spans == nil {
			out[i] = e.visible(s.segs(st, e), sn)
		} else {
			out[i] = e.span(count(s.segs(st, e)), spans[i].Span)
		}
	}
	s.mu[st].RUnlock()
}

// ReadFrontier is ReadValues for many keys in one call: out[i] gets keys[i]'s
// values visible at snapshot sn. Values, OpStats and the fabric's counters,
// pair traffic and charged time come out exactly as a ReadValues per key
// would leave them; each remote home is charged once, for all its reads.
// out must be at least as long as keys; duplicate keys each get their
// values. The slices alias the store and are read-only.
func (g *Sharded) ReadFrontier(from fabric.NodeID, keys []Key, sn uint32, out [][]rdf.ID) {
	if len(keys) == 0 {
		return
	}
	g.reads.Add(int64(len(keys)))
	fr := g.frontierFor(len(keys), func(i int) Key { return keys[i] })
	fr.read(g.shards, sn, nil, out)
	for h := range g.shards {
		idx := fr.home(h)
		if fabric.NodeID(h) == from || len(idx) == 0 {
			continue
		}
		// A remote key costs a key lookup and a value read (ReadValues).
		var r fabric.Reads
		for _, i := range idx {
			g.fab.AddRead(&r, 16)
			g.fab.AddRead(&r, 8*len(out[i]))
		}
		g.fab.ReadRemoteBatch(from, fabric.NodeID(h), r)
	}
	frontiers.Put(fr)
}
