package store

import (
	"cmp"
	"slices"

	"repro/internal/rdf"
)

// Ord is a key packed into one word whose order is the batch order:
// predicate, then direction, then vertex. A sealed mini-batch's stream index
// and transient slice are arrays sorted by it, so the keys of one (pid, dir)
// form one run, in vertex order, and a key's entries sit side by side.
type Ord uint64

// ordVidBits is the width of the vertex field: the low bits of an Ord.
const ordVidBits = 46

// Ord returns k packed in batch order.
func (k Key) Ord() Ord {
	return Ord(uint64(k.Pid)<<(ordVidBits+1) | uint64(k.Dir)<<ordVidBits | uint64(k.Vid))
}

// Vid returns the key's vertex.
func (o Ord) Vid() rdf.ID { return rdf.ID(o) & rdf.MaxEntityID }

// Key unpacks o.
func (o Ord) Key() Key {
	return Key{Vid: o.Vid(), Pid: rdf.ID(o >> (ordVidBits + 1)), Dir: Dir(o>>ordVidBits) & 1}
}

// Run returns the (pid, dir) part of o: keys with equal Run form one run.
func (o Ord) Run() uint64 { return uint64(o) >> ordVidBits }

// Run is one (pid, dir)'s stretch [Lo, Hi) of an array in batch order, with
// the counts the planner reads: values stored under its keys, and its
// distinct keys — the vertices that carry a pid edge in direction d.
type Run struct {
	Pred     uint64 // Ord.Run of its keys
	Lo, Hi   int32
	Values   int64
	Vertices int32
}

// BuildRuns returns the run directory of es, an array in batch order, in one
// pass: ord reads an element's key and values its value count. The
// directory is built in dst's array.
func BuildRuns[E any](dst []Run, es []E, ord func(*E) Ord, values func(*E) int64) []Run {
	dst = dst[:0]
	for i := range es {
		o := ord(&es[i])
		if i == 0 || o.Run() != ord(&es[i-1]).Run() {
			dst = append(dst, Run{Pred: o.Run(), Lo: int32(i), Hi: int32(i)})
		}
		r := &dst[len(dst)-1]
		if r.Hi == r.Lo || ord(&es[i-1]) != o {
			r.Vertices++
		}
		r.Hi++
		r.Values += values(&es[i])
	}
	return dst
}

// FindRun returns (pid, d)'s run in a run directory, or an empty Run.
func FindRun(runs []Run, pid rdf.ID, d Dir) Run {
	pred := EdgeKey(0, pid, d).Ord().Run()
	if i, ok := slices.BinarySearchFunc(runs, pred, func(r Run, p uint64) int { return cmp.Compare(r.Pred, p) }); ok {
		return runs[i]
	}
	return Run{}
}
