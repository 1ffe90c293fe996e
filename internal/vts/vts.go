// Package vts implements Wukong+S's consistency machinery (§4.3):
// decentralized vector timestamps with bounded snapshot scalarization.
//
// Each node reports a local vector timestamp (Local_VTS): for every stream,
// the newest batch whose insertion has completed on that node. The stable
// vector timestamp (Stable_VTS) is the element-wise minimum across nodes;
// a continuous query fires only when Stable_VTS covers the batches its next
// window needs, which yields prefix integrity — streaming data becomes
// visible in arrival order.
//
// For one-shot queries, vector timestamps are projected onto scalar snapshot
// numbers (SN). The coordinator publishes SN–VTS plans in advance: plan k
// maps SN k to a target VTS. An injector tags all data of a batch with the
// batch's planned SN, and keeps batches with equal SN consecutive in the
// store. A node's Local_SN advances to k once its Local_VTS reaches plan k's
// target; Stable_SN = min over nodes. One-shot queries read at Stable_SN and
// each key needs only O(retained snapshots) metadata.
package vts

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fabric"
	"repro/internal/tstore"
)

// StreamID indexes a registered stream.
type StreamID int

// VTS is a vector timestamp: per stream, a batch number. Batch 0 means "no
// batch inserted yet".
type VTS []tstore.BatchID

// Covers reports whether v ≥ other element-wise over other's length.
// A shorter v never covers a longer other (unknown streams count as 0).
func (v VTS) Covers(other VTS) bool {
	if len(v) < len(other) {
		return false
	}
	for i := range other {
		if v[i] < other[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of v.
func (v VTS) Clone() VTS {
	out := make(VTS, len(v))
	copy(out, v)
	return out
}

func (v VTS) String() string {
	s := "["
	for i, b := range v {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("S%d=%d", i, b)
	}
	return s + "]"
}

// Plan maps a snapshot number to a target vector timestamp: all batches up
// to Target belong to snapshots ≤ SN.
type Plan struct {
	SN     uint32
	Target VTS
}

// Coordinator tracks local/stable VTS across nodes and manages the SN–VTS
// plan sequence. The paper runs a coordinator per node exchanging vector
// timestamps; this implementation centralizes the state (the exchange is an
// in-process update) and charges the gossip traffic to the fabric.
type Coordinator struct {
	mu sync.Mutex

	fab      *fabric.Fabric // may be nil (no traffic accounting)
	nodes    int
	interval tstore.BatchID // plan step: batches per snapshot per stream

	streams  int
	rates    []float64 // batches per snapshot, per stream
	addedAt  []uint32  // plan SN when the stream was registered
	local    []VTS     // [node][stream]
	localSN  []uint32
	stable   VTS
	stableSN uint32

	plans      []Plan // ascending SN; plans[0] is the oldest retained
	nextSN     uint32
	stallWaits int64 // injector arrivals that outran the published plans
	published  int64 // total plans ever published (monotonic; plans is pruned)
}

// DefaultInterval is the default number of batches per stream covered by one
// snapshot plan. Interval 1 gives the freshest one-shot results but couples
// injectors most tightly (§4.3's staleness/flexibility trade-off).
const DefaultInterval = 1

// NewCoordinator creates a coordinator for a cluster of nodes and an initial
// number of streams. fab may be nil to skip traffic accounting.
func NewCoordinator(fab *fabric.Fabric, nodes, streams int, interval tstore.BatchID) *Coordinator {
	if nodes < 1 {
		panic("vts: coordinator requires at least one node")
	}
	if interval < 1 {
		interval = DefaultInterval
	}
	c := &Coordinator{
		fab:      fab,
		nodes:    nodes,
		interval: interval,
		streams:  streams,
		rates:    make([]float64, streams),
		addedAt:  make([]uint32, streams),
		local:    make([]VTS, nodes),
		localSN:  make([]uint32, nodes),
		stable:   make(VTS, streams),
		nextSN:   1,
	}
	for s := range c.rates {
		c.rates[s] = float64(interval)
	}
	for n := range c.local {
		c.local[n] = make(VTS, streams)
	}
	return c
}

// Streams returns the number of registered streams.
func (c *Coordinator) Streams() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams
}

// AddStream registers a new stream with the default rate and returns its ID.
// Per §4.3, adding a stream only extends the VTS part of future plans;
// already-published plans and snapshot numbers are unaffected, so the change
// is transparent to one-shot queries.
func (c *Coordinator) AddStream() StreamID {
	return c.AddStreamRate(float64(c.interval))
}

// AddStreamRate registers a stream that contributes `rate` batches per
// snapshot plan. Streams with different mini-batch intervals coexist in one
// SN sequence: a slow stream (rate < 1) only raises its plan target every
// 1/rate plans, so fast streams' data does not wait on it.
func (c *Coordinator) AddStreamRate(rate float64) StreamID {
	if rate <= 0 {
		panic("vts: stream rate must be positive")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := StreamID(c.streams)
	c.streams++
	c.rates = append(c.rates, rate)
	c.addedAt = append(c.addedAt, c.nextSN-1)
	for n := range c.local {
		c.local[n] = append(c.local[n], 0)
	}
	c.stable = append(c.stable, 0)
	return id
}

// targetForLocked computes plan sn's per-stream batch targets.
func (c *Coordinator) targetForLocked(sn uint32) VTS {
	target := make(VTS, c.streams)
	for s := range target {
		target[s] = c.streamTargetLocked(StreamID(s), sn)
	}
	return target
}

// streamTargetLocked is stream s's batch target in plan sn.
func (c *Coordinator) streamTargetLocked(s StreamID, sn uint32) tstore.BatchID {
	if sn <= c.addedAt[s] {
		return 0 // stream did not exist yet
	}
	k := float64(sn - c.addedAt[s])
	return tstore.BatchID(k*c.rates[s] + 1e-9)
}

// snForLocked is the snapshot number of batch b of stream s: the first
// retained plan whose target covers it, or else the first plan still to be
// published that will.
func (c *Coordinator) snForLocked(s StreamID, b tstore.BatchID) uint32 {
	for _, p := range c.plans {
		if int(s) < len(p.Target) && p.Target[s] >= b {
			return p.SN
		}
	}
	sn := c.nextSN
	for c.streamTargetLocked(s, sn) < b {
		sn++
	}
	return sn
}

// publishLocked appends the next SN–VTS plan. The arithmetic policy derives
// targets from each stream's rate, keeping injectors loosely coupled while
// bounding staleness to one plan interval.
func (c *Coordinator) publishLocked() Plan {
	p := Plan{SN: c.nextSN, Target: c.targetForLocked(c.nextSN)}
	c.nextSN++
	c.plans = append(c.plans, p)
	c.published++
	// Publishing a plan is a broadcast to all other nodes.
	if c.fab != nil {
		for n := 1; n < c.nodes; n++ {
			c.fab.RPC(0, fabric.NodeID(n), 8+8*len(p.Target), 0)
		}
	}
	return p
}

// SNForBatch returns the snapshot number that batch b of stream s belongs
// to, publishing further plans on demand. Injectors call this before
// inserting a batch into the persistent store; an injector that outruns the
// published plans would stall in the paper (Fig. 11's Node 1) — here the
// publication is immediate and the stall is counted.
func (c *Coordinator) SNForBatch(s StreamID, b tstore.BatchID) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	sn := c.snForLocked(s, b)
	for c.nextSN <= sn {
		c.stallWaits++
		c.publishLocked()
	}
	return sn
}

// NextSN returns the lowest snapshot number a batch not yet sealed can
// belong to, given next[s], the first unsealed batch of each stream s. No
// stream will write below it, and no plan at or above it is stable yet. It
// publishes nothing; with no streams it returns math.MaxUint32.
func (c *Coordinator) NextSN(next []tstore.BatchID) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	lowest := uint32(math.MaxUint32)
	for s, b := range next {
		lowest = min(lowest, c.snForLocked(StreamID(s), b))
	}
	return lowest
}

// OnBatchInserted records that node completed inserting batch b of stream s,
// updating Local_VTS, Local_SN, Stable_VTS, and Stable_SN. Batch numbers per
// (node, stream) must be non-decreasing. Reporting gossips the updated local
// VTS to the coordinator's peers.
func (c *Coordinator) OnBatchInserted(node fabric.NodeID, s StreamID, b tstore.BatchID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lv := c.local[node]
	if lv[s] > b {
		panic(fmt.Sprintf("vts: batch regression on node %d stream %d: %d after %d", node, s, b, lv[s]))
	}
	lv[s] = b
	// Advance this node's Local_SN through any newly satisfied plans.
	for _, p := range c.plans {
		if p.SN > c.localSN[node] && lv.Covers(p.Target) {
			c.localSN[node] = p.SN
		}
	}
	c.recomputeStableLocked()
	if c.fab != nil {
		// Gossip the local VTS update (one message per peer).
		for n := 0; n < c.nodes; n++ {
			if fabric.NodeID(n) != node {
				c.fab.RPC(node, fabric.NodeID(n), 8*len(lv), 0)
			}
		}
	}
}

// recomputeStableLocked derives Stable_VTS (the element-wise minimum of the
// local vectors) and Stable_SN (the minimum Local_SN). Plan targets grow with
// the SN, so every node's local vector covers the target of the minimum
// Local_SN, and so does Stable_VTS.
func (c *Coordinator) recomputeStableLocked() {
	for s := 0; s < c.streams; s++ {
		min := c.local[0][s]
		for n := 1; n < c.nodes; n++ {
			if c.local[n][s] < min {
				min = c.local[n][s]
			}
		}
		c.stable[s] = min
	}
	minSN := c.localSN[0]
	for n := 1; n < c.nodes; n++ {
		if c.localSN[n] < minSN {
			minSN = c.localSN[n]
		}
	}
	c.stableSN = minSN
	// Retain the current and future plans only ("one for using and another
	// for inserting"): drop plans below Stable_SN.
	for len(c.plans) > 1 && c.plans[0].SN < c.stableSN {
		c.plans = c.plans[1:]
	}
}

// StableVTS returns a copy of the stable vector timestamp.
func (c *Coordinator) StableVTS() VTS {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stable.Clone()
}

// LocalVTS returns a copy of a node's local vector timestamp.
func (c *Coordinator) LocalVTS(node fabric.NodeID) VTS {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.local[node].Clone()
}

// StableSN returns the scalar snapshot number one-shot queries read at.
func (c *Coordinator) StableSN() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stableSN
}

// WindowReady reports whether the stable VTS covers batch `upto` for every
// listed stream — the data-driven trigger condition for continuous queries
// (Fig. 10).
func (c *Coordinator) WindowReady(streams []StreamID, upto []tstore.BatchID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range streams {
		if c.stable[s] < upto[i] {
			return false
		}
	}
	return true
}

// RetainedPlans returns a copy of the currently retained plans (diagnostics
// and the §6.7 memory experiment: bounded scalarization retains O(1) plans).
func (c *Coordinator) RetainedPlans() []Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Plan, len(c.plans))
	for i, p := range c.plans {
		out[i] = Plan{SN: p.SN, Target: p.Target.Clone()}
	}
	return out
}

// StallWaits returns how many SNForBatch calls outran the published plans.
func (c *Coordinator) StallWaits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stallWaits
}

// PlansPublished returns the total number of SN–VTS plans ever published
// (monotonic, unlike len(RetainedPlans()) which shrinks as plans are pruned).
func (c *Coordinator) PlansPublished() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.published
}

// StableLag returns, for stream s, how many batches the stable VTS trails the
// newest locally inserted batch across nodes — the stable-VTS lag the
// observability layer exports per stream.
func (c *Coordinator) StableLag(s StreamID) tstore.BatchID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var newest tstore.BatchID
	for n := 0; n < c.nodes; n++ {
		if c.local[n][s] > newest {
			newest = c.local[n][s]
		}
	}
	return newest - c.stable[s]
}
