// Package fabric simulates the rack-scale RDMA cluster the paper evaluates
// on: a set of logical nodes connected by a low-latency network supporting
// one-sided RDMA reads (remote CPU bypassed) and two-sided RPCs.
//
// The substitution (see DESIGN.md §2): instead of real NICs, every remote
// access is a direct in-process memory access plus an injected, calibrated
// latency. What the experiments measure — how many network operations each
// design issues, one-sided vs two-sided, in-place vs fork-join — is preserved
// because every system in the repo runs on this same substrate and pays for
// exactly the operations it issues.
//
// Latency injection has three modes: Off (count but add no delay; the default
// for unit tests), Spin (busy-wait; accurate at microsecond scale, used by the
// latency benchmarks), and Sleep (timer-based; cheap for coarse waits).
package fabric

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// NodeID identifies a logical node in the cluster, in [0, Nodes).
type NodeID int

// LatencyMode selects how latency charges are applied.
type LatencyMode int

const (
	// Off counts operations but injects no delay.
	Off LatencyMode = iota
	// Spin busy-waits for the charged duration (sub-millisecond accurate).
	Spin
	// Sleep uses time.Sleep for the charged duration.
	Sleep
)

func (m LatencyMode) String() string {
	switch m {
	case Off:
		return "off"
	case Spin:
		return "spin"
	case Sleep:
		return "sleep"
	default:
		return fmt.Sprintf("LatencyMode(%d)", int(m))
	}
}

// LatencyModel captures the network's cost structure. Defaults are calibrated
// to the paper's hardware (ConnectX-3 56 Gbps InfiniBand vs 10 GbE):
// a one-sided RDMA read completes in a couple of microseconds and is largely
// insensitive to payload up to a few KB (§5 "Leveraging RDMA"), while a
// TCP round trip costs tens of microseconds plus serialization.
type LatencyModel struct {
	// RDMARead is the base latency of one one-sided read.
	RDMARead time.Duration
	// RDMAPerKB is the additional per-KB payload cost of an RDMA read.
	RDMAPerKB time.Duration
	// RPC is the base latency of a two-sided RPC (dispatch + handler wakeup).
	RPC time.Duration
	// RPCPerKB is the additional per-KB payload cost of an RPC.
	RPCPerKB time.Duration
	// TCPRoundTrip is the base latency of a TCP round trip (non-RDMA mode).
	TCPRoundTrip time.Duration
	// TCPPerKB is the additional per-KB payload cost over TCP.
	TCPPerKB time.Duration
}

// DefaultLatency returns the calibrated default latency model.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		RDMARead:     2 * time.Microsecond,
		RDMAPerKB:    200 * time.Nanosecond,
		RPC:          18 * time.Microsecond,
		RPCPerKB:     500 * time.Nanosecond,
		TCPRoundTrip: 60 * time.Microsecond,
		TCPPerKB:     900 * time.Nanosecond,
	}
}

// Config configures a simulated fabric.
type Config struct {
	// Nodes is the number of logical nodes (the paper's cluster has 8).
	Nodes int
	// Latency is the cost model; zero value means DefaultLatency.
	Latency LatencyModel
	// Mode selects latency injection (default Off).
	Mode LatencyMode
	// RDMA enables one-sided reads. When false (the paper's "Non-RDMA"
	// configuration, Table 5), ReadRemote falls back to a TCP round trip.
	RDMA bool
}

// DefaultConfig returns an RDMA-enabled config with n nodes and no latency
// injection (suitable for tests).
func DefaultConfig(n int) Config {
	return Config{Nodes: n, Latency: DefaultLatency(), RDMA: true}
}

// Stats aggregates per-fabric traffic counters.
type Stats struct {
	RDMAReads   int64
	RPCs        int64
	TCPRounds   int64
	BytesRead   int64
	BytesRPC    int64
	ChargedTime time.Duration // total injected latency across all ops
}

// Fabric is a simulated cluster interconnect. All methods are safe for
// concurrent use.
type Fabric struct {
	cfg Config

	rdmaReads   atomic.Int64
	rpcs        atomic.Int64
	tcpRounds   atomic.Int64
	bytesRead   atomic.Int64
	bytesRPC    atomic.Int64
	chargedNano atomic.Int64

	// Per node-pair traffic, indexed from*Nodes+to (remote ops only). The
	// observability layer exports these as fabric_pair_* series.
	pairMsgs  []atomic.Int64
	pairBytes []atomic.Int64
}

// New creates a fabric. It panics if cfg.Nodes < 1 — a cluster without nodes
// is a programming error, not a runtime condition.
func New(cfg Config) *Fabric {
	if cfg.Nodes < 1 {
		panic("fabric: config requires at least one node")
	}
	if cfg.Latency == (LatencyModel{}) {
		cfg.Latency = DefaultLatency()
	}
	return &Fabric{
		cfg:       cfg,
		pairMsgs:  make([]atomic.Int64, cfg.Nodes*cfg.Nodes),
		pairBytes: make([]atomic.Int64, cfg.Nodes*cfg.Nodes),
	}
}

// addPair records one remote message of n bytes on the from→to link.
func (f *Fabric) addPair(from, to NodeID, n int) {
	i := int(from)*f.cfg.Nodes + int(to)
	f.pairMsgs[i].Add(1)
	f.pairBytes[i].Add(int64(n))
}

// PairTraffic returns the message and byte totals of the from→to link
// (remote operations only; local accesses are free and uncounted).
func (f *Fabric) PairTraffic(from, to NodeID) (msgs, bytes int64) {
	f.checkNode(from)
	f.checkNode(to)
	i := int(from)*f.cfg.Nodes + int(to)
	return f.pairMsgs[i].Load(), f.pairBytes[i].Load()
}

// Nodes returns the cluster size.
func (f *Fabric) Nodes() int { return f.cfg.Nodes }

// RDMA reports whether one-sided reads are enabled.
func (f *Fabric) RDMA() bool { return f.cfg.RDMA }

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// charge injects d of latency according to the configured mode and records it.
func (f *Fabric) charge(d time.Duration) {
	if d <= 0 {
		return
	}
	f.chargedNano.Add(int64(d))
	switch f.cfg.Mode {
	case Spin:
		spin(d)
	case Sleep:
		time.Sleep(d)
	}
}

// BusyWait spins for d (used by baselines to model interpretive overheads
// independently of a fabric's latency mode).
func BusyWait(d time.Duration) { spin(d) }

// spin busy-waits for d, yielding to the scheduler periodically so that large
// worker counts do not starve the runtime.
func spin(d time.Duration) {
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

// perKB returns the payload charge for n bytes at rate per KB.
func perKB(rate time.Duration, n int) time.Duration {
	return time.Duration(int64(rate) * int64(n) / 1024)
}

// ReadRemote charges one remote read of n bytes from node `to`, issued by
// node `from`. Local accesses (from == to) are free. With RDMA enabled this
// is a one-sided read; otherwise it degenerates to a TCP round trip whose
// remote side must be served by a CPU. Nothing inside one process can lose
// the read, so it only costs time.
func (f *Fabric) ReadRemote(from, to NodeID, n int) {
	var b Reads
	f.AddRead(&b, n)
	f.ReadRemoteBatch(from, to, b)
}

// Reads accumulates remote reads bound for one node, so a caller that issues
// many of them in one pass charges them with one ReadRemoteBatch. The zero
// value is empty.
type Reads struct {
	n, bytes int64
	cost     time.Duration
}

// AddRead records one read of n bytes in b, priced as ReadRemote prices it.
func (f *Fabric) AddRead(b *Reads, n int) {
	b.n++
	b.bytes += int64(n)
	if f.cfg.RDMA {
		b.cost += f.cfg.Latency.RDMARead + perKB(f.cfg.Latency.RDMAPerKB, n)
	} else {
		b.cost += f.cfg.Latency.TCPRoundTrip + perKB(f.cfg.Latency.TCPPerKB, n)
	}
}

// ReadRemoteBatch charges the reads in b, issued by node `from` to node `to`:
// the counters, pair traffic and charged time come out exactly as b's reads
// one ReadRemote each would leave them, at one atomic add per counter.
func (f *Fabric) ReadRemoteBatch(from, to NodeID, b Reads) {
	f.checkNode(from)
	f.checkNode(to)
	if from == to || b.n == 0 {
		return
	}
	i := int(from)*f.cfg.Nodes + int(to)
	f.pairMsgs[i].Add(b.n)
	f.pairBytes[i].Add(b.bytes)
	f.bytesRead.Add(b.bytes)
	if f.cfg.RDMA {
		f.rdmaReads.Add(b.n)
	} else {
		f.tcpRounds.Add(b.n)
	}
	f.charge(b.cost)
}

// RPC charges one two-sided message exchange between nodes carrying reqBytes
// out and respBytes back. Local calls are free.
func (f *Fabric) RPC(from, to NodeID, reqBytes, respBytes int) {
	f.checkNode(from)
	f.checkNode(to)
	if from == to {
		return
	}
	f.charge(f.message(from, to, reqBytes+respBytes))
}

// message counts one two-sided or one-way message of n bytes on the from→to
// link and returns its latency.
func (f *Fabric) message(from, to NodeID, n int) time.Duration {
	f.addPair(from, to, n)
	f.bytesRPC.Add(int64(n))
	if f.cfg.RDMA {
		f.rpcs.Add(1)
		return f.cfg.Latency.RPC + perKB(f.cfg.Latency.RPCPerKB, n)
	}
	f.tcpRounds.Add(1)
	return f.cfg.Latency.TCPRoundTrip + perKB(f.cfg.Latency.TCPPerKB, n)
}

// ChargeCompute injects a pure compute/overhead delay (used by baseline
// engines to model per-tuple serialization and scheduling floors).
func (f *Fabric) ChargeCompute(d time.Duration) { f.charge(d) }

// SendAsync records a one-way message of n bytes from->to without delaying
// the sender: fire-and-forget traffic (stream-index replication, dispatcher
// fan-out) is off the sender's critical path. The message still shows up in
// the counters and in ChargedTime.
func (f *Fabric) SendAsync(from, to NodeID, n int) {
	f.checkNode(from)
	f.checkNode(to)
	if from == to {
		return
	}
	f.chargedNano.Add(int64(f.message(from, to, n)))
}

// Stats returns a snapshot of traffic counters.
func (f *Fabric) Stats() Stats {
	return Stats{
		RDMAReads:   f.rdmaReads.Load(),
		RPCs:        f.rpcs.Load(),
		TCPRounds:   f.tcpRounds.Load(),
		BytesRead:   f.bytesRead.Load(),
		BytesRPC:    f.bytesRPC.Load(),
		ChargedTime: time.Duration(f.chargedNano.Load()),
	}
}

// ResetStats zeroes the traffic counters.
func (f *Fabric) ResetStats() {
	f.rdmaReads.Store(0)
	f.rpcs.Store(0)
	f.tcpRounds.Store(0)
	f.bytesRead.Store(0)
	f.bytesRPC.Store(0)
	f.chargedNano.Store(0)
}

// HomeOf maps an entity ID to its home node by hash partitioning, the
// sharding scheme shared by the persistent store, transient store, and
// dispatcher (§4.1 "uses the same sharding approach for both stores").
func (f *Fabric) HomeOf(id uint64) NodeID {
	// Fibonacci hashing spreads sequential IDs (the string server assigns
	// them densely) uniformly across nodes.
	return NodeID((id * 11400714819323198485) >> 32 % uint64(f.cfg.Nodes))
}

func (f *Fabric) checkNode(n NodeID) {
	if n < 0 || int(n) >= f.cfg.Nodes {
		panic(fmt.Sprintf("fabric: node %d out of range [0,%d)", n, f.cfg.Nodes))
	}
}
