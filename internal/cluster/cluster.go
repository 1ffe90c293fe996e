// Package cluster turns independent wukongsd processes into one multi-process
// Wukong+S cluster over wire.TCP. The design is replicated deterministic
// engines with local reads:
//
//   - Every daemon runs a full engine; how many in-process partitions that
//     engine simulates is its own business and has nothing to do with the
//     daemon's rank. The cluster's ranks are its members: the seed is rank
//     0, and each joiner gets the next free rank. All state-mutating
//     operations — LOAD, STREAM, REGISTER, EMIT, ADVANCE —
//     are forwarded to the seed (rank 0), which assigns each a sequence
//     number, replicates it one-way to every member, appends it to its op
//     log and then applies it locally, while the members apply their copies.
//     The engine is deterministic in the op order, so replicas converge to
//     identical stores, stream indexes, VTS state, and continuous-query
//     firings.
//
//   - Reads never leave the daemon: every replica holds the full data, so
//     the server answers each one-shot query from the local engine at its
//     stable SN (the paper's §4.3 consistent cut). An op is applied on the
//     daemon that acked it, so that daemon reads its own writes; any other
//     daemon may trail by cluster_replica_lag_ops. This package does not see
//     queries at all.
//
//   - Membership is per-daemon: each daemon runs a member.Detector that
//     sends a real wire heartbeat to each of its peers every round (a
//     daemon can only observe paths that start at itself). A member that
//     misses enough rounds is declared dead locally — which matters to the
//     write path (succession) and to federation, never to reads — and a
//     restarted daemon re-joins, replays the full oplog into a fresh
//     engine, and re-fires every window exactly once (the dedup contract:
//     fresh POLL buffers, deterministic replay).
//
// A replica catches up one way, catchUp: it replays the op range it lacks
// from a donor's op log (SYNC), or, where the donor compacted that range
// away, restores the donor's snapshot and replays the tail. Join, resume,
// the takeover reconcile, anti-entropy (each detector tick a member pulls
// what it lacks of the authority's applied sequence) and gap repair (a
// member that observes a sequence gap fetches it from the sender) all end
// there. The broadcast sends each op once per member and never retries.
//
// Write authority is survivable (DESIGN.md §15). The sequencer is not
// pinned to rank 0: when the membership detector declares the current
// authority dead, the lowest live rank assumes authority, reconciles to the
// highest applied sequence among live members, and fences the old authority
// out by sequencing an EPOCH op at epoch+1. Every op carries the epoch it
// was sequenced under; replicas reject broadcast ops from older epochs, so
// a zombie ex-authority can neither sequence nor replicate stale ops. Every
// rank replays from one op log, an oplog.Log (durable with a data directory,
// else private and unsynced), compacted by periodic engine snapshots; a
// member that needs ops compacted away catches up by snapshot transfer.
package cluster

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/member"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/rdf"
	"repro/internal/trace"
	"repro/internal/wire"
)

// SeedRank is the sequencing daemon's rank. The seed is the daemon started
// with -listen and no -join; everything else joins through it.
const SeedRank fabric.NodeID = 0

// dedupCap bounds the replicated id→reply table that makes client write
// retries exactly-once. Entries evict FIFO; a client that retries an op id
// more than dedupCap acked writes later re-executes, which the id scheme
// treats as a fresh op. An entry holds its own copies of the id and the
// reply, never the op, so the table costs at most dedupCap × (id + reply)
// bytes whatever the acked ops carried.
const dedupCap = 8192

// resultSlots bounds the ring of recent apply results every replica keeps:
// a forwarding member answers its client from its own result for the seq
// the authority acked. A result more than resultSlots ops old is gone; the
// forward then fails unavailable, and the client's id= retry finds the
// reply in the dedup table.
const resultSlots = 1024

// ErrUnavailable is the base error for cluster operations that failed
// because a required peer (usually the write authority) is unreachable.
var ErrUnavailable = errors.New("cluster: unavailable")

// ErrNotAuthority reports a sequencing request served by a daemon that is
// not the current write authority (it lost a failover race, or the caller's
// routing is stale). The caller should re-resolve and retry.
var ErrNotAuthority = errors.New("cluster: not the write authority")

// ErrLogCompacted reports a SYNC that asked for ops the serving member's log
// no longer holds: below its first record (a snapshot compacted them away),
// or past its last one while the member has applied beyond them (an append
// failed, so the log stops at its last durable op). The requester cannot
// converge by replay; it must catch up by snapshot transfer.
var ErrLogCompacted = errors.New("cluster: log compacted")

// IsLogCompacted reports whether err is ErrLogCompacted, including the
// wire-flattened form (remote errors cross TCP as text).
func IsLogCompacted(err error) bool {
	return err != nil && (errors.Is(err, ErrLogCompacted) || strings.Contains(err.Error(), "log compacted"))
}

// IsNotAuthority reports whether err is ErrNotAuthority, including the
// wire-flattened form.
func IsNotAuthority(err error) bool {
	return err != nil && (errors.Is(err, ErrNotAuthority) || strings.Contains(err.Error(), "not the write authority"))
}

// UnavailableError reports which peer an operation needed and why it failed.
type UnavailableError struct {
	Node fabric.NodeID
	Op   string
	Err  error
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("cluster: %s needs node %d: %v: %v", e.Op, e.Node, e.Err, ErrUnavailable)
}

// Unwrap exposes the sentinel and the transport cause.
func (e *UnavailableError) Unwrap() []error { return []error{ErrUnavailable, e.Err} }

// ErrOpTooLarge reports a write whose op could ride neither the Send that
// replicates it nor a SYNC reply: one wire frame. It is never sequenced.
var ErrOpTooLarge = errors.New("cluster: op too large")

// opHeadroom is what a frame carries besides an op's id, kind, args and
// body: its header's tag, seq and epoch, SYNC's length line, a trace context.
const opHeadroom = 64 + trace.ContextSize

func checkOpSize(id, kind string, args []string, body string) error {
	size := opHeadroom + len(id) + len(kind) + len(body)
	for _, a := range args {
		size += 1 + len(a)
	}
	if size > wire.MaxPayload {
		return fmt.Errorf("%w: %s of %d bytes does not fit the %d-byte wire frame", ErrOpTooLarge, kind, size, wire.MaxPayload)
	}
	return nil
}

// ErrRankSpace reports a JOIN for a rank a wire frame cannot address.
var ErrRankSpace = errors.New("cluster: rank space exhausted")

// Config parameterizes one cluster daemon.
type Config struct {
	// Transport is the message plane. Required.
	Transport *wire.TCP
	// Self is this daemon's rank (0 = seed); the transport speaks for it.
	Self fabric.NodeID
	// Engine is the local replica. Required.
	Engine *core.Engine
	// SelfAddr is this daemon's dialable wire address, advertised to peers.
	SelfAddr string
	// SeedAddr is the seed's wire address (joiners only).
	SeedAddr string
	// OnFire receives every continuous-query firing applied by replication
	// (for routing into the server's POLL buffers). May be nil.
	OnFire func(name string, res *core.Result, fi core.FireInfo)
	// HeartbeatInterval is the wall-clock probe-round period (default
	// 100ms). Negative disables the ticker goroutine (tests drive Tick).
	HeartbeatInterval time.Duration
	// Metrics may be nil.
	Metrics *obs.Registry
	// Tracer records per-hop spans for distributed tracing (DESIGN.md §13).
	// May be nil: every span call site is nil-safe.
	Tracer *trace.Tracer
	// LocalStats renders this daemon's one-line stats for CLUSTER STATS
	// federation (usually the server's STATS line). May be nil.
	LocalStats func() string
	// Logf may be nil.
	Logf func(format string, args ...any)

	// DataDir is the op log's directory: every applied op is appended to a
	// segmented CRC32C-framed log there, which every replay reads, and
	// periodic engine snapshots make compaction and restart recovery safe.
	// Empty puts the log in a private directory from os.MkdirTemp that is
	// never fsynced and that Close removes; such a daemon cannot Resume.
	DataDir string
	// SnapshotEvery is the op cadence between snapshots (default 4096). A
	// due snapshot is deferred until the engine is quiescent (no pending
	// emits, see Engine.PendingEmits).
	SnapshotEvery int
	// SegmentOps caps ops per log segment (oplog.DefaultSegmentOps
	// when zero).
	SegmentOps int
	// NoSync skips fsync on log appends (tests only).
	NoSync bool
}

// Node is one daemon's cluster brain: the transport handler, the sequencer
// (authority), the replica applier (members), the op log, and the membership
// detector.
type Node struct {
	cfg    Config
	t      *wire.TCP
	self   fabric.NodeID
	eng    *core.Engine
	det    *member.Detector
	tracer *trace.Tracer

	// applyMu serializes op application (and, on the seed, sequencing,
	// broadcast and append, so members observe ops in sequence order per
	// connection).
	applyMu sync.Mutex
	closed  bool // under applyMu: Close has released the op log

	// mu guards the replicated bookkeeping below. Never held across engine
	// or transport calls.
	mu        sync.Mutex
	applied   uint64                   // highest seq applied locally; raised only by setAppliedLocked
	appliedCh chan struct{}            // closed and replaced each time applied rises
	authHead  uint64                   // member: the authority's applied seq at the last anti-entropy read
	members   []rankAddr               // joined ranks, in rank order
	reserved  map[fabric.NodeID]string // authority: rank → addr promised by Discover, not yet joined
	epoch     uint64                   // current authority epoch (raised only by EPOCH ops)
	authority fabric.NodeID

	dedup      map[string]dedupEntry // op id → acked (seq, reply); also under mu
	dedupRing  []string              // FIFO eviction ring: grows to dedupCap, then slot dedupNext is the oldest
	dedupNext  int
	dedupBytes int64 // bytes of the ids and replies dedup holds

	results [resultSlots]applyResult // recent apply results, slot seq%resultSlots; also under mu

	dlog   *oplog.Log // the op log; every replay reads it
	logDir string     // its directory: cfg.DataDir, or a private one
	tmpDir bool       // logDir is private: unsynced, and Close removes it

	opsSinceSnap int        // ops applied since the last durable snapshot
	snapMu       sync.Mutex // guards the cached snapshot served to peers
	snapSeq      uint64     // applied seq the cached snapshot covers
	snapEpoch    uint64
	snapPayload  []byte

	// catchMu runs one catch-up at a time. Taken before applyMu, never
	// while holding it.
	catchMu    sync.Mutex
	catching   atomic.Bool // mid snapshot transfer (healthz)
	takingOver atomic.Bool // one authority takeover attempt at a time

	stop     chan struct{}
	stopOnce sync.Once
	start    time.Time

	cApplied   *obs.Counter
	cRefused   *obs.Counter // cluster_ops_refused_total: equal on every replica
	cForwarded *obs.Counter
	cSynced    *obs.Counter
	cDupOps    *obs.Counter

	cFailover     *obs.Counter   // seed_failover_total
	cStaleEpoch   *obs.Counter   // cluster_stale_epoch_rejected_total
	cSnapBytes    *obs.Counter   // snapshot_bytes_total
	cSnapXfers    *obs.Counter   // snapshot_transfers_total
	cSnapDeferred *obs.Counter   // snapshot_deferred_total
	hUnavail      *obs.Histogram // cluster_write_unavail_ns
}

// rankAddr is one member: a rank that joined and its advertised address.
type rankAddr struct {
	rank fabric.NodeID
	addr string
}

// memberAddrLocked returns rank r's advertised address, "" if r has not
// joined. Caller holds n.mu.
func (n *Node) memberAddrLocked(r fabric.NodeID) string {
	if i, ok := n.memberIndexLocked(r); ok {
		return n.members[i].addr
	}
	return ""
}

func (n *Node) memberIndexLocked(r fabric.NodeID) (int, bool) {
	return slices.BinarySearchFunc(n.members, r, func(m rankAddr, r fabric.NodeID) int { return cmp.Compare(m.rank, r) })
}

// membersCopy returns the joined ranks and their addresses, in rank order.
func (n *Node) membersCopy() []rankAddr {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.members)
}

// dedupEntry is one acked write in the replicated exactly-once table.
type dedupEntry struct {
	seq   uint64
	reply string
}

// applyResult is what this replica's apply of op seq answered.
type applyResult struct {
	seq   uint64
	reply string
	err   error
}

func (c Config) heartbeat() time.Duration {
	if c.HeartbeatInterval == 0 {
		return 100 * time.Millisecond
	}
	return c.HeartbeatInterval
}

func newNode(cfg Config) (*Node, error) {
	if cfg.Transport == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("cluster: Transport and Engine are required")
	}
	r := cfg.Metrics
	n := &Node{
		cfg:       cfg,
		t:         cfg.Transport,
		self:      cfg.Self,
		eng:       cfg.Engine,
		tracer:    cfg.Tracer,
		epoch:     1,
		authority: SeedRank,
		appliedCh: make(chan struct{}),
		reserved:  make(map[fabric.NodeID]string),
		dedup:     make(map[string]dedupEntry),
		logDir:    cfg.DataDir,
		tmpDir:    cfg.DataDir == "",
		stop:      make(chan struct{}),
		start:     time.Now(),

		cApplied:   r.Counter("cluster_ops_applied_total"),
		cRefused:   r.Counter("cluster_ops_refused_total"),
		cForwarded: r.Counter("cluster_ops_forwarded_total"),
		cSynced:    r.Counter("cluster_ops_synced_total"),
		cDupOps:    r.Counter("cluster_ops_duplicate_total"),

		cFailover:     r.Counter("seed_failover_total"),
		cStaleEpoch:   r.Counter("cluster_stale_epoch_rejected_total"),
		cSnapBytes:    r.Counter("snapshot_bytes_total"),
		cSnapXfers:    r.Counter("snapshot_transfers_total"),
		cSnapDeferred: r.Counter("snapshot_deferred_total"),
		hUnavail:      r.Histogram("cluster_write_unavail_ns", nil),
	}
	r.GaugeFunc("cluster_dedup_entries", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(len(n.dedup))
	})
	r.GaugeFunc("cluster_dedup_bytes", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.dedupBytes
	})
	r.GaugeFunc("authority_epoch", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(n.epoch)
	})
	// Staleness of this replica, which is what a local read can observe.
	// Labeled by rank: CLUSTER METRICS sums same-named gauges, and a summed
	// sequence number means nothing.
	rank := strconv.Itoa(int(n.self))
	r.GaugeFunc(obs.Name("cluster_applied_seq", "rank", rank), func() int64 { return int64(n.Applied()) })
	r.GaugeFunc(obs.Name("cluster_replica_lag_ops", "rank", rank), func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.authority == n.self || n.authHead <= n.applied {
			return 0
		}
		return int64(n.authHead - n.applied)
	})
	if n.tmpDir {
		dir, err := os.MkdirTemp("", "wukongsd-oplog-")
		if err != nil {
			return nil, fmt.Errorf("cluster: op log directory: %w", err)
		}
		n.logDir = dir
	}
	dl, err := oplog.Open(n.logDir, oplog.Options{SegmentOps: cfg.SegmentOps, NoSync: cfg.NoSync || n.tmpDir})
	if err != nil {
		if n.tmpDir {
			os.RemoveAll(n.logDir)
		}
		return nil, fmt.Errorf("cluster: open oplog: %w", err)
	}
	r.Counter("ft_quarantined_records_total").Add(int64(dl.Damaged()))
	n.dlog = dl
	n.det = member.New(n.self, n.cfg.heartbeat().Milliseconds(), n.t.Heartbeat, r)
	cfg.Transport.SetHandler(cfg.Self, n)
	return n, nil
}

// NewSeed starts the sequencing daemon (rank 0). Its own address becomes
// oplog op 1, so every joiner learns it by replay.
func NewSeed(cfg Config) (*Node, error) {
	cfg.Self = SeedRank
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := n.sequenceLocal(trace.Context{}, "", "MEMBER", []string{"0", cfg.SelfAddr}, ""); err != nil {
		return nil, err
	}
	n.startTicker()
	return n, nil
}

// Join starts a member daemon: it registers with the seed under cfg.Self
// (the rank Discover assigned) and replays the oplog into its fresh engine.
func Join(cfg Config) (*Node, error) {
	if cfg.Self == SeedRank {
		return nil, fmt.Errorf("cluster: rank 0 is the seed; use NewSeed")
	}
	if cfg.SeedAddr == "" {
		return nil, fmt.Errorf("cluster: SeedAddr is required to join")
	}
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	n.t.SetPeer(SeedRank, cfg.SeedAddr)
	if err := n.join(SeedRank); err != nil {
		return nil, err
	}
	n.startTicker()
	n.logf("joined as rank %d, replayed %d ops", int(cfg.Self), n.Applied())
	return n, nil
}

// join registers this daemon's rank and address through via, which relays
// JOIN to the authority, and catches up from via to the seq the reply names.
// It returns once this replica has applied that seq. JOIN is idempotent (the
// authority reuses the rank for a known address) and so is a catch-up, so a
// lossy wire just means retry.
func (n *Node) join(via fabric.NodeID) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		var resp string
		if resp, err = n.call(via, fmt.Sprintf("JOIN %d %s", int(n.self), n.cfg.SelfAddr), "", "join"); err != nil {
			if errors.Is(err, ErrUnavailable) {
				continue
			}
			return err
		}
		var rank int
		var latest uint64
		if rank, latest, err = parseJoinReply(resp); err != nil {
			return err
		}
		if rank != int(n.self) {
			return fmt.Errorf("cluster: the authority assigned rank %d, we are %d", rank, int(n.self))
		}
		n.catchMu.Lock()
		err = n.catchUp(via, latest)
		n.catchMu.Unlock()
		if !errors.Is(err, ErrUnavailable) {
			return err
		}
	}
	return err
}

// Discover asks the seed at seedAddr for a rank assignment before the
// transport exists (the rank is needed to construct it): a rank whose
// recorded address equals advertise is reused — the restart path — else the
// lowest unclaimed rank is assigned. seq is the authority's last sequenced
// op at the time, the history the joiner will replay.
func Discover(seedAddr, advertise string, timeout time.Duration) (rank int, seq uint64, err error) {
	// The bootstrap frame needs a from-rank before one is assigned; 0 is a
	// white lie that only labels the handshake (JOIN carries the real
	// identity in its payload). Reservation is idempotent per address, so a
	// lossy wire just means retry.
	var resp []byte
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		resp, err = wire.RawCall(seedAddr, 0, 0, []byte("JOIN -1 "+advertise), timeout)
		if err == nil {
			break
		}
		if wire.RemoteError(err) {
			return 0, 0, fmt.Errorf("cluster: discover: %w", err)
		}
	}
	if err != nil {
		return 0, 0, &UnavailableError{Node: SeedRank, Op: "discover", Err: err}
	}
	return parseJoinReply(string(resp))
}

// parseJoinReply reads JOIN's "RANK <r> SEQ <s>" reply.
func parseJoinReply(resp string) (rank int, seq uint64, err error) {
	if _, err := fmt.Sscanf(firstLine(resp), "RANK %d SEQ %d", &rank, &seq); err != nil {
		return 0, 0, fmt.Errorf("cluster: bad join reply %q: %w", firstLine(resp), err)
	}
	return rank, seq, nil
}

// Close stops the ticker, waits for the op in flight, and closes the op
// log, removing it if it lives in a private directory. From then on nothing
// appends to the log or snapshots beside it. The transport and engine
// belong to the caller.
func (n *Node) Close() {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.applyMu.Lock()
		defer n.applyMu.Unlock()
		n.closed = true
		n.dlog.Close()
		if n.tmpDir {
			os.RemoveAll(n.logDir)
		}
	})
}

// errClosed refuses what a closed node is asked to sequence or append.
var errClosed = errors.New("cluster: node closed")

// Self returns this daemon's rank.
func (n *Node) Self() fabric.NodeID { return n.self }

// Detector exposes the membership detector (tests, CLUSTER command).
func (n *Node) Detector() *member.Detector { return n.det }

// Tracer exposes the span recorder (may be nil).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// Applied returns the highest op sequence applied locally.
func (n *Node) Applied() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied
}

// Epoch returns the current authority epoch this daemon has seen.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// currentAuthority returns the rank this daemon believes is the sequencer.
func (n *Node) currentAuthority() fabric.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.authority
}

// Authority is the exported form of currentAuthority.
func (n *Node) Authority() fabric.NodeID { return n.currentAuthority() }

// Status reports this daemon's serving state for health checks:
// "ready", "catching-up" (mid snapshot transfer), or
// "no-authority" (the sequencer is dead and this daemon is not in line to
// replace it yet — writes will stall until a successor fences in).
func (n *Node) Status() string {
	if n.catching.Load() {
		return "catching-up"
	}
	auth := n.currentAuthority()
	if auth != n.self && n.det.State(auth) == member.Dead {
		return "no-authority"
	}
	return "ready"
}

// stateReply renders the STATE verb: the peer-visible succession facts and
// the applied seq.
func (n *Node) stateReply() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fmt.Sprintf("EPOCH %d AUTH %d SEQ %d", n.epoch, int(n.authority), n.applied)
}

// peerState is one peer's STATE reply.
type peerState struct {
	rank       fabric.NodeID
	epoch, seq uint64
}

// survey asks each of ranks for its STATE and returns the replies of those
// that answered, in the order asked: the resume probe, the takeover survey
// and anti-entropy's head read. A peer answers STATE without waiting for its
// applyMu.
func (n *Node) survey(ranks []fabric.NodeID) []peerState {
	var out []peerState
	for _, r := range ranks {
		resp, err := n.call(r, "STATE", "", "state")
		if err != nil {
			continue // unreachable right now; the detector tracks that
		}
		st := peerState{rank: r}
		var auth int
		if _, err := fmt.Sscanf(resp, "EPOCH %d AUTH %d SEQ %d", &st.epoch, &auth, &st.seq); err == nil {
			out = append(out, st)
		}
	}
	return out
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("cluster[%d]: "+format, append([]any{int(n.self)}, args...)...)
	}
}

// startTicker drives the membership detector on wall-clock time.
func (n *Node) startTicker() {
	iv := n.cfg.heartbeat()
	if iv < 0 {
		return
	}
	go func() {
		t := time.NewTicker(iv)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				for _, tr := range n.det.Tick(time.Since(n.start).Milliseconds()) {
					n.logf("member %d %s -> %s", tr.Node, tr.From, tr.To)
				}
				if auth := n.currentAuthority(); auth != n.self {
					go n.antiEntropy()
					// The one takeover trigger on this path: it also fires
					// if this daemon booted after the authority died and so
					// never saw the transition.
					if n.det.State(auth) == member.Dead {
						go n.maybeAssumeAuthority()
					}
				}
			}
		}
	}()
}

// antiEntropy is a member's periodic pull against the authority's op log.
// The broadcast path is one-way: an op the authority ships while this
// member's wire path is still healing (right after a restart, say) is
// retried a few times and then gone, and gap repair only triggers on
// RECEIPT of a later op — a finite op stream can strand a member one
// broadcast behind forever. The fix is to make the member ask: each
// detector tick it reads the authority's head and catches up to it. The
// authority never pulls (it is the log). While another catch-up runs the
// tick does nothing, and the next one pulls what that one left.
func (n *Node) antiEntropy() {
	if !n.catchMu.TryLock() {
		return
	}
	defer n.catchMu.Unlock()
	if auth, head, ok := n.readAuthHead(); ok {
		if err := n.catchUp(auth, head); err != nil {
			n.logf("anti-entropy to %d from %d: %v", head, auth, err)
		}
	}
}

// readAuthHead reads the authority's applied sequence from its STATE and
// records it as the head cluster_replica_lag_ops is measured against. It
// never waits for applyMu, so a member that cannot apply still learns how
// far behind it is. ok is false on the authority itself and when the
// authority cannot be read.
func (n *Node) readAuthHead() (auth fabric.NodeID, head uint64, ok bool) {
	auth = n.currentAuthority()
	if auth == n.self {
		return auth, 0, false
	}
	st := n.survey([]fabric.NodeID{auth})
	if len(st) == 0 {
		return auth, 0, false
	}
	n.mu.Lock()
	n.authHead = st[0].seq
	n.mu.Unlock()
	return auth, st[0].seq, true
}

// ---------------------------------------------------------------------------
// Op encoding. One op is a text header line
// "OP <seq> <epoch> <id|-> <KIND> [args...]" followed by the raw body
// (N-Triples, tuple lines, or query text). The epoch is the authority epoch
// the op was sequenced under (the fencing token); the id is the client's
// exactly-once token ("-" when absent).

func encodeOp(seq, epoch uint64, id, kind string, args []string, body string) []byte {
	if id == "" {
		id = "-"
	}
	var b bytes.Buffer
	b.WriteString("OP ")
	b.WriteString(strconv.FormatUint(seq, 10))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(epoch, 10))
	b.WriteByte(' ')
	b.WriteString(id)
	b.WriteByte(' ')
	b.WriteString(kind)
	for _, a := range args {
		b.WriteByte(' ')
		b.WriteString(a)
	}
	b.WriteByte('\n')
	b.WriteString(body)
	return b.Bytes()
}

func decodeOp(p string) (seq, epoch uint64, id, kind string, args []string, body string, err error) {
	head, rest := splitLine(p)
	f := strings.Fields(head)
	if len(f) < 5 || f[0] != "OP" {
		return 0, 0, "", "", nil, "", fmt.Errorf("cluster: malformed op header %q", head)
	}
	seq, err = strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, 0, "", "", nil, "", fmt.Errorf("cluster: bad op seq %q", f[1])
	}
	epoch, err = strconv.ParseUint(f[2], 10, 64)
	if err != nil {
		return 0, 0, "", "", nil, "", fmt.Errorf("cluster: bad op epoch %q", f[2])
	}
	id = f[3]
	if id == "-" {
		id = ""
	}
	return seq, epoch, id, f[4], f[5:], rest, nil
}

// SplitID strips a trailing "id=<token>" argument — the client's
// exactly-once token, carried in-band through the text protocol so every
// hop (server parse, FWD relay) forwards it without special plumbing. A
// standalone daemon applies each command once by construction and drops it.
func SplitID(args []string) (id string, rest []string) {
	if len(args) > 0 && strings.HasPrefix(args[len(args)-1], "id=") {
		return strings.TrimPrefix(args[len(args)-1], "id="), args[:len(args)-1]
	}
	return "", args
}

func splitLine(s string) (first, rest string) {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

func firstLine(s string) string {
	first, _ := splitLine(s)
	return first
}

// ---------------------------------------------------------------------------
// Seed: sequencing + broadcast.

// ForwardTimeout bounds one Forward's retry loop across authority loss: the
// recorded write-unavailability window can be at most this long before the
// write fails back to the client with a retry-after hint.
const ForwardTimeout = 15 * time.Second

// forwardAckTimeout bounds how long a forwarding member waits for the
// sequenced op to apply locally before acking the client. An op acked here
// exists on at least two daemons (the authority's log and this replica), so
// a single crash cannot lose it.
const forwardAckTimeout = 5 * time.Second

// Forward executes one state-mutating op cluster-wide: the authority
// sequences and applies it; members relay to the authority, wait for the op
// to apply locally, and return their own apply's reply. This is the single
// write path — the server's LOAD/STREAM/EMIT/ADVANCE/REGISTER commands all
// land here in cluster mode. A trailing "id=<token>" argument is the client's
// exactly-once token: retries of an already-acked id return the cached
// reply without re-sequencing. An op too large for one wire frame is refused
// with ErrOpTooLarge before it is sequenced or relayed.
func (n *Node) Forward(kind string, args []string, body string) (string, error) {
	return n.ForwardTraced(trace.Context{}, kind, args, body)
}

// ForwardTraced is Forward attached to a caller's trace: the member-side
// hop records a cluster.forward span whose context crosses the wire, so the
// authority's sequencing spans link under it. On authority loss it
// re-resolves (lowest live rank) and retries until the successor fences in,
// recording the client-observed write-unavailability window. A failure after
// the authority acked the op is never retried: the op is sequenced, and a
// second FWD would sequence it again. It goes back to the caller as is,
// unavailable, and an id= retry finds the reply in the dedup table.
func (n *Node) ForwardTraced(tc trace.Context, kind string, args []string, body string) (string, error) {
	if !tc.Valid() && n.tracer != nil {
		root := n.tracer.StartRoot("cluster.op")
		tc = root.Context()
		defer root.End()
	}
	id, bare := SplitID(args)
	if err := checkOpSize(id, kind, bare, body); err != nil {
		return "", err
	}
	deadline := time.Now().Add(ForwardTimeout)
	var unavailSince time.Time
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if time.Now().After(deadline) {
				if lastErr != nil {
					return "", lastErr
				}
				return "", &UnavailableError{Node: n.currentAuthority(), Op: "forward " + kind, Err: errors.New("authority unavailable")}
			}
			time.Sleep(25 * time.Millisecond)
		}
		target := n.resolveAuthority()
		var reply string
		var err error
		acked := false
		if target == n.self {
			reply, err = n.sequenceLocal(tc, id, kind, bare, body)
		} else {
			reply, acked, err = n.forwardRemote(tc, target, id, kind, bare, body)
		}
		switch {
		case err == nil:
			if !unavailSince.IsZero() && n.hUnavail != nil {
				n.hUnavail.Observe(time.Since(unavailSince))
			}
			return reply, nil
		case !acked && (errors.Is(err, ErrUnavailable) || IsNotAuthority(err)):
			// The authority is gone or moved: start (or continue) the
			// unavailability window and retry against the re-resolved rank.
			if unavailSince.IsZero() {
				unavailSince = time.Now()
			}
			lastErr = err
			continue
		default:
			return "", err
		}
	}
}

// forwardRemote relays one op to the authority and waits until this replica
// has applied the acked sequence, so the committed op exists here before
// the client hears "ok". The authority acks once the op is durable in its
// log; the answer is this replica's own apply of that seq, reply or
// refusal, which is the same on every replica. A dedup hit's ack carries
// the cached reply instead. acked reports that the authority acked the op,
// whatever the outcome here.
func (n *Node) forwardRemote(tc trace.Context, target fabric.NodeID, id, kind string, args []string, body string) (reply string, acked bool, err error) {
	n.cForwarded.Inc()
	req := "FWD " + kind
	if len(args) > 0 {
		req += " " + strings.Join(args, " ")
	}
	if id != "" {
		req += " id=" + id
	}
	sp := n.tracer.Start(tc, "cluster.forward")
	resp, err := n.callTraced(target, req, body, "forward "+kind, sp.Context())
	sp.EndErr(err)
	if err != nil {
		return "", false, err
	}
	head, cached, dup := strings.Cut(resp, "\n")
	num, ok := strings.CutPrefix(head, "SEQ ")
	seq, perr := strconv.ParseUint(num, 10, 64)
	if !ok || perr != nil {
		return "", false, fmt.Errorf("cluster: bad FWD ack %q", head)
	}
	spWait := n.tracer.Start(tc, "cluster.wait_applied")
	ok = n.waitApplied(seq, forwardAckTimeout)
	spWait.End()
	if !ok {
		// Committed at the authority but not yet replicated here; the
		// client's id-bearing retry returns the cached reply once it lands.
		return "", true, &UnavailableError{Node: target, Op: "forward " + kind, Err: fmt.Errorf("op %d not replicated locally in %v", seq, forwardAckTimeout)}
	}
	if dup {
		return cached, true, nil
	}
	reply, err = n.appliedResult(target, kind, seq)
	return reply, true, err
}

// appliedResult returns this replica's own reply or refusal for op seq,
// which it has applied. A result the ring no longer holds (resultSlots ops
// applied since, or a snapshot transfer skipped the op) is unavailable: an
// id= retry finds the reply in the dedup table.
func (n *Node) appliedResult(target fabric.NodeID, kind string, seq uint64) (string, error) {
	n.mu.Lock()
	r := n.results[seq%resultSlots]
	n.mu.Unlock()
	if r.seq != seq {
		return "", &UnavailableError{Node: target, Op: "forward " + kind, Err: fmt.Errorf("op %d's result is no longer held here", seq)}
	}
	return r.reply, r.err
}

// waitApplied blocks until this replica has applied seq (true) or the
// timeout passes (false). It sleeps on appliedCh, so it wakes the moment
// the op applies: a sub-millisecond poll would not, because the runtime
// rounds a short timer up to about a millisecond when it is otherwise idle.
func (n *Node) waitApplied(seq uint64, timeout time.Duration) bool {
	var expired <-chan time.Time
	for {
		n.mu.Lock()
		ok, ch := n.applied >= seq, n.appliedCh
		n.mu.Unlock()
		if ok {
			return true
		}
		if expired == nil {
			t := time.NewTimer(timeout)
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-ch:
		case <-expired:
			return false
		}
	}
}

// setAppliedLocked raises the applied sequence to seq (never lowers it) and
// wakes every waitApplied. Caller holds n.mu.
func (n *Node) setAppliedLocked(seq uint64) {
	if seq <= n.applied {
		return
	}
	n.applied = seq
	close(n.appliedCh)
	n.appliedCh = make(chan struct{})
}

// opEpoch is the epoch an op is stamped with when sequenced under cur: an
// EPOCH op carries the epoch it installs (that is the fence), every other op
// the current one.
func opEpoch(cur uint64, kind string, args []string) uint64 {
	if kind == "EPOCH" && len(args) == 2 {
		if e, err := strconv.ParseUint(args[0], 10, 64); err == nil && e > cur {
			return e
		}
	}
	return cur
}

// sequence assigns the next op sequence number and runs the op down the
// write path in write-ahead order: encode it, broadcast it to every member
// the detector has not declared Dead, and append it to the op log (one
// fdatasync with a data directory). It returns holding applyMu, with apply:
// the function that applies the op locally, drives the snapshot cadence and
// releases applyMu. A local write calls apply inline; the FWD handler acks
// the durable op first and applies it beside the reply, while the forwarding
// member applies its own copy. Nothing else is sequenced until apply has
// run, so the authority applies op n before it sequences n+1, members
// observe ops in apply order, and every op below the one in flight is in the
// log: a SYNC never needs an older op than that.
//
// Because the op is broadcast before anyone knows whether it will be
// refused, a refused op is sequenced too and refused alike on every replica
// (ApplyVerb changes nothing when it refuses): it uses up its seq as a
// no-op, never enters the dedup table, and its error is the reply. Only the
// current authority may sequence, and a closed one sequences nothing; an
// already-acked op id short-circuits: apply is nil, nothing is held, and
// cached is the acked reply.
func (n *Node) sequence(tc trace.Context, id, kind string, args []string, body string) (seq uint64, cached string, apply func() (string, error), err error) {
	n.applyMu.Lock()
	if n.closed {
		n.applyMu.Unlock()
		return 0, "", nil, errClosed
	}
	n.mu.Lock()
	if n.authority != n.self {
		n.mu.Unlock()
		n.applyMu.Unlock()
		return 0, "", nil, ErrNotAuthority
	}
	if id != "" {
		if e, ok := n.dedup[id]; ok {
			n.mu.Unlock()
			n.applyMu.Unlock()
			n.cDupOps.Inc()
			return e.seq, e.reply, nil, nil
		}
	}
	seq = n.applied + 1 // applied rises only under applyMu, held here
	enc := encodeOp(seq, opEpoch(n.epoch, kind, args), id, kind, args, body)
	targets := make([]fabric.NodeID, 0, len(n.members))
	for _, m := range n.members {
		// A member declared Dead gets nothing: a hung one would hold the
		// write path for a dial timeout. Back, it repairs its gap by SYNC
		// or anti-entropy, as after any lost frame.
		if m.rank != n.self && n.det.State(m.rank) != member.Dead {
			targets = append(targets, m.rank)
		}
	}
	n.mu.Unlock()

	spRepl := n.tracer.Start(tc, "seed.replicate")
	for _, to := range targets {
		// One send per member and no retry: a frame that does not land
		// leaves the member a gap, which its next op's SYNC or its
		// anti-entropy tick fills from the oplog.
		_ = n.t.Send(n.self, to, enc, spRepl.Context())
	}
	spRepl.End()

	spSync := n.tracer.Start(tc, "seed.fsync")
	spSync.EndErr(n.appendLocked(seq, enc))

	return seq, "", func() (string, error) {
		defer n.applyMu.Unlock()
		spApply := n.tracer.Start(tc, "seed.apply")
		reply, err := n.applyLocked(seq, id, kind, args, body)
		spApply.EndErr(err)
		n.maybeSnapshotLocked(kind)
		return reply, err
	}, nil
}

// sequenceLocal sequences one op and applies it inline: the write path of a
// client on the authority and of the authority's own MEMBER and EPOCH ops.
func (n *Node) sequenceLocal(tc trace.Context, id, kind string, args []string, body string) (string, error) {
	_, cached, apply, err := n.sequence(tc, id, kind, args, body)
	if apply != nil {
		return apply()
	}
	return cached, err
}

// recordLocked appends one op a replica has applied to the op log and
// drives the snapshot cadence. Caller holds applyMu.
func (n *Node) recordLocked(seq uint64, kind string, enc []byte) {
	n.appendLocked(seq, enc)
	n.maybeSnapshotLocked(kind)
}

// appendLocked appends one op to the op log. A failed append is logged, and
// every later one fails out of order, so the log stops at its last durable
// op and a SYNC past it answers ErrLogCompacted. Caller holds applyMu.
func (n *Node) appendLocked(seq uint64, enc []byte) error {
	if n.closed {
		return errClosed
	}
	err := n.dlog.Append(seq, enc)
	if err != nil {
		n.logf("oplog append %d: %v", seq, err)
	}
	return err
}

// handleJoin serves JOIN <rank|-1> <addr> on the authority. Rank -1 is the
// bootstrap form (Discover): it only reserves a rank — the joiner has no
// transport yet, so nothing may be replicated toward it. The real join
// (rank >= 0, sent once the joiner's listener serves frames) commits the
// membership as a replicated MEMBER op. A non-authority receiver relays to
// the current authority, so joiners keep working after a failover even if
// they only know one member's address.
func (n *Node) handleJoin(args []string) (string, error) {
	if auth := n.currentAuthority(); auth != n.self {
		return n.call(auth, "JOIN "+strings.Join(args, " "), "", "join-relay")
	}
	if len(args) != 2 {
		return "", fmt.Errorf("cluster: usage JOIN <rank|-1> <addr>")
	}
	want, err := strconv.Atoi(args[0])
	if err != nil {
		return "", fmt.Errorf("cluster: bad rank %q", args[0])
	}
	addr := args[1]
	if want < -1 {
		return "", fmt.Errorf("cluster: bad rank %q", args[0])
	}
	if want > wire.MaxRank {
		return "", fmt.Errorf("%w: rank %d exceeds %d", ErrRankSpace, want, wire.MaxRank)
	}
	n.mu.Lock()
	rank := -1
	commit := false
	if want >= 0 {
		r := fabric.NodeID(want)
		if cur := n.memberAddrLocked(r); cur == "" || cur == addr || n.reserved[r] == addr {
			rank = want
			commit = cur != addr
			delete(n.reserved, r)
		}
	} else {
		// Prefer the rank that already owns this address (a restarted
		// daemon), else the lowest rank neither joined nor reserved.
		for _, m := range n.members {
			if m.rank != SeedRank && m.addr == addr {
				rank = int(m.rank)
			}
		}
		for r, a := range n.reserved {
			if a == addr {
				rank = int(r)
			}
		}
		for r := 1; rank < 0 && r <= wire.MaxRank; r++ {
			if n.memberAddrLocked(fabric.NodeID(r)) == "" && n.reserved[fabric.NodeID(r)] == "" {
				rank = r
			}
		}
		if rank >= 0 {
			n.reserved[fabric.NodeID(rank)] = strings.Clone(addr)
		}
	}
	latest := n.applied
	n.mu.Unlock()
	switch {
	case rank < 0 && want < 0:
		return "", fmt.Errorf("%w: no free rank for %s", ErrRankSpace, addr)
	case rank < 0:
		return "", fmt.Errorf("cluster: rank %d is taken", want)
	}
	if commit {
		if _, err := n.sequenceLocal(trace.Context{}, "", "MEMBER", []string{strconv.Itoa(rank), addr}, ""); err != nil {
			return "", err
		}
		latest = n.Applied()
	}
	return fmt.Sprintf("RANK %d SEQ %d", rank, latest), nil
}

// syncReplyBytes bounds one SYNC reply: it carries whole records up to this
// many bytes, and always at least one, so a history larger than a wire frame
// replays over several round trips.
const syncReplyBytes = wire.MaxPayload / 4

// errSyncFull stops the log read that fills one SYNC reply.
var errSyncFull = errors.New("cluster: sync reply full")

// handleSync serves SYNC <from> <to> from the op log: the records from
// <from> on, up to <to>, the last record the log holds and syncReplyBytes,
// each length-prefixed ("<len>\n<bytes>"). An empty reply means the log holds
// nothing at <from> yet: the op is in flight. On the authority the log may
// hold one op more than it has applied, the one whose apply is running.
func (n *Node) handleSync(args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf("cluster: usage SYNC <from> <to>")
	}
	lo, err1 := strconv.ParseUint(args[0], 10, 64)
	hi, err2 := strconv.ParseUint(args[1], 10, 64)
	if err1 != nil || err2 != nil {
		return "", fmt.Errorf("cluster: bad SYNC range %v", args)
	}
	// applied is read before the log's bounds: an op below applied has had
	// its append done, so if the log stops short of it the append failed.
	applied := n.Applied()
	first, last := n.dlog.First(), n.dlog.Last()
	compacted := fmt.Errorf("%w: the log holds [%d,%d] at applied %d (asked for %d); catch up by snapshot transfer", ErrLogCompacted, first, last, applied, lo)
	if lo < first || (lo > last && lo < applied) {
		return "", compacted
	}
	var b bytes.Buffer
	err := n.dlog.Range(lo, min(hi, last), func(_ uint64, enc []byte) error {
		if b.Len() > 0 && b.Len()+len(enc) > syncReplyBytes {
			return errSyncFull
		}
		b.WriteString(strconv.Itoa(len(enc)))
		b.WriteByte('\n')
		b.Write(enc)
		return nil
	})
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return "", compacted // a snapshot compacted the range away mid-read
	case err != nil && !errors.Is(err, errSyncFull):
		return "", err
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// Members: replication receive + gap repair.

// HandleSend consumes one replicated op (wire.Handler).
func (n *Node) HandleSend(from fabric.NodeID, payload []byte) {
	n.HandleSendTraced(from, payload, trace.Context{})
}

// HandleSendTraced consumes one replicated op, recording a replica.apply
// span under the authority's replicate span (wire.TracedHandler). This is
// where epoch fencing bites: an op sequenced under an older epoch than this
// replica has seen is a zombie ex-authority's broadcast and is rejected.
func (n *Node) HandleSendTraced(from fabric.NodeID, payload []byte, tc trace.Context) {
	seq, epoch, id, kind, args, body, err := decodeOp(string(payload))
	if err != nil {
		n.logf("dropping malformed op from %d: %v", from, err)
		return
	}
	n.mu.Lock()
	cur := n.epoch
	n.mu.Unlock()
	if epoch < cur {
		n.cStaleEpoch.Inc()
		n.logf("rejecting op %d %s from %d: epoch %d < %d (fenced)", seq, kind, from, epoch, cur)
		return
	}
	sp := n.tracer.Start(tc, "replica.apply")
	defer sp.End()
	n.applyMu.Lock()
	gap := n.ingestLocked(payload, seq, id, kind, args, body)
	n.applyMu.Unlock()
	// Repair a gap from the SENDER — after a failover the sender is the new
	// authority, and the gap includes the EPOCH op this replica missed;
	// pulling from the dead old authority would strand it. While another
	// catch-up runs the op waits, like one that never arrived, for the next
	// broadcast or anti-entropy tick.
	if !gap || !n.catchMu.TryLock() {
		return
	}
	err = n.catchUp(from, seq-1)
	n.catchMu.Unlock()
	if err != nil {
		n.logf("gap below op %d unrepaired: %v", seq, err)
		return
	}
	n.applyMu.Lock()
	n.ingestLocked(payload, seq, id, kind, args, body)
	n.applyMu.Unlock()
}

// ingestLocked applies one op if it is the next in sequence order, and
// reports a gap if it is not. Duplicates (sequence already applied) are
// dropped — this plus the deterministic engine is what makes replication
// idempotent. A refused op is recorded like any other: the authority
// sequenced it and refused it the same way. enc is the op as it arrived,
// kept in the oplogs as is. Caller holds applyMu.
func (n *Node) ingestLocked(enc []byte, seq uint64, id, kind string, args []string, body string) (gap bool) {
	n.mu.Lock()
	applied := n.applied
	n.mu.Unlock()
	switch {
	case seq <= applied:
		n.cDupOps.Inc()
	case seq > applied+1:
		return true
	default:
		n.applyLocked(seq, id, kind, args, body)
		n.recordLocked(seq, kind, enc)
	}
	return false
}

// catchUp brings this replica to op hi of donor's history, the one way a
// replica catches up: join, resume, the takeover reconcile, anti-entropy and
// gap repair all end here. It SYNCs [applied+1, hi] from donor's op log, and
// where donor's log has compacted that range away, it restores donor's
// snapshot and SYNCs the tail past it. Caller holds catchMu, so one catch-up
// runs at a time: anti-entropy and gap repair skip theirs while another runs,
// and join, resume and the takeover wait for it and go on from where it
// stopped, so none of them returns on a partial replica.
func (n *Node) catchUp(donor fabric.NodeID, hi uint64) error {
	err := n.syncTo(donor, hi)
	if IsLogCompacted(err) {
		return n.catchUpFromSnapshot(donor, hi)
	}
	return err
}

// syncTo fetches and applies the ops [applied+1, hi] from target's op log.
func (n *Node) syncTo(target fabric.NodeID, hi uint64) error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	// A reply carries at most syncReplyBytes, so the range arrives over as
	// many round trips as it takes. An empty reply means target has not
	// logged lo yet: the next broadcast or anti-entropy tick brings it.
	lo := n.Applied() + 1
	for from := uint64(0); lo <= hi && lo != from; {
		from = lo
		// SYNC is idempotent; a lossy wire (a dropped or quarantined
		// response) deserves a couple of fresh round trips before the gap is
		// left for the next broadcast to re-trigger.
		var resp string
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			resp, err = n.call(target, fmt.Sprintf("SYNC %d %d", lo, hi), "", "sync")
			if err == nil || !errors.Is(err, ErrUnavailable) {
				break
			}
		}
		if err != nil {
			return err
		}
		for rest := resp; rest != ""; {
			head, tail := splitLine(rest)
			size, err := strconv.Atoi(strings.TrimSpace(head))
			if err != nil || size < 0 || size > len(tail) {
				return fmt.Errorf("cluster: malformed SYNC chunk header %q", head)
			}
			raw := tail[:size]
			seq, _, id, kind, args, body, err := decodeOp(raw)
			if err != nil {
				return err
			}
			if seq > n.Applied() {
				// No epoch fencing on replay: historical ops legitimately
				// carry the epochs they were sequenced under. A refused op
				// replays as refused.
				n.applyLocked(seq, id, kind, args, body)
				n.recordLocked(seq, kind, []byte(raw))
				n.cSynced.Inc()
			}
			lo, rest = seq+1, tail[size:]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Apply: the deterministic state machine every replica runs.

// applyLocked applies op seq to the local engine and marks it applied,
// whether the engine accepts it or refuses it. Caller holds applyMu. Every
// replica applies the same ops in the same order; anything this touches
// must be deterministic in that order — including the id→reply dedup
// table, which is what makes a client retry return the same ack from
// whichever daemon survives. A refusal changed nothing (ApplyVerb's
// contract), so it is a no-op that uses up its seq: it is counted in
// cluster_ops_refused_total and kept out of the dedup table, so a retry of
// its id runs again. Either way the result goes into the ring a forwarding
// member answers its client from.
func (n *Node) applyLocked(seq uint64, id, kind string, args []string, body string) (string, error) {
	reply, err := n.applyOp(kind, args, body)
	if err != nil {
		n.cRefused.Inc()
	} else {
		n.cApplied.Inc()
	}
	n.mu.Lock()
	n.results[seq%resultSlots] = applyResult{seq: seq, reply: reply, err: err}
	n.setAppliedLocked(seq)
	if err == nil {
		n.recordDedupLocked(id, seq, reply)
	}
	n.mu.Unlock()
	return reply, err
}

// recordDedupLocked installs one acked (id, seq, reply) into the replicated
// exactly-once table, evicting FIFO past dedupCap. The table outlives the op,
// so it keeps copies: id is cut from a request, an op or a snapshot
// transcript, and so is a restored reply, and either would pin all of it.
// Caller holds n.mu.
func (n *Node) recordDedupLocked(id string, seq uint64, reply string) {
	if id == "" {
		return
	}
	if _, ok := n.dedup[id]; ok {
		return
	}
	id, reply = strings.Clone(id), strings.Clone(reply)
	n.dedup[id] = dedupEntry{seq: seq, reply: reply}
	n.dedupBytes += int64(len(id) + len(reply))
	if len(n.dedupRing) < dedupCap {
		n.dedupRing = append(n.dedupRing, id)
		return
	}
	evict := n.dedupRing[n.dedupNext]
	n.dedupBytes -= int64(len(evict) + len(n.dedup[evict].reply))
	delete(n.dedup, evict)
	n.dedupRing[n.dedupNext] = id
	n.dedupNext = (n.dedupNext + 1) % dedupCap
}

// dedupOrderLocked calls f for every entry of the exactly-once table, oldest
// first. Caller holds n.mu.
func (n *Node) dedupOrderLocked(f func(id string, e dedupEntry)) {
	for i := range n.dedupRing {
		id := n.dedupRing[(n.dedupNext+i)%len(n.dedupRing)]
		f(id, n.dedup[id])
	}
}

// applyOp runs one op: the two cluster-bookkeeping kinds here, every data
// verb through the shared interpreter (verbs.go).
func (n *Node) applyOp(kind string, args []string, body string) (string, error) {
	switch kind {
	case "MEMBER":
		if len(args) != 2 {
			return "", fmt.Errorf("cluster: usage MEMBER <rank> <addr>")
		}
		rank, err := strconv.Atoi(args[0])
		if err != nil || rank < 0 || rank > wire.MaxRank {
			return "", fmt.Errorf("cluster: bad member rank %q", args[0])
		}
		r := fabric.NodeID(rank)
		addr := strings.Clone(args[1]) // kept for the daemon's life; args is cut from the op
		n.mu.Lock()
		if i, ok := n.memberIndexLocked(r); ok {
			n.members[i].addr = addr
		} else {
			n.members = slices.Insert(n.members, i, rankAddr{r, addr})
		}
		n.mu.Unlock()
		if r != n.self {
			n.t.SetPeer(r, addr)
		}
		n.det.Add(r)
		return fmt.Sprintf("member %d %s", rank, args[1]), nil

	case "EPOCH":
		// EPOCH <new-epoch> <authority-rank>: the successor's fence. Every
		// replica that applies it raises its epoch — from then on any
		// broadcast sequenced under the old epoch is rejected.
		if len(args) != 2 {
			return "", fmt.Errorf("cluster: usage EPOCH <epoch> <rank>")
		}
		e, err1 := strconv.ParseUint(args[0], 10, 64)
		rank, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil || rank < 0 || rank > wire.MaxRank {
			return "", fmt.Errorf("cluster: bad EPOCH op %v", args)
		}
		n.mu.Lock()
		if e > n.epoch {
			n.epoch = e
		}
		n.authority = fabric.NodeID(rank)
		n.mu.Unlock()
		n.logf("authority epoch %d, rank %d", e, rank)
		return fmt.Sprintf("epoch %d authority %d", e, rank), nil

	default:
		return ApplyVerb(n.eng, n.cfg.OnFire, kind, args, body)
	}
}

// ---------------------------------------------------------------------------
// Calls.

// call performs one request/response verb against a peer, mapping transport
// failures to UnavailableError and remote application errors to plain errors
// carrying the remote text. An injected drop of the request frame is
// transient AND provably never reached the peer, so it is always safe to
// retry — even for non-idempotent FWD ops.
func (n *Node) call(to fabric.NodeID, head, body, op string) (string, error) {
	return n.callTraced(to, head, body, op, trace.Context{})
}

// callTraced is call with a span context that rides the wire frame.
func (n *Node) callTraced(to fabric.NodeID, head, body, op string, tc trace.Context) (string, error) {
	payload := head + "\n" + body
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		var resp []byte
		resp, err = n.t.CallTraced(n.self, to, []byte(payload), tc)
		if err == nil {
			return string(resp), nil
		}
		if wire.Transient(err) {
			continue
		}
		break
	}
	if msg, ok := wire.RemoteText(err); ok {
		return "", errors.New(msg)
	}
	return "", &UnavailableError{Node: to, Op: op, Err: err}
}

// HandleCall serves the cluster verbs (wire.Handler).
func (n *Node) HandleCall(from fabric.NodeID, req []byte) ([]byte, error) {
	return n.HandleCallTraced(from, req, trace.Context{})
}

// HandleCallTraced serves the cluster verbs with the caller's span context
// (wire.TracedHandler), so served hops land in the caller's trace.
func (n *Node) HandleCallTraced(from fabric.NodeID, req []byte, tc trace.Context) ([]byte, error) {
	head, body := splitLine(string(req))
	f := strings.Fields(head)
	if len(f) == 0 {
		return nil, fmt.Errorf("cluster: empty request")
	}
	switch f[0] {
	case "JOIN":
		resp, err := n.handleJoin(f[1:])
		return []byte(resp), err
	case "SYNC":
		resp, err := n.handleSync(f[1:])
		return []byte(resp), err
	case "FWD":
		if len(f) < 2 {
			return nil, fmt.Errorf("cluster: usage FWD <kind> [args...]")
		}
		id, bare := SplitID(f[2:])
		seq, cached, apply, err := n.sequence(tc, id, f[1], bare, body)
		if err != nil {
			return nil, err
		}
		if apply == nil {
			// A dedup hit: the ack carries the reply the id was acked with.
			return []byte(fmt.Sprintf("SEQ %d\n%s", seq, cached)), nil
		}
		// The op is durable here: ack it now and apply it beside the reply.
		// The forwarding member waits for its own apply of seq and answers
		// its client from that.
		go apply()
		return []byte("SEQ " + strconv.FormatUint(seq, 10)), nil
	case "STATE":
		return []byte(n.stateReply()), nil
	case "SNAPMETA":
		resp, err := n.serveSnapMeta()
		return []byte(resp), err
	case "SNAPGET":
		return n.serveSnapGet(f[1:])
	case verbFedStats, verbFedMetrics, verbFedTraces:
		return n.serveFed(f[0])
	default:
		return nil, fmt.Errorf("cluster: unknown verb %q", f[0])
	}
}

// Home answers the HOME command, a placement diagnostic: the engine
// partition the in-process fabric's HomeOf assigns the entity, the state in
// this daemon's view of the member rank with that number ("unknown" when no
// member has it), and whether the entity is known. It does not decide where
// a query runs — every daemon serves every query from its own replica.
func (n *Node) Home(entity string) (home fabric.NodeID, state string, known bool) {
	id, ok := n.eng.StringServer().LookupEntity(rdf.NewIRI(entity))
	if !ok {
		return 0, "", false
	}
	home = n.eng.Fabric().HomeOf(uint64(id))
	switch st := n.det.State(home); st {
	case member.Dead, member.Unknown:
		return home, st.String(), true
	default:
		return home, member.Alive.String(), true
	}
}

// Info returns the CLUSTER command's lines, from this daemon's view:
// "SEQ <applied>", "EPOCH <e> AUTH <r>", then "<rank> <addr> <state>" per
// member. The EPOCH line lets operators (and the chaos harness) watch a
// failover fence in. The detector's lock is never held across a probe, so
// reading it here never waits on a peer.
func (n *Node) Info() []string {
	n.mu.Lock()
	lines := []string{fmt.Sprintf("SEQ %d", n.applied), fmt.Sprintf("EPOCH %d AUTH %d", n.epoch, int(n.authority))}
	members := slices.Clone(n.members)
	n.mu.Unlock()
	for _, m := range members {
		st := n.det.State(m.rank).String()
		if m.rank == n.self {
			st = "self"
		}
		lines = append(lines, fmt.Sprintf("%d %s %s", m.rank, m.addr, st))
	}
	return lines
}
