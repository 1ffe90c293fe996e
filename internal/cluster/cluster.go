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
//     number, appends it to a bounded oplog, replicates it one-way to every
//     member, and then applies it locally while the members apply their
//     copies. The engine is deterministic in the op order, so replicas
//     converge to identical stores, stream indexes, VTS state, and
//     continuous-query firings.
//
//   - Reads never leave the daemon: every replica holds the full data, so
//     the server answers each one-shot query from the local engine at its
//     stable SN (the paper's §4.3 consistent cut). An op is applied on the
//     daemon that acked it, so that daemon reads its own writes; any other
//     daemon may trail by cluster_replica_lag_ops. This package does not see
//     queries at all.
//
//   - Membership is per-daemon: each daemon runs a member.Detector whose
//     probes are real wire heartbeats from its own vantage (a daemon can
//     only observe paths that start at itself). A member that misses enough
//     rounds is declared dead locally — which matters to the write path
//     (succession) and to federation, never to reads — and a restarted
//     daemon re-joins, replays the full oplog into a fresh engine, and
//     re-fires every window exactly once (the dedup contract: fresh POLL
//     buffers, deterministic replay).
//
// Replication losses self-heal two ways: the authority's broadcast retries
// transient drops through flow.Sender, and a member that observes a sequence
// gap fetches the missing range from the sender before applying (SYNC).
//
// Write authority is survivable (DESIGN.md §15). The sequencer is not
// pinned to rank 0: when the membership detector declares the current
// authority dead, the lowest live rank assumes authority, reconciles to the
// highest applied sequence among live members, and fences the old authority
// out by sequencing an EPOCH op at epoch+1. Every op carries the epoch it
// was sequenced under; replicas reject broadcast ops from older epochs, so
// a zombie ex-authority can neither sequence nor replicate stale ops. All
// ranks keep the bounded in-memory oplog (any live member can serve SYNC),
// and a daemon with a data directory also keeps a segmented CRC32C-framed
// durable oplog plus periodic engine snapshots, so a restart recovers from
// disk and a member too far behind catches up by snapshot transfer instead
// of full replay.
package cluster

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/flow"
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

// DefaultMaxOplog bounds the in-memory replication log. A joiner that needs
// ops older than the window is served ErrLogCompacted and converges through
// snapshot transfer instead of replay (DESIGN.md §15).
const DefaultMaxOplog = 65536

// dedupCap bounds the replicated id→reply table that makes client write
// retries exactly-once. Entries evict FIFO; a client that retries an op id
// more than dedupCap acked writes later re-executes, which the id scheme
// treats as a fresh op.
const dedupCap = 8192

// ErrUnavailable is the base error for cluster operations that failed
// because a required peer (usually the write authority) is unreachable.
var ErrUnavailable = errors.New("cluster: unavailable")

// ErrNotAuthority reports a sequencing request served by a daemon that is
// not the current write authority (it lost a failover race, or the caller's
// routing is stale). The caller should re-resolve and retry.
var ErrNotAuthority = errors.New("cluster: not the write authority")

// ErrLogCompacted reports a SYNC that asked for ops already compacted out of
// the serving member's window. The requester cannot converge by replay; it
// must catch up by snapshot transfer.
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
	// SuspectAfter / DeadAfter are consecutive missed probe rounds before a
	// member is suspected (default 2) / declared dead (default 3).
	SuspectAfter int
	DeadAfter    int
	// FlowSeed, when nonzero, seeds the replication sender's retry jitter
	// (reproducible chaos runs).
	FlowSeed int64
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

	// DataDir, when set, enables oplog durability: every applied op is
	// appended to a segmented CRC32C-framed log under this directory, and
	// periodic engine snapshots make compaction and restart recovery safe.
	DataDir string
	// SnapshotEvery is the op cadence between durable snapshots (default
	// 4096; only meaningful with DataDir). A due snapshot is deferred until
	// the engine is quiescent (no pending emits, see Engine.PendingEmits).
	SnapshotEvery int
	// SegmentOps caps ops per durable log segment (oplog.DefaultSegmentOps
	// when zero).
	SegmentOps int
	// NoSync skips fsync on durable appends (tests only).
	NoSync bool
	// MaxOplog bounds the in-memory replication log (DefaultMaxOplog when
	// zero). Tests shrink it to exercise compaction catch-up.
	MaxOplog int
}

// Node is one daemon's cluster brain: the transport handler, the replication
// log (seed), the replica applier (members), and the membership detector.
type Node struct {
	cfg    Config
	t      *wire.TCP
	self   fabric.NodeID
	eng    *core.Engine
	det    *member.Detector
	snd    *flow.Sender
	tracer *trace.Tracer

	// applyMu serializes op application (and, on the seed, sequencing +
	// broadcast, so members observe ops in sequence order per connection).
	applyMu sync.Mutex

	// mu guards the replicated bookkeeping below. Never held across engine
	// or transport calls.
	mu        sync.Mutex
	oplog     [][]byte                 // encoded ops; oplog[i] has seq base+i
	base      uint64                   // seq of oplog[0] (1 when nothing discarded)
	nextSeq   uint64                   // authority: next seq to assign
	applied   uint64                   // highest seq applied locally; raised only by setAppliedLocked
	appliedCh chan struct{}            // closed and replaced each time applied rises
	authHead  uint64                   // member: the authority's applied seq at the last anti-entropy read
	members   []rankAddr               // joined ranks, in rank order
	reserved  map[fabric.NodeID]string // authority: rank → addr promised by Discover, not yet joined
	epoch     uint64                   // current authority epoch (raised only by EPOCH ops)
	authority fabric.NodeID
	dedup     map[string]dedupEntry // op id → acked (seq, reply)
	dedupRing []string              // FIFO eviction order for dedup

	maxOplog int
	dlog     *oplog.Log // durable log; nil without DataDir

	opsSinceSnap int        // ops applied since the last durable snapshot
	snapMu       sync.Mutex // guards the cached snapshot served to peers
	snapSeq      uint64     // applied seq the cached snapshot covers
	snapEpoch    uint64
	snapPayload  []byte

	catching   atomic.Bool // mid snapshot-transfer / large sync (healthz)
	takingOver atomic.Bool // one authority takeover attempt at a time

	// outbox is the op the retrying sender's attempt ships, and outboxTC
	// its replication span context; both are written under applyMu
	// immediately before each (synchronous) Send.
	outbox   []byte
	outboxTC trace.Context

	stop     chan struct{}
	stopOnce sync.Once
	start    time.Time
	aeBusy   atomic.Bool // one anti-entropy pull in flight at a time

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
		base:      1,
		nextSeq:   1,
		epoch:     1,
		authority: SeedRank,
		appliedCh: make(chan struct{}),
		reserved:  make(map[fabric.NodeID]string),
		dedup:     make(map[string]dedupEntry),
		maxOplog:  cfg.MaxOplog,
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
	if n.maxOplog <= 0 {
		n.maxOplog = DefaultMaxOplog
	}
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
	if cfg.DataDir != "" {
		dl, err := oplog.Open(cfg.DataDir, oplog.Options{SegmentOps: cfg.SegmentOps, NoSync: cfg.NoSync})
		if err != nil {
			return nil, fmt.Errorf("cluster: open durable oplog: %w", err)
		}
		r.Counter("ft_quarantined_records_total").Add(int64(dl.Damaged()))
		n.dlog = dl
	}
	n.t.SetEpoch(1)
	n.snd = flow.NewSenderOver(n.attemptSend, flow.SenderConfig{Seed: cfg.FlowSeed}, r)
	sa := cfg.SuspectAfter
	if sa <= 0 {
		sa = 2
	}
	da := cfg.DeadAfter
	if da <= 0 {
		da = 3
	}
	n.det = member.NewOver(vantage{n}, member.Config{
		HeartbeatIntervalMS: n.cfg.heartbeat().Milliseconds(),
		SuspectAfter:        sa,
		DeadAfter:           da,
		HasSelf:             true,
		Self:                n.self,
	}, member.Hooks{
		OnDead: func(m fabric.NodeID) {
			n.logf("member %d declared dead", m)
			if m == n.currentAuthority() {
				go n.maybeAssumeAuthority()
			}
		},
		OnRejoin: func(m fabric.NodeID) { n.logf("member %d rejoined", m) },
	}, r)
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
	if _, _, err := n.sequence(trace.Context{}, "", "MEMBER", []string{"0", cfg.SelfAddr}, ""); err != nil {
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
	// JOIN and SYNC are idempotent (the seed reuses the rank for a known
	// address; replay skips applied ops), so a lossy wire just means retry.
	var joinErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		resp, err := n.call(SeedRank, fmt.Sprintf("JOIN %d %s", cfg.Self, cfg.SelfAddr), "", "join")
		if err != nil {
			joinErr = err
			if errors.Is(err, ErrUnavailable) {
				continue
			}
			return nil, err
		}
		rank, latest, err := parseJoinReply(resp)
		if err != nil {
			return nil, err
		}
		if rank != int(cfg.Self) {
			return nil, fmt.Errorf("cluster: seed assigned rank %d, we are %d", rank, cfg.Self)
		}
		if err := n.syncRange(SeedRank, 1, latest); err != nil {
			if IsLogCompacted(err) {
				// Too far behind the seed's window for replay: converge by
				// snapshot transfer plus the incremental tail.
				if err := n.catchUpFromSnapshot(SeedRank); err != nil {
					return nil, err
				}
			} else {
				joinErr = err
				if errors.Is(err, ErrUnavailable) {
					continue
				}
				return nil, err
			}
		}
		joinErr = nil
		break
	}
	if joinErr != nil {
		return nil, joinErr
	}
	n.startTicker()
	n.logf("joined as rank %d, replayed %d ops", int(cfg.Self), n.Applied())
	return n, nil
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

// Close stops the ticker and the durable log. The transport and engine
// belong to the caller.
func (n *Node) Close() {
	n.stopOnce.Do(func() {
		close(n.stop)
		if n.dlog != nil {
			n.dlog.Close()
		}
	})
}

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
// "ready", "catching-up" (mid snapshot transfer or bulk sync), or
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

// stateReply renders the STATE verb: the peer-visible succession facts.
func (n *Node) stateReply() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fmt.Sprintf("EPOCH %d AUTH %d SEQ %d FIRST %d", n.epoch, int(n.authority), n.applied, n.base)
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
				n.det.Tick(time.Since(n.start).Milliseconds())
				if auth := n.currentAuthority(); auth != n.self {
					go n.antiEntropy()
					// Belt and braces next to the OnDead hook: succession
					// also fires if this daemon booted after the authority
					// died (it never saw the transition).
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
// detector tick it fetches the authority's applied sequence (the MEMBERS
// reply leads with "SEQ <n>"), records it as the head that
// cluster_replica_lag_ops is measured against, and SYNCs any shortfall. The
// authority never pulls (it is the log). A shortfall past the authority's
// compaction window converges through snapshot transfer instead.
func (n *Node) antiEntropy() {
	if !n.aeBusy.CompareAndSwap(false, true) {
		return
	}
	defer n.aeBusy.Store(false)
	auth, latest, ok := n.readAuthHead()
	if !ok {
		return
	}
	n.applyMu.Lock()
	n.mu.Lock()
	applied := n.applied
	n.mu.Unlock()
	var syncErr error
	if latest > applied {
		syncErr = n.syncRangeLocked(auth, applied+1, latest)
	}
	n.applyMu.Unlock()
	if syncErr != nil {
		if IsLogCompacted(syncErr) {
			if err := n.catchUpFromSnapshot(auth); err != nil {
				n.logf("snapshot catch-up from %d: %v", auth, err)
			}
			return
		}
		n.logf("anti-entropy [%d,%d]: %v", applied+1, latest, syncErr)
	}
}

// readAuthHead fetches the authority's applied sequence and records it as
// the head cluster_replica_lag_ops is measured against. It never waits for
// applyMu, so a member that cannot apply still learns how far behind it is.
// ok is false on the authority itself and when the authority cannot be read.
func (n *Node) readAuthHead() (auth fabric.NodeID, latest uint64, ok bool) {
	auth = n.currentAuthority()
	if auth == n.self {
		return auth, 0, false
	}
	resp, err := n.call(auth, "MEMBERS", "", "anti-entropy")
	if err != nil {
		return auth, 0, false // authority unreachable: the detector is already tracking that
	}
	head, _ := splitLine(resp)
	f := strings.Fields(head)
	if len(f) != 2 || f[0] != "SEQ" {
		return auth, 0, false
	}
	latest, err = strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return auth, 0, false
	}
	n.mu.Lock()
	n.authHead = latest
	n.mu.Unlock()
	return auth, latest, true
}

// vantage adapts this daemon's wire view to the member.Prober contract: a
// daemon trusts itself unconditionally and can only probe paths that start
// at itself — there is no global observer on a real network.
type vantage struct{ n *Node }

var errNoVantage = errors.New("cluster: cannot probe a path not starting here")

func (v vantage) Heartbeat(from, to fabric.NodeID) error {
	if to == v.n.self {
		return nil
	}
	if from != v.n.self {
		return errNoVantage
	}
	return v.n.t.Heartbeat(from, to)
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

func decodeOp(p []byte) (seq, epoch uint64, id, kind string, args []string, body string, err error) {
	head, rest := splitLine(string(p))
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
// to apply locally, and return the reply. This is the single write path —
// the server's LOAD/STREAM/EMIT/ADVANCE/REGISTER commands all land here in
// cluster mode. A trailing "id=<token>" argument is the client's
// exactly-once token: retries of an already-acked id return the cached
// reply without re-sequencing.
func (n *Node) Forward(kind string, args []string, body string) (string, error) {
	return n.ForwardTraced(trace.Context{}, kind, args, body)
}

// ForwardTraced is Forward attached to a caller's trace: the member-side
// hop records a cluster.forward span whose context crosses the wire, so the
// authority's sequencing spans link under it. On authority loss it
// re-resolves (lowest live rank) and retries until the successor fences in,
// recording the client-observed write-unavailability window.
func (n *Node) ForwardTraced(tc trace.Context, kind string, args []string, body string) (string, error) {
	if !tc.Valid() && n.tracer != nil {
		root := n.tracer.StartRoot("cluster.op")
		tc = root.Context()
		defer root.End()
	}
	id, bare := SplitID(args)
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
		if target == n.self {
			reply, _, err = n.sequence(tc, id, kind, bare, body)
		} else {
			reply, err = n.forwardRemote(tc, target, id, kind, bare, body)
		}
		switch {
		case err == nil:
			if !unavailSince.IsZero() && n.hUnavail != nil {
				n.hUnavail.Observe(time.Since(unavailSince))
			}
			return reply, nil
		case errors.Is(err, ErrUnavailable), IsNotAuthority(err):
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
// the client hears "ok".
func (n *Node) forwardRemote(tc trace.Context, target fabric.NodeID, id, kind string, args []string, body string) (string, error) {
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
		// The authority's shed decision crossed the wire as text; type it
		// again so this daemon's client gets the same overload reply and
		// backoff hint the authority's own client would.
		if shed, ok := flow.ParseShedError(err.Error()); ok {
			return "", shed
		}
		return "", err
	}
	head, reply := splitLine(resp)
	var seq uint64
	if _, err := fmt.Sscanf(head, "SEQ %d", &seq); err != nil {
		return "", fmt.Errorf("cluster: bad FWD ack %q", head)
	}
	spWait := n.tracer.Start(tc, "cluster.wait_applied")
	ok := n.waitApplied(seq, forwardAckTimeout)
	spWait.End()
	if !ok {
		// Committed at the authority but not yet replicated here; the
		// client's id-bearing retry returns the cached reply once it lands.
		return "", &UnavailableError{Node: target, Op: "forward " + kind, Err: fmt.Errorf("op %d not replicated locally in %v", seq, forwardAckTimeout)}
	}
	return reply, nil
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
// write path in the order that lets every replica work at once: append it
// to the in-memory oplog, broadcast it, apply it locally, append it
// durably, reply. Members apply their copy while the authority applies and
// fsyncs; the reply still waits for the durable append. All of it runs
// under applyMu, so the op order members observe is the apply order.
//
// Because the op is broadcast before anyone knows whether it will be
// refused, a refused op is sequenced too and refused alike on every replica
// (ApplyVerb changes nothing when it refuses): it uses up its seq as a
// no-op, never enters the dedup table, and its error is the reply. Only the
// current authority may sequence; an already-acked op id short-circuits to
// the cached reply.
func (n *Node) sequence(tc trace.Context, id, kind string, args []string, body string) (string, uint64, error) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	if n.authority != n.self {
		n.mu.Unlock()
		return "", 0, ErrNotAuthority
	}
	if id != "" {
		if e, ok := n.dedup[id]; ok {
			n.mu.Unlock()
			n.cDupOps.Inc()
			return e.reply, e.seq, nil
		}
	}
	seq := n.nextSeq
	enc := encodeOp(seq, opEpoch(n.epoch, kind, args), id, kind, args, body)
	targets := make([]fabric.NodeID, 0, len(n.members))
	for _, m := range n.members {
		if m.rank != n.self {
			targets = append(targets, m.rank)
		}
	}
	n.mu.Unlock()
	n.recordMemLocked(seq, enc)

	spRepl := n.tracer.Start(tc, "seed.replicate")
	n.outbox, n.outboxTC = enc, spRepl.Context()
	for _, to := range targets {
		// Transient drops retry inside the sender; persistent failures trip
		// the per-member breaker and are dropped here — the member's gap
		// SYNC (or its rejoin replay) repairs the hole when it returns.
		_ = n.snd.Send(n.self, to, len(enc))
	}
	spRepl.End()

	spApply := n.tracer.Start(tc, "seed.apply")
	reply, err := n.applyLocked(seq, id, kind, args, body)
	spApply.EndErr(err)

	if n.dlog != nil {
		spSync := n.tracer.Start(tc, "seed.fsync")
		spSync.EndErr(n.persistLocked(seq, enc))
	}
	n.maybeSnapshotLocked(kind)
	return reply, seq, err
}

// recordLocked appends one applied op to the in-memory oplog and, when one
// is open, to the durable log, then drives the durable snapshot cadence.
// Caller holds applyMu.
func (n *Node) recordLocked(seq uint64, kind string, enc []byte) {
	n.recordMemLocked(seq, enc)
	if n.dlog != nil {
		n.persistLocked(seq, enc)
	}
	n.maybeSnapshotLocked(kind)
}

// recordMemLocked appends one op to the in-memory oplog window (trimming
// past MaxOplog) and advances nextSeq. Caller holds applyMu.
func (n *Node) recordMemLocked(seq uint64, enc []byte) {
	n.mu.Lock()
	if seq >= n.nextSeq {
		n.nextSeq = seq + 1
	}
	n.oplog = append(n.oplog, enc)
	if len(n.oplog) > n.maxOplog {
		drop := len(n.oplog) - n.maxOplog
		n.oplog = append(n.oplog[:0:0], n.oplog[drop:]...)
		n.base += uint64(drop)
	}
	n.mu.Unlock()
}

// persistLocked appends one op to the durable log, which must be open.
// Caller holds applyMu.
func (n *Node) persistLocked(seq uint64, enc []byte) error {
	err := n.dlog.Append(seq, enc)
	if err != nil {
		n.logf("durable append %d: %v", seq, err)
	}
	return err
}

// attemptSend is the flow.Sender delivery attempt: ship the outbox to the
// destination. outbox writes are serialized by applyMu, which is held
// across the Send that triggers this.
func (n *Node) attemptSend(from, to fabric.NodeID, _ int) error {
	return n.t.Send(from, to, n.outbox, n.outboxTC)
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
			n.reserved[fabric.NodeID(rank)] = addr
		}
	}
	latest := n.nextSeq - 1
	n.mu.Unlock()
	switch {
	case rank < 0 && want < 0:
		return "", fmt.Errorf("%w: no free rank for %s", ErrRankSpace, addr)
	case rank < 0:
		return "", fmt.Errorf("cluster: rank %d is taken", want)
	}
	if commit {
		if _, _, err := n.sequence(trace.Context{}, "", "MEMBER", []string{strconv.Itoa(rank), addr}, ""); err != nil {
			return "", err
		}
		n.mu.Lock()
		latest = n.nextSeq - 1
		n.mu.Unlock()
	}
	return fmt.Sprintf("RANK %d SEQ %d", rank, latest), nil
}

// handleSync serves SYNC <from> <to>: the requested oplog range, each op
// length-prefixed ("<len>\n<bytes>").
func (n *Node) handleSync(args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf("cluster: usage SYNC <from> <to>")
	}
	lo, err1 := strconv.ParseUint(args[0], 10, 64)
	hi, err2 := strconv.ParseUint(args[1], 10, 64)
	if err1 != nil || err2 != nil {
		return "", fmt.Errorf("cluster: bad SYNC range %v", args)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if lo < n.base {
		return "", fmt.Errorf("%w: ops before %d are gone (asked for %d); catch up by snapshot transfer", ErrLogCompacted, n.base, lo)
	}
	if hi >= n.base+uint64(len(n.oplog)) {
		hi = n.base + uint64(len(n.oplog)) - 1
	}
	var b bytes.Buffer
	for s := lo; s <= hi; s++ {
		enc := n.oplog[s-n.base]
		fmt.Fprintf(&b, "%d\n", len(enc))
		b.Write(enc)
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
	seq, epoch, id, kind, args, body, err := decodeOp(payload)
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
	n.applyMu.Lock()
	n.ingestLocked(from, payload, seq, id, kind, args, body)
	n.applyMu.Unlock()
	sp.End()
}

// ingestLocked applies one op in sequence order, fetching any gap from the
// SENDER first — after a failover the sender is the new authority, and the
// gap includes the EPOCH op this replica missed; pulling from the dead old
// authority would strand it. Duplicates (sequence already applied) are
// dropped — this plus the deterministic engine is what makes replication
// idempotent. A refused op is recorded like any other: the authority
// sequenced it and refused it the same way. enc is the op as it arrived,
// kept in the oplogs as is.
func (n *Node) ingestLocked(from fabric.NodeID, enc []byte, seq uint64, id, kind string, args []string, body string) {
	n.mu.Lock()
	applied := n.applied
	n.mu.Unlock()
	if seq <= applied {
		n.cDupOps.Inc()
		return
	}
	if seq > applied+1 {
		if err := n.syncRangeLocked(from, applied+1, seq-1); err != nil {
			if IsLogCompacted(err) {
				go func() {
					if err := n.catchUpFromSnapshot(from); err != nil {
						n.logf("snapshot catch-up from %d: %v", from, err)
					}
				}()
				return
			}
			n.logf("gap [%d,%d] unrepaired: %v", applied+1, seq-1, err)
			// Leave the gap; the op cannot be applied out of order. The next
			// broadcast (or anti-entropy) retries the repair.
			return
		}
	}
	n.applyLocked(seq, id, kind, args, body)
	n.recordLocked(seq, kind, enc)
}

// syncRange fetches and applies the op range [lo,hi] from target.
func (n *Node) syncRange(target fabric.NodeID, lo, hi uint64) error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	return n.syncRangeLocked(target, lo, hi)
}

func (n *Node) syncRangeLocked(target fabric.NodeID, lo, hi uint64) error {
	if hi < lo {
		return nil
	}
	// SYNC is idempotent; a lossy wire (a dropped or quarantined response)
	// deserves a couple of fresh round trips before the gap is left for the
	// next broadcast to re-trigger.
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
	rest := resp
	for rest != "" {
		head, tail := splitLine(rest)
		size, err := strconv.Atoi(strings.TrimSpace(head))
		if err != nil || size < 0 || size > len(tail) {
			return fmt.Errorf("cluster: malformed SYNC chunk header %q", head)
		}
		raw := []byte(tail[:size])
		seq, _, id, kind, args, body, err := decodeOp(raw)
		if err != nil {
			return err
		}
		n.mu.Lock()
		applied := n.applied
		n.mu.Unlock()
		if seq > applied {
			// No epoch fencing on replay: historical ops legitimately carry
			// the epochs they were sequenced under. A refused op replays as
			// refused.
			n.applyLocked(seq, id, kind, args, body)
			n.recordLocked(seq, kind, raw)
			n.cSynced.Inc()
		}
		rest = tail[size:]
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
// its id runs again.
func (n *Node) applyLocked(seq uint64, id, kind string, args []string, body string) (string, error) {
	reply, err := n.applyOp(kind, args, body)
	if err != nil {
		n.cRefused.Inc()
	} else {
		n.cApplied.Inc()
	}
	n.mu.Lock()
	n.setAppliedLocked(seq)
	if err == nil {
		n.recordDedupLocked(id, seq, reply)
	}
	n.mu.Unlock()
	return reply, err
}

// recordDedupLocked installs one acked (id, seq, reply) into the replicated
// exactly-once table, evicting FIFO past dedupCap. Caller holds n.mu.
func (n *Node) recordDedupLocked(id string, seq uint64, reply string) {
	if id == "" {
		return
	}
	if _, ok := n.dedup[id]; ok {
		return
	}
	n.dedup[id] = dedupEntry{seq: seq, reply: reply}
	n.dedupRing = append(n.dedupRing, id)
	if len(n.dedupRing) > dedupCap {
		evict := n.dedupRing[0]
		n.dedupRing = n.dedupRing[1:]
		delete(n.dedup, evict)
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
		n.mu.Lock()
		if i, ok := n.memberIndexLocked(r); ok {
			n.members[i].addr = args[1]
		} else {
			n.members = slices.Insert(n.members, i, rankAddr{r, args[1]})
		}
		n.mu.Unlock()
		if r != n.self {
			n.t.SetPeer(r, args[1])
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
		n.t.SetEpoch(e)
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

// callTraced is call with a span context that rides the wire frame (when
// the transport and the peer's connection negotiated tracing).
func (n *Node) callTraced(to fabric.NodeID, head, body, op string, tc trace.Context) (string, error) {
	payload := head + "\n" + body
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		var resp []byte
		resp, err = n.t.CallTraced(n.self, to, []byte(payload), tc)
		if err == nil {
			return string(resp), nil
		}
		if fabric.Transient(err) {
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
		reply, seq, err := n.sequence(tc, id, f[1], bare, body)
		if err != nil {
			return nil, err
		}
		// The ack leads with the assigned sequence so the forwarding member
		// can wait for local apply before acking its client.
		return []byte(fmt.Sprintf("SEQ %d\n%s", seq, reply)), nil
	case "STATE":
		return []byte(n.stateReply()), nil
	case "SNAPMETA":
		resp, err := n.serveSnapMeta()
		return []byte(resp), err
	case "SNAPGET":
		return n.serveSnapGet(f[1:])
	case "MEMBERS":
		return []byte(n.membersReply()), nil
	case verbFedStats, verbFedMetrics, verbFedTraces:
		return n.serveFed(f[0])
	default:
		return nil, fmt.Errorf("cluster: unknown verb %q", f[0])
	}
}

// membersReply renders "SEQ <applied>", then "EPOCH <e> AUTH <r>", plus one
// "<rank> <addr> <state>" line per member, from this daemon's local view.
// The leading SEQ line is load-bearing for anti-entropy; the EPOCH line lets
// operators (and the chaos harness) watch a failover fence in.
//
// The detector is read after n.mu is released: a probe round holds the
// detector's lock across its heartbeats, and n.mu must never wait on that.
func (n *Node) membersReply() string {
	var b strings.Builder
	n.mu.Lock()
	fmt.Fprintf(&b, "SEQ %d\n", n.applied)
	fmt.Fprintf(&b, "EPOCH %d AUTH %d\n", n.epoch, int(n.authority))
	members := slices.Clone(n.members)
	n.mu.Unlock()
	for _, m := range members {
		st := n.det.State(m.rank).String()
		if m.rank == n.self {
			st = "self"
		}
		fmt.Fprintf(&b, "%d %s %s\n", m.rank, m.addr, st)
	}
	return b.String()
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

// Info returns the CLUSTER command's lines: this daemon's view of every
// member.
func (n *Node) Info() []string {
	return strings.Split(strings.TrimRight(n.membersReply(), "\n"), "\n")
}
