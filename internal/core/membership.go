package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/fabric"
	"repro/internal/member"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/stream"
	"repro/internal/tstore"
)

// MembershipConfig enables node-level failure detection and live failover
// (DESIGN.md §11). Zero value = disabled: the engine behaves exactly as
// before — crashed nodes surface as injected-fault errors, nothing is
// re-homed, and recovery is the whole-cluster fault-tolerance path (§5).
type MembershipConfig struct {
	// Enable turns the failure detector and repair pipeline on.
	Enable bool
	// HeartbeatIntervalMS is the probe-round period on the logical clock
	// (default 100 ms). The detector ticks inside AdvanceTo, so probing is
	// deterministic with respect to the driven timeline.
	HeartbeatIntervalMS int64
	// SuspectAfter / DeadAfter are the consecutive missed probe rounds after
	// which a node is marked suspect (default 2) / declared dead (default 5).
	SuspectAfter int
	DeadAfter    int
}

// ErrPartitionDown reports a one-shot query that could not be answered
// because it needed data homed on a node currently declared dead. Callers
// match it with errors.Is; the failure is immediate (fail-fast), never a
// hang.
var ErrPartitionDown = errors.New("core: partition down")

// PartitionDownError carries which dead node a failed one-shot query needed.
// It unwraps to both ErrPartitionDown and the underlying fabric fault, so
// errors.Is(err, fabric.ErrInjected) continues to hold.
type PartitionDownError struct {
	Node fabric.NodeID
	err  error
}

func (p *PartitionDownError) Error() string {
	return fmt.Sprintf("core: partition on node %d is down: %v", p.Node, p.err)
}

// Unwrap exposes both the typed sentinel and the original fault.
func (p *PartitionDownError) Unwrap() []error { return []error{ErrPartitionDown, p.err} }

// missedBatch is one journaled batch whose share for a dead node was never
// injected; the snapshot number is recorded so replay restores the exact
// per-key snapshot runs (§4.3 consecutiveness).
type missedBatch struct {
	b  tstore.BatchID
	sn uint32
}

// pendingRefire is one continuous-query window firing withheld because its
// batch range intersects a dead node's missed batches. It is executed after
// the node rejoins and its partition is rebuilt — the §5 at-least-once
// contract, with exactly one delivery per (query, boundary) because the set
// is deduplicated.
type pendingRefire struct {
	cq *ContinuousQuery
	at rdf.Timestamp
}

type refireKey struct {
	cq *ContinuousQuery
	at rdf.Timestamp
}

// failoverState is the engine's membership and repair bookkeeping. The
// detector hooks run synchronously on the AdvanceTo goroutine (Tick fires
// before batch injection), so stream/query re-homing races nothing; the
// journals and refire set get their own lock because injection workers and
// query executors append to them concurrently.
type failoverState struct {
	det *member.Detector

	mu   sync.RWMutex
	dead map[fabric.NodeID]bool
	// missed journals, per dead node and stream, the batches whose share was
	// withheld (or lost) while the node was declared dead. Replayed from
	// upstream backup on rejoin.
	missed map[fabric.NodeID]map[*streamState][]missedBatch
	// lost journals shares lost in dispatch to a node that is NOT (yet)
	// declared dead — the pre-detection gap between a crash and the
	// detector's verdict. Promoted into missed when the node is declared
	// dead; discarded if the node turns out alive (the share stays counted
	// as dropped, the pre-membership contract).
	lost map[fabric.NodeID]map[*streamState][]missedBatch

	refires    []pendingRefire
	refireSeen map[refireKey]bool

	cMissed        *obs.Counter // failover_missed_batches_total
	cLost          *obs.Counter // failover_lost_shares_total
	cRefireNoted   *obs.Counter // failover_refires_noted_total
	cRefired       *obs.Counter // failover_refires_executed_total
	cAbandoned     *obs.Counter // failover_reships_abandoned_total
	cReplayed      *obs.Counter // failover_replayed_batches_total
	cReplayMissing *obs.Counter // failover_replay_missing_total
	cCQRehomed     *obs.Counter // failover_cq_rehomed_total
	cIndexPromoted *obs.Counter // failover_index_promotions_total
	cPartitionDown *obs.Counter // oneshot_partition_down_total
}

// newFailover wires the failure detector and repair pipeline into the engine.
func newFailover(e *Engine) *failoverState {
	fo := &failoverState{
		dead:       make(map[fabric.NodeID]bool),
		missed:     make(map[fabric.NodeID]map[*streamState][]missedBatch),
		lost:       make(map[fabric.NodeID]map[*streamState][]missedBatch),
		refireSeen: make(map[refireKey]bool),
	}
	r := e.obs
	fo.cMissed = r.Counter("failover_missed_batches_total")
	fo.cLost = r.Counter("failover_lost_shares_total")
	fo.cRefireNoted = r.Counter("failover_refires_noted_total")
	fo.cRefired = r.Counter("failover_refires_executed_total")
	fo.cAbandoned = r.Counter("failover_reships_abandoned_total")
	fo.cReplayed = r.Counter("failover_replayed_batches_total")
	fo.cReplayMissing = r.Counter("failover_replay_missing_total")
	fo.cCQRehomed = r.Counter("failover_cq_rehomed_total")
	fo.cIndexPromoted = r.Counter("failover_index_promotions_total")
	fo.cPartitionDown = r.Counter("oneshot_partition_down_total")
	r.GaugeFunc("vts_epoch", func() int64 { return e.coord.Epoch() })
	r.GaugeFunc("failover_pending_refires", func() int64 {
		fo.mu.RLock()
		defer fo.mu.RUnlock()
		return int64(len(fo.refires))
	})
	r.GaugeFunc("failover_dead_nodes", func() int64 {
		fo.mu.RLock()
		defer fo.mu.RUnlock()
		var n int64
		for _, d := range fo.dead {
			if d {
				n++
			}
		}
		return n
	})
	m := e.cfg.Membership
	fo.det = member.New(e.fab, member.Config{
		Nodes:               e.cfg.Nodes,
		HeartbeatIntervalMS: m.HeartbeatIntervalMS,
		SuspectAfter:        m.SuspectAfter,
		DeadAfter:           m.DeadAfter,
	}, member.Hooks{
		OnDead:   e.handleNodeDead,
		OnRejoin: e.handleNodeRejoin,
		OnAlive:  e.handleNodeAlive,
	}, r)
	return fo
}

// Detector exposes the failure detector (nil when membership is disabled) —
// chaos and benchmarks read node states through it.
func (e *Engine) Detector() *member.Detector {
	if e.fo == nil {
		return nil
	}
	return e.fo.det
}

// tickMembership runs the failure detector up to the engine clock. Death and
// rejoin repairs execute synchronously inside, before the tick's batches
// inject — so injection never races a re-homing. Afterwards it discards
// lost-share journals of nodes the detector verified reachable (the losses
// were transient message faults, not partition loss) and drains any pending
// re-fires that are no longer blocked.
func (e *Engine) tickMembership(ts rdf.Timestamp) {
	fo := e.fo
	if fo == nil {
		return
	}
	fo.det.Tick(int64(ts))
	fo.mu.Lock()
	for n := range fo.lost {
		if fo.det.Missed(n) == 0 {
			// The node answered its latest probe round: the journaled shares
			// were dropped messages, not a dying node's partition. They stay
			// accounted as dropped (the pre-membership contract) and the
			// windows they blocked become eligible to re-fire below.
			delete(fo.lost, n)
		}
	}
	refirable := len(fo.refires) > 0
	fo.mu.Unlock()
	if refirable {
		e.runPendingRefires()
	}
}

// nodeDown reports whether node n is currently declared dead (false when
// membership is disabled).
func (e *Engine) nodeDown(n fabric.NodeID) bool {
	fo := e.fo
	if fo == nil {
		return false
	}
	fo.mu.RLock()
	defer fo.mu.RUnlock()
	return fo.dead[n]
}

// skipDead returns the dispatch membership filter, or nil when membership is
// disabled (DispatchSkip with a nil filter is exactly Dispatch).
func (e *Engine) skipDead() func(fabric.NodeID) bool {
	if e.fo == nil {
		return nil
	}
	return e.nodeDown
}

// appendMissed inserts m into a per-stream journal, keeping it sorted by
// batch and deduplicated (a batch's share is journaled at most once).
func appendMissed(list []missedBatch, m missedBatch) []missedBatch {
	i := sort.Search(len(list), func(i int) bool { return list[i].b >= m.b })
	if i < len(list) && list[i].b == m.b {
		return list
	}
	list = append(list, missedBatch{})
	copy(list[i+1:], list[i:])
	list[i] = m
	return list
}

// journalMissed records that node n's (non-empty) share of batch b was
// withheld because n is declared dead. Rejoin replays it from upstream
// backup. An empty share carries no data, so it is not journaled — the node
// is advanced past it arithmetically at rejoin.
func (e *Engine) journalMissed(st *streamState, n fabric.NodeID, b tstore.BatchID, sn uint32, count int) {
	fo := e.fo
	if fo == nil || count == 0 {
		return
	}
	fo.mu.Lock()
	defer fo.mu.Unlock()
	m := fo.missed[n]
	if m == nil {
		m = make(map[*streamState][]missedBatch)
		fo.missed[n] = m
	}
	list := appendMissed(m[st], missedBatch{b: b, sn: sn})
	if len(list) != len(m[st]) {
		fo.cMissed.Inc()
	}
	m[st] = list
}

// journalLost records a share lost in dispatch to a node not (yet) declared
// dead. If the node is later declared dead the entry is promoted into the
// missed journal; if the node proves alive the entry is discarded (the share
// stays accounted as dropped). Bounded by the upstream-backup budget — older
// entries could not be replayed anyway.
func (e *Engine) journalLost(st *streamState, n fabric.NodeID, b tstore.BatchID, sn uint32) {
	fo := e.fo
	if fo == nil {
		return
	}
	fo.mu.Lock()
	defer fo.mu.Unlock()
	if fo.dead[n] {
		// Raced with the death verdict: journal as missed directly.
		m := fo.missed[n]
		if m == nil {
			m = make(map[*streamState][]missedBatch)
			fo.missed[n] = m
		}
		m[st] = appendMissed(m[st], missedBatch{b: b, sn: sn})
		fo.cMissed.Inc()
		return
	}
	m := fo.lost[n]
	if m == nil {
		m = make(map[*streamState][]missedBatch)
		fo.lost[n] = m
	}
	m[st] = appendMissed(m[st], missedBatch{b: b, sn: sn})
	if limit := stream.DefaultBackupBatches; len(m[st]) > limit {
		m[st] = m[st][len(m[st])-limit:]
	}
	fo.cLost.Inc()
}

// noteRefire queues a withheld or failed window firing for re-execution after
// repair. Deduplicated by (query, boundary) so at-least-once redelivery is in
// fact exactly-once per boundary.
func (e *Engine) noteRefire(cq *ContinuousQuery, at rdf.Timestamp) {
	fo := e.fo
	if fo == nil {
		return
	}
	fo.mu.Lock()
	defer fo.mu.Unlock()
	k := refireKey{cq: cq, at: at}
	if fo.refireSeen[k] {
		return
	}
	fo.refireSeen[k] = true
	fo.refires = append(fo.refires, pendingRefire{cq: cq, at: at})
	fo.cRefireNoted.Inc()
}

// windowBlocked reports whether a firing of cq at `at` would cover a batch
// whose share on some dead node was never injected. Such a window is partial:
// executing it would return silently wrong results, so the engine withholds
// it and re-fires after the rejoin repair.
func (e *Engine) windowBlocked(cq *ContinuousQuery, at rdf.Timestamp) bool {
	fo := e.fo
	if fo == nil {
		return false
	}
	fo.mu.RLock()
	defer fo.mu.RUnlock()
	if len(fo.missed) == 0 && len(fo.lost) == 0 {
		return false
	}
	for _, w := range cq.windows {
		lo, hi := w.fromBatch(at), w.toBatch(at)
		// Both journals block: missed (node declared dead, replay pending)
		// and lost (node missing probes, verdict pending — the share may yet
		// prove to be partition loss).
		for _, journal := range []map[fabric.NodeID]map[*streamState][]missedBatch{fo.missed, fo.lost} {
			for _, per := range journal {
				for _, mb := range per[w.state] {
					if mb.b > hi {
						break
					}
					if mb.b >= lo {
						return true
					}
				}
			}
		}
	}
	return false
}

// survivorOf picks the re-homing target for work homed on dead node n: the
// next live node after n in ring order (deterministic, spreads consecutive
// failures). Falls back to n itself if every node is dead.
func (e *Engine) survivorOf(n fabric.NodeID) fabric.NodeID {
	fo := e.fo
	fo.mu.RLock()
	defer fo.mu.RUnlock()
	for i := 1; i < e.cfg.Nodes; i++ {
		c := fabric.NodeID((int(n) + i) % e.cfg.Nodes)
		if !fo.dead[c] {
			return c
		}
	}
	return n
}

// liveNodeFor adjusts a round-robin placement to skip dead nodes (identity
// when membership is disabled).
func (e *Engine) liveNodeFor(n fabric.NodeID) fabric.NodeID {
	if !e.nodeDown(n) {
		return n
	}
	return e.survivorOf(n)
}

// handleNodeDead is the repair pipeline, run synchronously from the detector
// when a node's missed probes cross DeadAfter. Without stopping the engine it
// (a) fences the node's task queues, (b) excludes it from VTS stability so
// survivor windows keep firing (epoch bump), (c) re-homes its continuous
// queries and stream adaptors onto survivors, (d) promotes a replica when the
// node homed a stream index, and (e) abandons replica re-shipments from/to it,
// releasing their stability holds.
func (e *Engine) handleNodeDead(n fabric.NodeID) {
	fo := e.fo
	fo.mu.Lock()
	fo.dead[n] = true
	// Promote the pre-detection lost-share journal: those shares are now
	// known to be missed partition data, not transient drops.
	if lostHere := fo.lost[n]; lostHere != nil {
		m := fo.missed[n]
		if m == nil {
			m = make(map[*streamState][]missedBatch)
			fo.missed[n] = m
		}
		for st, list := range lostHere {
			for _, mb := range list {
				m[st] = appendMissed(m[st], mb)
			}
			fo.cMissed.Add(int64(len(list)))
		}
		delete(fo.lost, n)
	}
	fo.mu.Unlock()

	// Fence: refuse new tasks for n (queued ones drain — the workers are a
	// simulation artifact) and exclude it from the stability minimum.
	e.cluster.MarkDead(n)
	e.coord.ExcludeNode(n)

	surv := e.survivorOf(n)
	e.mu.Lock()
	streams := append([]*streamState(nil), e.streamByID...)
	cqs := make([]*ContinuousQuery, 0, len(e.continuous))
	for _, cq := range e.continuous {
		cqs = append(cqs, cq)
	}
	e.mu.Unlock()

	for _, st := range streams {
		if st.index.Home() == n {
			// Promote a locality replica to index home so replica-less
			// readers pay their one-sided read against a live node.
			st.index.PromoteHome(surv)
			fo.cIndexPromoted.Inc()
		}
		st.index.Unreplicate(n)
		if st.home == n {
			// The adaptor home dispatches batches; move arrival to a
			// survivor. Safe: this runs on the AdvanceTo goroutine before
			// the tick's injections start.
			st.home = surv
		}
	}
	for _, cq := range cqs {
		if cq.Home() != n {
			continue
		}
		cq.setHome(surv)
		fo.cCQRehomed.Inc()
		if !e.cfg.DisableIndexReplication {
			// Locality-aware partitioning follows the query (§4.2).
			for _, w := range cq.windows {
				w.state.index.Replicate(surv)
			}
		}
	}
	e.abandonReships(n)
}

// abandonReships drops queued replica re-shipments from or to a dead node and
// releases their stability holds. The index itself is shared in-process, so
// no survivor data is lost: shipments TO n served a reader that no longer
// exists (and n rejoins without replicas), and shipments FROM n duplicate
// content every survivor replica already has.
func (e *Engine) abandonReships(n fabric.NodeID) {
	e.reshipMu.Lock()
	var kept, dropped []reship
	for _, r := range e.reships {
		if r.from == n || r.to == n {
			dropped = append(dropped, r)
		} else {
			kept = append(kept, r)
		}
	}
	e.reships = kept
	e.reshipMu.Unlock()
	for _, r := range dropped {
		e.coord.ClearUnshipped(r.st.id, r.batch)
		e.fo.cAbandoned.Inc()
	}
}

// handleNodeAlive runs when a suspicion is retracted without a death verdict:
// the node was reachable all along (or recovered within the window), so the
// pre-detection lost-share journal is discarded — those shares remain
// accounted as dropped, exactly the pre-membership contract.
func (e *Engine) handleNodeAlive(n fabric.NodeID) {
	fo := e.fo
	fo.mu.Lock()
	delete(fo.lost, n)
	fo.mu.Unlock()
}

// handleNodeRejoin rebuilds a dead node's partition when the detector sees it
// reachable again: journaled missed batches replay from upstream backup (§5),
// the node re-enters the stability minimum (epoch bump), and withheld window
// firings execute over the repaired data.
func (e *Engine) handleNodeRejoin(n fabric.NodeID) {
	fo := e.fo
	e.cluster.MarkLive(n)
	if e.snd != nil {
		// The path to n is healed by definition of the rejoin verdict; close
		// its breaker so post-rejoin dispatch does not fail fast on stale
		// state.
		e.snd.Breaker(n).Success()
	}
	fo.mu.Lock()
	journal := fo.missed[n]
	delete(fo.missed, n)
	delete(fo.lost, n)
	fo.dead[n] = false
	fo.mu.Unlock()

	e.mu.Lock()
	streams := append([]*streamState(nil), e.streamByID...)
	e.mu.Unlock()
	for _, st := range streams {
		e.replayNode(st, n, journal[st])
	}
	e.coord.IncludeNode(n)
	e.runPendingRefires()
}

// replayNode rebuilds node n's share of one stream from upstream backup:
// every journaled missed batch is re-partitioned, charged as one re-shipment,
// and injected out-of-order-safely (the stream index merges backfill into
// place; per-key snapshot runs stay consecutive because n's keys were
// untouched during the outage). Batches already trimmed from the backup are
// counted, never silently skipped.
func (e *Engine) replayNode(st *streamState, n fabric.NodeID, entries []missedBatch) {
	fo := e.fo
	local := e.coord.LocalVTS(n)
	cur := tstore.BatchID(0)
	if int(st.id) < len(local) {
		cur = local[st.id]
	}
	if len(entries) > 0 {
		byID := make(map[tstore.BatchID]stream.Batch)
		for _, b := range st.src.Replay(entries[0].b) {
			byID[b.ID] = b
		}
		for _, ent := range entries {
			b, ok := byID[ent.b]
			if !ok {
				// The upstream backup no longer holds the batch (budget or
				// checkpoint trim): the share is unrecoverable and stays
				// accounted as dropped.
				fo.cReplayMissing.Inc()
			} else {
				w := stream.PartitionNode(e.fab, b, n)
				if !w.Empty() {
					// Charge the re-shipment; a send-layer failure does not
					// abort the repair (the write below is the repair).
					_ = e.sendOneWay(st.home, n, w.WireBytes())
					stats := stream.InjectNode(n, w, ent.b, ent.sn, stream.InjectTarget{
						Store:     e.stored,
						Index:     st.index,
						Transient: st.trans[n],
						Obs:       e.injObs,
						Sender:    e.snd,
						Unshipped: func(from, to fabric.NodeID, bytes int) {
							e.coord.MarkUnshipped(st.id, ent.b)
							e.enqueueReship(reship{st: st, batch: ent.b, from: from, to: to, bytes: bytes})
						},
					})
					st.mu.Lock()
					st.injectStats.Add(stats)
					st.mu.Unlock()
					fo.cReplayed.Inc()
				}
			}
			// Advance the node's vector entry — but never regress it: the
			// pre-detection gap may have advanced it past early losses (an
			// empty injection ran before the death verdict).
			if ent.b > cur {
				e.coord.OnBatchInserted(n, st.id, ent.b)
				cur = ent.b
			}
		}
	}
	// Batches with an empty share for n were never journaled; walk the vector
	// entry up to the sealed frontier so stability does not regress when the
	// node re-enters the minimum.
	if last := st.src.SealedTo(); last > cur {
		e.coord.OnBatchInserted(n, st.id, last)
	}
}

// runPendingRefires executes withheld window firings whose blocking data has
// been repaired. Still-blocked firings (another node remains dead) stay
// queued.
func (e *Engine) runPendingRefires() {
	fo := e.fo
	fo.mu.Lock()
	pend := fo.refires
	fo.refires = nil
	fo.refireSeen = make(map[refireKey]bool)
	fo.mu.Unlock()
	if len(pend) == 0 {
		return
	}
	var wg sync.WaitGroup
	var kept []pendingRefire
	for _, rf := range pend {
		rf := rf
		if e.windowBlocked(rf.cq, rf.at) {
			kept = append(kept, rf)
			continue
		}
		wg.Add(1)
		if err := e.cluster.Submit(rf.cq.Home(), func() {
			defer wg.Done()
			rf.cq.execute(rf.at)
		}); err != nil {
			wg.Done()
			kept = append(kept, rf)
			continue
		}
		fo.cRefired.Inc()
	}
	wg.Wait()
	if len(kept) > 0 {
		fo.mu.Lock()
		for _, rf := range kept {
			k := refireKey{cq: rf.cq, at: rf.at}
			if !fo.refireSeen[k] {
				fo.refireSeen[k] = true
				fo.refires = append(fo.refires, rf)
			}
		}
		fo.mu.Unlock()
	}
}

// oldestMissedBatch returns the oldest journaled missed batch of a stream
// across all journals, and whether one exists — checkpointing must not trim
// the upstream backup past it, or the rejoin replay loses its source.
func (e *Engine) oldestMissedBatch(st *streamState) (tstore.BatchID, bool) {
	fo := e.fo
	if fo == nil {
		return 0, false
	}
	fo.mu.RLock()
	defer fo.mu.RUnlock()
	var oldest tstore.BatchID
	found := false
	scan := func(j map[fabric.NodeID]map[*streamState][]missedBatch) {
		for _, per := range j {
			if list := per[st]; len(list) > 0 {
				if !found || list[0].b < oldest {
					oldest = list[0].b
					found = true
				}
			}
		}
	}
	scan(fo.missed)
	scan(fo.lost)
	return oldest, found
}

// faultedDeadNode inspects a one-shot execution error: if it is an injected
// crash/partition fault naming a node currently declared dead, the query
// needed that partition and the caller wraps the error as partition-down.
func (e *Engine) faultedDeadNode(err error) (fabric.NodeID, bool) {
	if e.fo == nil {
		return 0, false
	}
	var fe *fabric.FaultError
	if !errors.As(err, &fe) {
		return 0, false
	}
	if fe.Kind != fabric.FaultNodeDown && fe.Kind != fabric.FaultPartitioned {
		return 0, false
	}
	for _, n := range []fabric.NodeID{fe.Node, fe.To, fe.From} {
		if e.nodeDown(n) {
			return n, true
		}
	}
	return 0, false
}
