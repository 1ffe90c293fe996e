// Seed-authority succession (DESIGN.md §15). The write authority is not a
// fixed rank: when the φ-accrual detector declares the current authority
// dead, the lowest live rank assumes authority, fences the old epoch, and
// resumes sequencing. Succession is deterministic — every replica computes
// the same successor from its membership view — so there is no election
// protocol, only a fenced takeover:
//
//  1. The candidate polls every reachable peer's STATE. If any peer already
//     sits at a higher epoch, someone else won a concurrent takeover (or
//     the old authority came back fenced-forward) and the candidate aborts.
//  2. It reconciles to the highest applied sequence any live peer has seen,
//     by incremental SYNC or — past the compacted window — by snapshot
//     transfer. Nothing a client may have been acked for is skipped: an ack
//     implies the op was applied on the authority and at least one other
//     daemon, and the candidate drains every such peer first.
//  3. It bumps the epoch and sequences an EPOCH op as its first act. Every
//     replica that applies it re-points writes at the successor and raises
//     its wire epoch, after which any broadcast stamped with the old epoch
//     is rejected at ingest (and old-epoch handshakes can be refused). A
//     zombie ex-authority can therefore neither sequence new ops (members
//     reject its stale-epoch broadcasts) nor un-fence itself (epochs only
//     rise).
//
// If the dead node revives after the takeover it is just a stale member:
// its broadcasts bounce, its forwarded writes relay to the successor, and
// its detector view converges on the EPOCH op like everyone else's.
package cluster

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/fabric"
	"repro/internal/member"
	"repro/internal/trace"
)

// resolveAuthority answers "who should sequence the next write". It is the
// single routing point for ForwardTraced: the recorded authority while it
// looks alive, otherwise the deterministic successor — and when that
// successor is this node, the takeover runs synchronously so the caller's
// very next attempt can sequence locally.
func (n *Node) resolveAuthority() fabric.NodeID {
	auth := n.currentAuthority()
	if auth == n.self || n.det.State(auth) != member.Dead {
		return auth
	}
	if low := n.lowestLiveRank(); low == n.self {
		n.maybeAssumeAuthority()
	}
	return n.currentAuthority()
}

// lowestLiveRank computes the deterministic successor: the lowest rank that
// is either this node or a member the detector has not declared dead.
func (n *Node) lowestLiveRank() fabric.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, m := range n.members {
		if m.rank >= n.self {
			break
		}
		if n.det.State(m.rank) != member.Dead {
			return m.rank
		}
	}
	return n.self
}

// maybeAssumeAuthority runs the takeover guards and, when they all hold,
// performs the takeover. Called from the detector's death hook, from the
// ticker, and synchronously from resolveAuthority; the CAS in
// assumeAuthority collapses concurrent triggers to one attempt.
func (n *Node) maybeAssumeAuthority() {
	auth := n.currentAuthority()
	if auth == n.self {
		return
	}
	if n.det.State(auth) != member.Dead {
		return
	}
	if n.lowestLiveRank() != n.self {
		return
	}
	if err := n.assumeAuthority(); err != nil {
		n.logf("takeover aborted: %v", err)
	}
}

// assumeAuthority is the fenced takeover itself.
func (n *Node) assumeAuthority() error {
	if !n.takingOver.CompareAndSwap(false, true) {
		return nil
	}
	defer n.takingOver.Store(false)
	// Re-check under the flag: a concurrent EPOCH op may have landed while
	// we raced for it.
	auth := n.currentAuthority()
	if auth == n.self || n.det.State(auth) != member.Dead || n.lowestLiveRank() != n.self {
		return nil
	}

	// Survey every reachable peer: abort on a higher epoch, and find the
	// most-applied peer to reconcile from.
	myEpoch := n.Epoch()
	bestPeer := fabric.NodeID(0)
	var bestSeq uint64
	havePeer := false
	for _, m := range n.membersCopy() {
		p := m.rank
		if p == n.self || n.det.State(p) == member.Dead {
			continue
		}
		resp, err := n.call(p, "STATE", "", "takeover-survey")
		if err != nil {
			continue // unreachable right now; the detector will catch up
		}
		var e, seq, first uint64
		var a int
		if _, err := fmt.Sscanf(resp, "EPOCH %d AUTH %d SEQ %d FIRST %d", &e, &a, &seq, &first); err != nil {
			continue
		}
		if e > myEpoch {
			return fmt.Errorf("peer %d is at epoch %d > %d; standing down", p, e, myEpoch)
		}
		if !havePeer || seq > bestSeq {
			bestPeer, bestSeq, havePeer = p, seq, true
		}
	}

	// Reconcile: no acked op may be lost, and every ack lives on at least
	// one live daemon (the forward path waits for local apply before
	// acking), so draining the most-applied live peer suffices.
	if havePeer && bestSeq > n.Applied() {
		err := n.syncRange(bestPeer, n.Applied()+1, bestSeq)
		if IsLogCompacted(err) {
			err = n.catchUpFromSnapshot(bestPeer)
		}
		if err != nil {
			return fmt.Errorf("reconcile from %d: %w", bestPeer, err)
		}
	}

	// Fence and assume. Claiming authority happens before sequencing the
	// EPOCH op — sequence() requires self-authority — and the op is stamped
	// with the epoch it installs (opEpoch), which applying it then raises.
	n.mu.Lock()
	if n.epoch != myEpoch || n.authority != auth {
		n.mu.Unlock()
		return nil // lost a race to a concurrent EPOCH op
	}
	n.authority = n.self
	newEpoch := n.epoch + 1
	n.mu.Unlock()

	_, _, err := n.sequence(trace.Context{}, "", "EPOCH",
		[]string{strconv.FormatUint(newEpoch, 10), strconv.Itoa(int(n.self))}, "")
	if err != nil {
		return fmt.Errorf("fencing epoch %d: %w", newEpoch, err)
	}
	n.cFailover.Inc()
	n.logf("assumed write authority at epoch %d (seq %d)", newEpoch, n.Applied())
	return nil
}

// RetryAfterHint is how long a client should wait before retrying a write
// that raced a failover: the server renders it in "-ERR unavailable
// retry-after=..." replies and clients honour it instead of tight-looping.
const RetryAfterHint = 50 * time.Millisecond
