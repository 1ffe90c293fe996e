// Restart recovery (DESIGN.md §15). A daemon that comes back with a data
// directory has two very different situations to tell apart:
//
//   - Someone else is alive. Then the cluster's state machine moved on
//     without us, and our local engine history is merely a prefix (possibly
//     a fenced, stale one). The safe move is to discard it: rejoin like a
//     fresh member and replay — or snapshot-transfer — from a live peer.
//     Local durability is only a liveness optimisation here, not the truth.
//
//   - Nobody else is reachable. Then this daemon's disk IS the cluster's
//     memory. It restores the latest durable snapshot, replays the oplog
//     tail, and — only if it is the lowest rank the recovered membership
//     knows about — assumes authority under a bumped, re-fenced epoch so
//     that any zombie writes from the pre-crash epoch stay rejected.
//
// The probe that distinguishes the two is a STATE call to every address
// recovered from the snapshot and oplog. That makes recovery deterministic:
// the same disk plus the same live-peer set always yields the same outcome.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/fabric"
	"repro/internal/oplog"
	"repro/internal/trace"
)

// HasDurableState reports whether dir holds anything Resume could recover
// (oplog segments or a snapshot). Callers use it to pick Resume over
// NewSeed/Join on daemon start.
func HasDurableState(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal") {
			return true
		}
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".ws") {
			return true
		}
	}
	return false
}

// Resume restarts a daemon from its data directory. cfg.Engine must be
// fresh (nothing loaded): the recovered snapshot and oplog replay — or the
// live cluster's history — fully determine its contents.
func Resume(cfg Config) (*Node, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("cluster: Resume requires DataDir")
	}
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}

	snapSeq, snapEpoch, snapPayload, err := oplog.LoadSnapshot(cfg.DataDir)
	haveSnap := err == nil
	if err != nil && !errors.Is(err, oplog.ErrNoSnapshot) {
		return nil, fmt.Errorf("cluster: load snapshot: %w", err)
	}

	// Scan — don't apply — the durable record to recover the succession
	// facts: who the members were, how high the epoch got, how far the log
	// reaches. The snapshot's header sections carry the same facts for
	// everything below the compaction point.
	members := make(map[int]string)
	maxEpoch := uint64(1)
	var logLast uint64
	if haveSnap {
		scanSnapshotMeta(snapPayload, members, &maxEpoch)
		if snapEpoch > maxEpoch {
			maxEpoch = snapEpoch
		}
	}
	err = n.dlog.Range(1, 0, func(seq uint64, payload []byte) error {
		_, epoch, _, kind, args, _, derr := decodeOp(payload)
		if derr != nil {
			return derr
		}
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
		if kind == "MEMBER" && len(args) == 2 {
			if r, e := strconv.Atoi(args[0]); e == nil {
				members[r] = args[1]
			}
		}
		logLast = seq
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: scan durable oplog: %w", err)
	}
	if !haveSnap && logLast == 0 {
		return nil, fmt.Errorf("cluster: nothing to resume in %s", cfg.DataDir)
	}
	members[int(n.self)] = cfg.SelfAddr
	for r, addr := range members {
		if fabric.NodeID(r) != n.self {
			n.t.SetPeer(fabric.NodeID(r), addr)
		}
	}

	// Probe: is anyone else alive? Prefer the highest-epoch respondent as
	// the catch-up donor — it has the freshest succession view.
	var donor fabric.NodeID
	var donorEpoch uint64
	alive := false
	for r := range members {
		id := fabric.NodeID(r)
		if id == n.self {
			continue
		}
		resp, err := n.call(id, "STATE", "", "resume-probe")
		if err != nil {
			continue
		}
		var e, seq, first uint64
		var a int
		if _, err := fmt.Sscanf(resp, "EPOCH %d AUTH %d SEQ %d FIRST %d", &e, &a, &seq, &first); err != nil {
			continue
		}
		if !alive || e > donorEpoch {
			donor, donorEpoch, alive = id, e, true
		}
	}

	if alive {
		if err := n.resumeAsMember(donor); err != nil {
			return nil, err
		}
	} else {
		if err := n.resumeAsAuthority(members, maxEpoch, haveSnap, snapPayload, snapSeq); err != nil {
			return nil, err
		}
	}
	n.startTicker()
	return n, nil
}

// resumeAsMember discards local history and converges on the live cluster.
// The local engine is fresh, so the full replay (or snapshot transfer) from
// the donor rebuilds the exact replicated state; the stale durable log is
// reset and re-grows under the current epoch.
func (n *Node) resumeAsMember(donor fabric.NodeID) error {
	if err := n.dlog.Reset(); err != nil {
		return fmt.Errorf("cluster: reset stale durable log: %w", err)
	}
	n.logf("resuming as member via rank %d (local history discarded)", donor)
	// JOIN relays to whoever the donor believes is the authority, so this
	// works mid-failover too. Idempotent; retry across a lossy window.
	var joinErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		resp, err := n.call(donor, fmt.Sprintf("JOIN %d %s", int(n.self), n.cfg.SelfAddr), "", "rejoin")
		if err != nil {
			joinErr = err
			if errors.Is(err, ErrUnavailable) {
				continue
			}
			return err
		}
		rank, latest, err := parseJoinReply(resp)
		if err != nil {
			return err
		}
		if rank != int(n.self) {
			return fmt.Errorf("cluster: rank %d reassigned to %d while we were down", int(n.self), rank)
		}
		if err := n.syncRange(donor, 1, latest); err != nil {
			if IsLogCompacted(err) {
				if err := n.catchUpFromSnapshot(donor); err != nil {
					return err
				}
			} else {
				joinErr = err
				if errors.Is(err, ErrUnavailable) {
					continue
				}
				return err
			}
		}
		joinErr = nil
		break
	}
	return joinErr
}

// resumeAsAuthority restores from disk and assumes sequencing — permitted
// only when this daemon is the lowest rank the recovered membership knows,
// so two isolated survivors can never both crown themselves from disk.
func (n *Node) resumeAsAuthority(members map[int]string, maxEpoch uint64, haveSnap bool, snapPayload []byte, snapSeq uint64) error {
	for r := range members {
		if r < int(n.self) {
			return fmt.Errorf("cluster: refusing solo authority resume: rank %d is recorded as a member and unreachable; start it (or wipe its record) first", r)
		}
	}

	n.applyMu.Lock()
	if haveSnap {
		gotSeq, _, _, err := n.applySnapshotLocked(snapPayload)
		if err != nil {
			n.applyMu.Unlock()
			return fmt.Errorf("cluster: restore snapshot at %d: %w", snapSeq, err)
		}
		n.mu.Lock()
		n.setAppliedLocked(gotSeq)
		n.nextSeq = gotSeq + 1
		n.base = gotSeq + 1
		n.oplog = nil
		n.mu.Unlock()
	}
	replayed := 0
	err := n.dlog.Range(n.Applied()+1, 0, func(seq uint64, payload []byte) error {
		dseq, _, id, kind, args, body, derr := decodeOp(payload)
		if derr != nil {
			return derr
		}
		if dseq != seq {
			return fmt.Errorf("cluster: durable op %d framed as %d", dseq, seq)
		}
		// A refused op was sequenced and refused everywhere; it replays as
		// refused.
		n.applyLocked(seq, id, kind, args, body)
		// In-memory record only: the op is already on disk.
		n.recordMemLocked(seq, append([]byte(nil), payload...))
		replayed++
		return nil
	})
	n.applyMu.Unlock()
	if err != nil {
		return err
	}

	// Assume authority under a re-fenced epoch: even a solo restart bumps
	// the epoch, so ops the pre-crash incarnation sequenced but never made
	// durable can never be accepted by anyone who saw them.
	n.mu.Lock()
	if maxEpoch > n.epoch {
		n.epoch = maxEpoch
	}
	newEpoch := n.epoch + 1
	n.authority = n.self
	selfAddrStale := n.memberAddrLocked(n.self) != n.cfg.SelfAddr
	n.mu.Unlock()
	if _, _, err := n.sequence(trace.Context{}, "", "EPOCH",
		[]string{strconv.FormatUint(newEpoch, 10), strconv.Itoa(int(n.self))}, ""); err != nil {
		return fmt.Errorf("cluster: re-fencing epoch %d: %w", newEpoch, err)
	}
	if selfAddrStale {
		if _, _, err := n.sequence(trace.Context{}, "", "MEMBER",
			[]string{strconv.Itoa(int(n.self)), n.cfg.SelfAddr}, ""); err != nil {
			return fmt.Errorf("cluster: re-recording own address: %w", err)
		}
	}
	n.logf("resumed as authority: %d replayed ops, applied %d, epoch %d", replayed, n.Applied(), newEpoch)
	return nil
}

// RecoverRank scans a data directory for the rank recorded against
// selfAddr, so a restarting daemon can re-identify itself before the wire
// transport (which needs a rank to speak for) comes up. It reads the
// snapshot header and oplog without applying anything.
func RecoverRank(dir, selfAddr string) (fabric.NodeID, bool) {
	members := make(map[int]string)
	maxEpoch := uint64(1)
	if _, _, payload, err := oplog.LoadSnapshot(dir); err == nil {
		scanSnapshotMeta(payload, members, &maxEpoch)
	}
	if dl, err := oplog.Open(dir, oplog.Options{}); err == nil {
		dl.Range(1, 0, func(seq uint64, payload []byte) error {
			_, _, _, kind, args, _, derr := decodeOp(payload)
			if derr != nil {
				return derr
			}
			if kind == "MEMBER" && len(args) == 2 {
				if r, e := strconv.Atoi(args[0]); e == nil {
					members[r] = args[1]
				}
			}
			return nil
		})
		dl.Close()
	}
	for r, addr := range members {
		if addr == selfAddr {
			return fabric.NodeID(r), true
		}
	}
	return 0, false
}

// scanSnapshotMeta extracts membership and epoch facts from a snapshot's
// header without applying it: only the leading STATE/MEMBER lines matter,
// and the scan stops at the first data section.
func scanSnapshotMeta(payload []byte, members map[int]string, maxEpoch *uint64) {
	rest := string(payload)
	for rest != "" {
		line, tail := splitLine(rest)
		f := strings.Fields(line)
		if len(f) == 0 {
			rest = tail
			continue
		}
		switch f[0] {
		case "WSSNAP":
			rest = tail
		case "STATE":
			var seq, epoch uint64
			var auth int
			if _, err := fmt.Sscanf(line, "STATE SEQ %d EPOCH %d AUTH %d", &seq, &epoch, &auth); err == nil {
				if epoch > *maxEpoch {
					*maxEpoch = epoch
				}
			}
			rest = tail
		case "MEMBER":
			if len(f) == 3 {
				if r, err := strconv.Atoi(f[1]); err == nil {
					members[r] = f[2]
				}
			}
			rest = tail
		default:
			return // data sections begin; header is done
		}
	}
}
