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
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

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

	// Scan — don't apply — the durable record to recover the succession
	// facts: who the members were, how high the epoch got, how far the log
	// reaches.
	rec, err := scanDurable(cfg.DataDir, n.dlog)
	if err != nil {
		return nil, fmt.Errorf("cluster: scan durable record: %w", err)
	}
	if rec.snap == nil && rec.logLast == 0 {
		return nil, fmt.Errorf("cluster: nothing to resume in %s", cfg.DataDir)
	}
	rec.members[int(n.self)] = cfg.SelfAddr
	for r, addr := range rec.members {
		if fabric.NodeID(r) != n.self {
			// The transport keeps addr for the daemon's life, and it is cut
			// from an op log record or from the whole snapshot transcript.
			n.t.SetPeer(fabric.NodeID(r), strings.Clone(addr))
		}
	}

	// Probe: is anyone else alive? Prefer the highest-epoch respondent as
	// the catch-up donor — it has the freshest succession view.
	var others []fabric.NodeID
	for r := range rec.members {
		if fabric.NodeID(r) != n.self {
			others = append(others, fabric.NodeID(r))
		}
	}
	slices.Sort(others)
	if alive := n.survey(others); len(alive) > 0 {
		donor := slices.MaxFunc(alive, func(a, b peerState) int { return cmp.Compare(a.epoch, b.epoch) })
		err = n.resumeAsMember(donor.rank)
	} else {
		err = n.resumeAsAuthority(rec)
	}
	if err != nil {
		return nil, err
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
	// works mid-failover too.
	return n.join(donor)
}

// resumeAsAuthority restores from disk and assumes sequencing — permitted
// only when this daemon is the lowest rank the recovered membership knows,
// so two isolated survivors can never both crown themselves from disk.
func (n *Node) resumeAsAuthority(rec durableRecord) error {
	for r := range rec.members {
		if r < int(n.self) {
			return fmt.Errorf("cluster: refusing solo authority resume: rank %d is recorded as a member and unreachable; start it (or wipe its record) first", r)
		}
	}

	n.applyMu.Lock()
	if rec.snap != nil {
		gotSeq, _, _, err := n.applySnapshotLocked(string(rec.snap))
		if err != nil {
			n.applyMu.Unlock()
			return fmt.Errorf("cluster: restore snapshot at %d: %w", rec.snapSeq, err)
		}
		n.mu.Lock()
		n.setAppliedLocked(gotSeq)
		n.mu.Unlock()
	}
	replayed := 0
	err := n.dlog.Range(n.Applied()+1, 0, func(seq uint64, payload []byte) error {
		dseq, _, id, kind, args, body, derr := decodeOp(string(payload))
		if derr != nil {
			return derr
		}
		if dseq != seq {
			return fmt.Errorf("cluster: durable op %d framed as %d", dseq, seq)
		}
		// A refused op was sequenced and refused everywhere; it replays as
		// refused.
		n.applyLocked(seq, id, kind, args, body)
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
	if rec.maxEpoch > n.epoch {
		n.epoch = rec.maxEpoch
	}
	newEpoch := n.epoch + 1
	n.authority = n.self
	selfAddrStale := n.memberAddrLocked(n.self) != n.cfg.SelfAddr
	n.mu.Unlock()
	if _, err := n.sequenceLocal(trace.Context{}, "", "EPOCH",
		[]string{strconv.FormatUint(newEpoch, 10), strconv.Itoa(int(n.self))}, ""); err != nil {
		return fmt.Errorf("cluster: re-fencing epoch %d: %w", newEpoch, err)
	}
	if selfAddrStale {
		if _, err := n.sequenceLocal(trace.Context{}, "", "MEMBER",
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
// snapshot header and oplog without applying anything; a record that does
// not decode ends the scan, and what was read before it still counts.
func RecoverRank(dir, selfAddr string) (fabric.NodeID, bool) {
	dl, err := oplog.Open(dir, oplog.Options{})
	if err != nil {
		return 0, false
	}
	rec, _ := scanDurable(dir, dl)
	dl.Close()
	for r, addr := range rec.members {
		if addr == selfAddr {
			return fabric.NodeID(r), true
		}
	}
	return 0, false
}

// durableRecord is what a data directory says about succession, read
// without applying anything: the latest snapshot, every member's address
// and the highest epoch across that snapshot's header and the op log, and
// the last logged seq.
type durableRecord struct {
	snapSeq  uint64
	snap     []byte // the snapshot payload; nil when there is none
	members  map[int]string
	maxEpoch uint64
	logLast  uint64
}

// scanDurable reads dir's latest snapshot and dl's every record into a
// durableRecord. On a record that does not decode it returns what it read
// before it, with the error.
func scanDurable(dir string, dl *oplog.Log) (durableRecord, error) {
	rec := durableRecord{members: make(map[int]string), maxEpoch: 1}
	seq, epoch, payload, err := oplog.LoadSnapshot(dir)
	if err == nil {
		rec.snapSeq, rec.snap = seq, payload
		rec.scanSnapshotHeader(payload)
		rec.maxEpoch = max(rec.maxEpoch, epoch)
	} else if !errors.Is(err, oplog.ErrNoSnapshot) {
		return rec, fmt.Errorf("load snapshot: %w", err)
	}
	err = dl.Range(1, 0, func(seq uint64, payload []byte) error {
		_, epoch, _, kind, args, _, derr := decodeOp(string(payload))
		if derr != nil {
			return derr
		}
		rec.maxEpoch = max(rec.maxEpoch, epoch)
		if kind == "MEMBER" && len(args) == 2 {
			if r, e := strconv.Atoi(args[0]); e == nil {
				rec.members[r] = args[1]
			}
		}
		rec.logLast = seq
		return nil
	})
	return rec, err
}

// scanSnapshotHeader extracts membership and epoch facts from a snapshot's
// header: only the leading STATE/MEMBER lines matter, and the scan stops at
// the first data section.
func (rec *durableRecord) scanSnapshotHeader(payload []byte) {
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
				rec.maxEpoch = max(rec.maxEpoch, epoch)
			}
			rest = tail
		case "MEMBER":
			if len(f) == 3 {
				if r, err := strconv.Atoi(f[1]); err == nil {
					rec.members[r] = f[2]
				}
			}
			rest = tail
		default:
			return // data sections begin; header is done
		}
	}
}
