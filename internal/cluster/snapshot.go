// Snapshot transfer: the catch-up path for members that need ops the
// serving member's op log compacted away, and the checkpoint that makes
// compaction and restart recovery safe (DESIGN.md §15).
//
// A snapshot is a deterministic text transcript of one replica's state
// machine at an applied-sequence boundary. The one property everything
// hinges on is replica-identical string-server IDs: store keys and vertex
// homing are ID-based, so the transcript dumps the
// entity and predicate tables in ID order and a restorer re-interns them in
// that order before anything else touches the string server. Stream and
// continuous-query registrations replay through the same applyOp path the
// op log uses, so coordinator slots, round-robin homes, and auto-assigned
// query names come out identical too. Triples restore through store.Insert
// with its floor set, which clamps snapshot numbers instead of panicking
// when a catch-up replays history into a store that already advanced.
//
// Transcript sections, in order:
//
//	WSSNAP 1
//	STATE SEQ <applied> EPOCH <e> AUTH <r> NOW <now>
//	MEMBER <rank> <addr>          (per known member)
//	ACK <id> <seq> <len>\n<reply> (replicated exactly-once table)
//	ENT <len>\n<term-key>         (entity terms, ID order)
//	PRED <len>\n<iri>             (predicates, ID order)
//	STREAM <name> <interval_ms> [preds...]
//	ADVANCE <now>                 (clock restore: seal/advance before CQs)
//	CQ <name> <len>\n<text>       (registration order)
//	KEY <vid> <pid> <n> <obj...>  (out-edge multisets; in-edges and indexes
//	                               are rebuilt by store.Insert)
//
// Window-resident transient state (tstore batches, stream-index spans for
// unexpired windows) is deliberately NOT captured: the store effects of
// every sealed batch are already in the KEY dump, and a restored replica
// under-reports continuous results only until its windows slide past the
// snapshot point. Snapshots are only built at quiescent points — right
// after an ADVANCE with no pending emits — because tuples sitting in
// adaptor buffers live nowhere else and would be lost permanently.
package cluster

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fabric"
	"repro/internal/oplog"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/strserver"
)

// DefaultSnapshotEvery is the op cadence between durable snapshots.
const DefaultSnapshotEvery = 4096

// snapChunk bounds one SNAPGET response, comfortably under the wire's
// 16 MiB frame ceiling.
const snapChunk = 1 << 20

// maybeSnapshotLocked drives the snapshot cadence after each applied op.
// Caller holds applyMu. Due snapshots are deferred at non-quiescent points
// (only an ADVANCE with no pending emits is safe — see the package comment)
// and retried on the next op. A closed node takes none, and neither does a
// one-member cluster (see Config.Transport). A private op log is compacted
// without a snapshot file: only Resume reads one, and Resume never opens a
// private directory.
func (n *Node) maybeSnapshotLocked(kind string) {
	if n.closed || n.t == nil {
		return
	}
	every := n.cfg.SnapshotEvery
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	n.opsSinceSnap++
	if n.opsSinceSnap < every {
		return
	}
	if kind != "ADVANCE" || n.eng.PendingEmits() != 0 {
		n.cSnapDeferred.Inc()
		return
	}
	payload := n.buildSnapshotLocked()
	n.mu.Lock()
	seq, epoch := n.applied, n.epoch
	n.mu.Unlock()
	if err := n.saveSnapshot(seq, epoch, payload); err != nil {
		n.logf("snapshot save at %d: %v", seq, err)
		return
	}
	// Ops at or below the snapshot are dominated; whole segments they span
	// are reclaimed (the open tail is never deleted).
	if err := n.dlog.TruncateBefore(seq + 1); err != nil {
		n.logf("log compaction below %d: %v", seq+1, err)
	}
	n.cacheSnapshot(seq, epoch, payload)
	n.cSnapBytes.Add(int64(len(payload)))
	n.opsSinceSnap = 0
	n.logf("durable snapshot at seq %d (%d bytes)", seq, len(payload))
}

// saveSnapshot writes the snapshot file Resume restores from, beside a
// durable op log; a private one gets none.
func (n *Node) saveSnapshot(seq, epoch uint64, payload []byte) error {
	if n.tmpDir {
		return nil
	}
	return oplog.SaveSnapshot(n.logDir, seq, epoch, payload)
}

func (n *Node) cacheSnapshot(seq, epoch uint64, payload []byte) {
	n.snapMu.Lock()
	n.snapSeq, n.snapEpoch, n.snapPayload = seq, epoch, payload
	n.snapMu.Unlock()
}

// buildSnapshotLocked renders the transcript. Caller holds applyMu (no op
// may apply mid-dump) and has verified quiescence.
func (n *Node) buildSnapshotLocked() []byte {
	var b bytes.Buffer
	eng := n.eng
	ss := eng.StringServer()
	b.WriteString("WSSNAP 1\n")
	n.mu.Lock()
	fmt.Fprintf(&b, "STATE SEQ %d EPOCH %d AUTH %d NOW %d\n", n.applied, n.epoch, int(n.authority), int64(eng.Now()))
	for _, m := range n.members {
		fmt.Fprintf(&b, "MEMBER %d %s\n", m.rank, m.addr)
	}
	n.dedupOrderLocked(func(id string, e dedupEntry) {
		fmt.Fprintf(&b, "ACK %s %d %d\n%s\n", id, e.seq, len(e.reply), e.reply)
	})
	now := int64(eng.Now())
	n.mu.Unlock()

	for _, key := range ss.EntityKeys() {
		fmt.Fprintf(&b, "ENT %d\n%s\n", len(key), key)
	}
	for _, iri := range ss.PredicateIRIs() {
		fmt.Fprintf(&b, "PRED %d\n%s\n", len(iri), iri)
	}
	for _, cfg := range eng.StreamConfigsOrdered() {
		fmt.Fprintf(&b, "STREAM %s %d", cfg.Name, cfg.BatchInterval.Milliseconds())
		for _, p := range cfg.TimingPredicates {
			b.WriteByte(' ')
			b.WriteString(p)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "ADVANCE %d\n", now)
	for _, cq := range eng.ContinuousOrdered() {
		fmt.Fprintf(&b, "CQ %s %d\n%s\n", cq.Name, len(cq.Text), cq.Text)
	}
	g := eng.Store()
	for node := 0; node < g.Fabric().Nodes(); node++ {
		g.Shard(fabric.NodeID(node)).RangeKeys(func(k store.Key, vals []rdf.ID) {
			if k.Dir != store.Out || k.IsIndex() || k.IsPredIndex() {
				return
			}
			fmt.Fprintf(&b, "KEY %d %d %d", uint64(k.Vid), uint64(k.Pid), len(vals))
			for _, v := range vals {
				fmt.Fprintf(&b, " %d", uint64(v))
			}
			b.WriteByte('\n')
		})
	}
	return b.Bytes()
}

// blobField maps each transcript section that carries a blob to the field of
// its header line that holds the blob's length.
var blobField = map[string]int{"ACK": 3, "ENT": 1, "PRED": 1, "CQ": 2}

// walkSnapshot calls f for every section line of a transcript after its
// magic line, with the line's fields and, for a section that carries one, its
// blob (which may contain newlines). It checks the framing; f checks the
// rest.
func walkSnapshot(payload string, f func(fields []string, line, blob string) error) error {
	line, rest := splitLine(payload)
	if line != "WSSNAP 1" {
		return fmt.Errorf("cluster: bad snapshot magic %q", line)
	}
	for rest != "" {
		line, rest = splitLine(rest)
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		blob := ""
		if at, ok := blobField[fields[0]]; ok {
			size, err := -1, error(nil)
			if len(fields) == at+1 {
				size, err = strconv.Atoi(fields[at])
			}
			if err != nil || size < 0 || size > len(rest) {
				return fmt.Errorf("cluster: bad snapshot header %q", line)
			}
			blob, rest = rest[:size], strings.TrimPrefix(rest[size:], "\n")
		}
		if err := f(fields, line, blob); err != nil {
			return err
		}
	}
	return nil
}

// applySnapshotLocked replays transcript s into this replica. Caller holds
// applyMu. The same code path serves a fresh engine (restore/join) and a
// stale one (in-place catch-up): every section skips what already exists,
// and triple restore inserts only the per-key multiset shortfall. The framing
// and every entity key are checked and the predicate table interned, all or
// none, before anything else is applied: a transcript whose predicates do not
// fit the predicate space changes nothing and fails with
// strserver.ErrPredicateSpace. The entity table is interned next, in ID
// order.
func (n *Node) applySnapshotLocked(s string) (seq, epoch uint64, auth fabric.NodeID, err error) {
	var (
		preds []string
		ents  []byte // the ENT keys, back to back
		ends  []int  // ends[j] is where ENT key j ends in ents
	)
	if err := walkSnapshot(s, func(f []string, _, blob string) error {
		switch f[0] {
		case "PRED":
			preds = append(preds, blob)
		case "ENT":
			if err := rdf.CheckKey(blob); err != nil {
				return fmt.Errorf("cluster: bad snapshot entity: %w", err)
			}
			ents = append(ents, blob...)
			ends = append(ends, len(ents))
		}
		return nil
	}); err != nil {
		return 0, 0, 0, err
	}
	ss := n.eng.StringServer()
	// The predicate space is separate from the entity space, so interning it
	// ahead of the entity table assigns the IDs the donor holds.
	if err := ss.InternPredicates(make([]rdf.ID, len(preds)), func(i int) string { return preds[i] }); err != nil {
		return 0, 0, 0, fmt.Errorf("cluster: snapshot predicate table of %d: %w", len(preds), err)
	}
	ss.InternKeys(make([]rdf.ID, len(ends)), func(j int) []byte {
		if j == 0 {
			return ents[:ends[0]]
		}
		return ents[ends[j-1]:ends[j]]
	})
	g := n.eng.Store()
	haveCQ := make(map[string]bool)
	for _, cq := range n.eng.ContinuousOrdered() {
		haveCQ[cq.Name] = true
	}
	err = walkSnapshot(s, func(f []string, line, blob string) error {
		switch f[0] {
		case "STATE":
			if _, e := fmt.Sscanf(line, "STATE SEQ %d EPOCH %d AUTH %d", &seq, &epoch, &auth); e != nil {
				return fmt.Errorf("cluster: bad snapshot state %q: %w", line, e)
			}
		case "MEMBER", "STREAM", "ADVANCE":
			// The op log's own lines, replayed through its interpreter (which
			// checks them; a STREAM that already exists is adopted).
			if _, e := n.applyOp(f[0], f[1:], ""); e != nil {
				return fmt.Errorf("cluster: bad snapshot line %q: %w", line, e)
			}
		case "ACK":
			ackSeq, e := strconv.ParseUint(f[2], 10, 64)
			if e != nil {
				return fmt.Errorf("cluster: bad snapshot ack %q", line)
			}
			n.mu.Lock()
			n.recordDedupLocked(f[1], ackSeq, blob)
			n.mu.Unlock()
		case "ENT", "PRED":
			// Interned above.
		case "CQ":
			if !haveCQ[f[1]] {
				if _, e := n.applyOp("REGISTER", nil, blob); e != nil {
					return e
				}
			}
		case "KEY":
			if len(f) < 4 {
				return fmt.Errorf("cluster: bad snapshot key %q", line)
			}
			vid, e1 := strconv.ParseUint(f[1], 10, 64)
			pid, e2 := strconv.ParseUint(f[2], 10, 64)
			count, e3 := strconv.Atoi(f[3])
			if e1 != nil || e2 != nil || e3 != nil || len(f) != 4+count ||
				rdf.ID(vid) > rdf.MaxEntityID || rdf.ID(pid) > strserver.MaxPredicateID {
				return fmt.Errorf("cluster: bad snapshot key %q", line)
			}
			// In-place catch-up dedup: insert only the multiset shortfall
			// per (key, object), so replaying a snapshot over a store that
			// already holds a prefix of it cannot double triples.
			want := make(map[rdf.ID]int, count)
			order := make([]rdf.ID, 0, count)
			for _, tok := range f[4:] {
				o, e := strconv.ParseUint(tok, 10, 64)
				if e != nil || rdf.ID(o) > rdf.MaxEntityID {
					return fmt.Errorf("cluster: bad snapshot key %q", line)
				}
				id := rdf.ID(o)
				if want[id] == 0 {
					order = append(order, id)
				}
				want[id]++
			}
			outKey := store.EdgeKey(rdf.ID(vid), rdf.ID(pid), store.Out)
			for _, existing := range g.ShardOf(rdf.ID(vid)).GetAll(outKey) {
				if want[existing] > 0 {
					want[existing]--
				}
			}
			for _, obj := range order {
				for i := 0; i < want[obj]; i++ {
					g.Insert(strserver.EncodedTriple{S: rdf.ID(vid), P: rdf.ID(pid), O: obj}, store.BaseSN, true, nil)
				}
			}
		default:
			return fmt.Errorf("cluster: unknown snapshot section %q", f[0])
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	// Succession facts ride the snapshot: the restored replica starts at
	// the donor's epoch and authority view.
	n.mu.Lock()
	if epoch > n.epoch {
		n.epoch = epoch
	}
	n.authority = auth
	n.mu.Unlock()
	return seq, epoch, auth, nil
}

// serveSnapMeta answers SNAPMETA: refresh the served snapshot if the engine
// is quiescent, then describe it ("SNAP <seq> <epoch> <bytes> <chunks>
// <crc>"). A replica that has never reached a quiescent point answers an
// error; the requester retries.
func (n *Node) serveSnapMeta() (string, error) {
	n.applyMu.Lock()
	if n.eng.PendingEmits() == 0 {
		payload := n.buildSnapshotLocked()
		n.mu.Lock()
		seq, epoch := n.applied, n.epoch
		n.mu.Unlock()
		n.cacheSnapshot(seq, epoch, payload)
	}
	n.applyMu.Unlock()
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	if n.snapPayload == nil {
		return "", fmt.Errorf("cluster: no snapshot available yet (not quiescent)")
	}
	chunks := (len(n.snapPayload) + snapChunk - 1) / snapChunk
	crc := oplog.Checksum(n.snapPayload)
	return fmt.Sprintf("SNAP %d %d %d %d %d", n.snapSeq, n.snapEpoch, len(n.snapPayload), chunks, crc), nil
}

// serveSnapGet answers SNAPGET <seq> <i>: chunk i of the cached snapshot at
// seq. A seq mismatch means the cache moved between META and GET; the
// requester restarts the transfer.
func (n *Node) serveSnapGet(args []string) ([]byte, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("cluster: usage SNAPGET <seq> <chunk>")
	}
	seq, err1 := strconv.ParseUint(args[0], 10, 64)
	i, err2 := strconv.Atoi(args[1])
	if err1 != nil || err2 != nil || i < 0 {
		return nil, fmt.Errorf("cluster: bad SNAPGET %v", args)
	}
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	if n.snapPayload == nil || n.snapSeq != seq {
		return nil, fmt.Errorf("cluster: snapshot at %d no longer cached", seq)
	}
	lo := i * snapChunk
	if lo >= len(n.snapPayload) {
		return nil, fmt.Errorf("cluster: SNAPGET chunk %d out of range", i)
	}
	hi := lo + snapChunk
	if hi > len(n.snapPayload) {
		hi = len(n.snapPayload)
	}
	return n.snapPayload[lo:hi], nil
}

// catchUpFromSnapshot is catchUp's branch for ops target's log compacted
// away: it restores target's snapshot, then SYNCs the tail past it up to op
// hi. Status reports "catching-up" meanwhile. Caller holds catchMu.
func (n *Node) catchUpFromSnapshot(target fabric.NodeID, hi uint64) error {
	n.catching.Store(true)
	defer n.catching.Store(false)

	// The donor may briefly have no quiescent snapshot to serve (or be
	// mid-restart); retry for a bounded window before giving up.
	var meta string
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		meta, err = n.call(target, "SNAPMETA", "", "snapshot-meta")
		if err == nil {
			break
		}
	}
	if err != nil {
		return err
	}
	var seq, epoch uint64
	var size, chunks int
	var crc uint32
	if _, err := fmt.Sscanf(meta, "SNAP %d %d %d %d %d", &seq, &epoch, &size, &chunks, &crc); err != nil {
		return fmt.Errorf("cluster: bad SNAPMETA %q: %w", meta, err)
	}
	if n.Applied() >= seq {
		// Already past the snapshot point: a plain tail sync suffices.
		return n.syncTo(target, hi)
	}
	payload := make([]byte, 0, size)
	for i := 0; i < chunks; i++ {
		chunk, err := n.call(target, fmt.Sprintf("SNAPGET %d %d", seq, i), "", "snapshot-get")
		if err != nil {
			return err
		}
		payload = append(payload, chunk...)
	}
	if len(payload) != size || oplog.Checksum(payload) != crc {
		return fmt.Errorf("cluster: snapshot transfer damaged (%d of %d bytes)", len(payload), size)
	}

	n.applyMu.Lock()
	if n.closed {
		n.applyMu.Unlock()
		return errClosed
	}
	gotSeq, gotEpoch, _, err := n.applySnapshotLocked(string(payload))
	if err != nil {
		n.applyMu.Unlock()
		return err
	}
	n.mu.Lock()
	n.setAppliedLocked(gotSeq)
	n.mu.Unlock()
	// Rebase the op log at the snapshot: everything before it is captured by
	// the snapshot, saved alongside a durable log.
	if err := n.dlog.Reset(); err != nil {
		n.logf("oplog rebase: %v", err)
	} else if err := n.saveSnapshot(gotSeq, gotEpoch, payload); err != nil {
		n.logf("snapshot save: %v", err)
	}
	n.applyMu.Unlock()

	n.cSnapXfers.Inc()
	n.cSnapBytes.Add(int64(len(payload)))
	n.logf("caught up by snapshot transfer from %d: seq %d (%d bytes)", target, gotSeq, len(payload))
	return n.syncTo(target, hi)
}
