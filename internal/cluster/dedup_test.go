package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// pointsInto reports whether s's bytes lie inside buf's.
func pointsInto(s, buf string) bool {
	if s == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	return p >= lo && p < lo+uintptr(len(buf))
}

// requireOwnCopies fails unless the exactly-once table holds id and every
// id and reply it keeps is a copy, not a view into src.
func requireOwnCopies(t *testing.T, n *Node, src, id, what string) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.dedup[id]; !ok {
		t.Fatalf("%s: the table has no entry for %q", what, id)
	}
	for k, e := range n.dedup {
		if pointsInto(k, src) || pointsInto(e.reply, src) {
			t.Errorf("%s: the entry for %q keeps a view into the %d-byte source", what, k, len(src))
		}
	}
	for _, k := range n.dedupRing {
		if pointsInto(k, src) {
			t.Errorf("%s: the eviction ring keeps a view into the %d-byte source", what, len(src))
		}
	}
}

// TestDedupTableCopiesWhatItKeeps: an id is cut from the request or op that
// carried it, and a restored reply from the snapshot transcript. The table
// outlives both, so a view would pin a whole LOAD body or transcript for as
// long as its entry lives.
func TestDedupTableCopiesWhatItKeeps(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()

	// Sequenced on the authority, as HandleCall serves a forwarded write.
	req := "FWD LOAD id=fwd-1\n" + bigLoad("a", 64<<10)
	head, body := splitLine(req)
	id, bare := SplitID(strings.Fields(head)[2:])
	if !pointsInto(id, req) {
		t.Fatal("test setup: the id does not alias the request")
	}
	if _, err := seed.node.sequenceLocal(trace.Context{}, id, "LOAD", bare, body); err != nil {
		t.Fatal(err)
	}
	requireOwnCopies(t, seed.node, req, "fwd-1", "sequenced")

	// Ingested by a replica, as HandleSend applies a broadcast.
	replica := startSeed(t, nil)
	defer replica.close()
	seq := replica.node.Applied() + 1
	op := string(encodeOp(seq, 1, "bcast-1", "LOAD", nil, bigLoad("b", 64<<10)))
	_, _, opID, kind, args, opBody, err := decodeOp(op)
	if err != nil {
		t.Fatal(err)
	}
	replica.node.applyMu.Lock()
	replica.node.ingestLocked([]byte(op), seq, opID, kind, args, opBody)
	replica.node.applyMu.Unlock()
	requireOwnCopies(t, replica.node, op, "bcast-1", "ingested")

	// Restored from a snapshot transcript.
	restored := startSeed(t, nil)
	defer restored.close()
	seed.node.applyMu.Lock()
	transcript := string(seed.node.buildSnapshotLocked())
	seed.node.applyMu.Unlock()
	restored.node.applyMu.Lock()
	_, _, _, err = restored.node.applySnapshotLocked(transcript)
	restored.node.applyMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	requireOwnCopies(t, restored.node, transcript, "fwd-1", "restored")
}

// TestDedupGaugesCountIdsAndReplies: cluster_dedup_bytes counts what an
// entry keeps, its id and its reply, on the authority and on the member
// that forwarded the writes alike; the bodies the writes carried are not in
// it.
func TestDedupGaugesCountIdsAndReplies(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	const loads = 6
	longestID, longestReply, bodies := 0, 0, 0
	for i := 0; i < loads; i++ {
		body := bigLoad("g"+strconv.Itoa(i), 128<<10)
		id := fmt.Sprintf("load-%d", i)
		reply, err := d1.node.Forward("LOAD", []string{"id=" + id}, body)
		if err != nil {
			t.Fatal(err)
		}
		longestID, longestReply = max(longestID, len(id)), max(longestReply, len(reply))
		bodies += len(body)
	}
	waitConverged(t, seed, d1)
	for _, d := range []*daemon{seed, d1} {
		entries, size := gauge(t, d, "cluster_dedup_entries"), gauge(t, d, "cluster_dedup_bytes")
		if entries != loads {
			t.Errorf("rank %d: cluster_dedup_entries = %d, want %d", d.node.Self(), entries, loads)
		}
		if bound := entries * int64(longestID+longestReply); size <= 0 || size > bound {
			t.Errorf("rank %d: cluster_dedup_bytes = %d, want within %d entries × (%d + %d) = %d (the bodies were %d bytes)",
				d.node.Self(), size, entries, longestID, longestReply, bound, bodies)
		}
	}
}

// TestDedupRingEvictsOldestFirst: past dedupCap the oldest entry goes, the
// byte count follows the evictions, and the snapshot lists the survivors
// oldest first.
func TestDedupRingEvictsOldestFirst(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	n := seed.node
	const extra = 10
	n.mu.Lock()
	for i := 0; i < dedupCap+extra; i++ {
		n.recordDedupLocked("id-"+strconv.Itoa(i), uint64(i+100), "now "+strconv.Itoa(i))
	}
	var order []string
	var size int64
	n.dedupOrderLocked(func(id string, e dedupEntry) {
		order = append(order, id)
		size += int64(len(id) + len(e.reply))
	})
	entries, held := len(n.dedup), n.dedupBytes
	n.mu.Unlock()
	if entries != dedupCap || len(order) != dedupCap {
		t.Fatalf("table holds %d entries (%d in order), want %d", entries, len(order), dedupCap)
	}
	for i, id := range order {
		if want := "id-" + strconv.Itoa(i+extra); id != want {
			t.Fatalf("entry %d is %q, want %q", i, id, want)
		}
	}
	if held != size {
		t.Fatalf("dedupBytes = %d, the entries hold %d", held, size)
	}
	if reply, err := n.sequenceLocal(trace.Context{}, "id-3", "ADVANCE", []string{"50"}, ""); err != nil || reply != "now 50" {
		t.Fatalf("an evicted id re-executes: got %q, %v", reply, err)
	}
	newest := strconv.Itoa(dedupCap + extra - 1)
	if reply, err := n.sequenceLocal(trace.Context{}, "id-"+newest, "ADVANCE", []string{"70"}, ""); err != nil || reply != "now "+newest {
		t.Fatalf("a kept id answers from the table: got %q, %v", reply, err)
	}
}
