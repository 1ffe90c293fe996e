package oplog

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func appendN(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for s := from; s <= to; s++ {
		if err := l.Append(s, []byte(fmt.Sprintf("op-%d", s))); err != nil {
			t.Fatalf("append %d: %v", s, err)
		}
	}
}

func collect(t *testing.T, l *Log, from, to uint64) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	if err := l.Range(from, to, func(seq uint64, p []byte) error {
		got[seq] = string(p)
		return nil
	}); err != nil {
		t.Fatalf("range: %v", err)
	}
	return got
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentOps: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 10)
	if l.First() != 1 || l.Last() != 10 {
		t.Fatalf("bounds = [%d,%d], want [1,10]", l.First(), l.Last())
	}
	got := collect(t, l, 3, 7)
	if len(got) != 5 || got[3] != "op-3" || got[7] != "op-7" {
		t.Fatalf("range [3,7] = %v", got)
	}
	l.Close()

	// Reopen: same contents, appends continue.
	l2, err := Open(dir, Options{SegmentOps: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.First() != 1 || l2.Last() != 10 {
		t.Fatalf("reopen bounds = [%d,%d], want [1,10]", l2.First(), l2.Last())
	}
	appendN(t, l2, 11, 12)
	if got := collect(t, l2, 1, 0); len(got) != 12 {
		t.Fatalf("after reopen+append got %d records, want 12", len(got))
	}
}

func TestOutOfOrderAppendRefused(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 5, 6) // empty log may start anywhere
	if err := l.Append(8, []byte("skip")); err == nil {
		t.Fatal("append 8 after 6 succeeded; want out-of-order error")
	}
	if err := l.Append(6, []byte("dup")); err == nil {
		t.Fatal("duplicate append succeeded; want out-of-order error")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentOps: 100, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 5)
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	// Tear the tail mid-record (a crash during the last append).
	fi, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentOps: 100, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Last() != 4 {
		t.Fatalf("after torn tail Last = %d, want 4", l2.Last())
	}
	appendN(t, l2, 5, 5) // the damaged slot is rewritable
	if got := collect(t, l2, 1, 0); got[5] != "op-5" || len(got) != 5 {
		t.Fatalf("after repair got %v", got)
	}
}

func TestCorruptRecordQuarantinesTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentOps: 3, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 9) // 3 segments
	l.Close()

	// Flip a payload bit in the middle segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 3 {
		t.Fatalf("want 3 segments, got %v", segs)
	}
	mid := filepath.Join(dir, "seg-4.wal")
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentOps: 3, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Valid prefix: seg 1-3 plus seg 4's two good records. Seg 7-9 is
	// orphaned (quarantined), because 6 is gone.
	if l2.First() != 1 || l2.Last() != 5 {
		t.Fatalf("bounds after corruption = [%d,%d], want [1,5]", l2.First(), l2.Last())
	}
	if n := l2.Damaged(); n != 2 {
		t.Fatalf("Damaged = %d, want 2 (seg 4 cut, seg 7 orphaned)", n)
	}
	appendN(t, l2, 6, 6) // the first write sets the damage aside
	bads, _ := filepath.Glob(filepath.Join(dir, "*.bad"))
	if len(bads) != 1 {
		t.Fatalf("want 1 quarantined segment, got %v", bads)
	}
}

// Open only reads: a caller that refuses a damaged log (§5 recovery does)
// leaves the directory byte-identical. The first write cuts the damage, and
// the log that results reopens clean.
func TestOpenLeavesDamageUntilFirstWrite(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentOps: 100, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 5)
	l.Close()
	seg := filepath.Join(dir, "seg-1.wal")
	data, _ := os.ReadFile(seg)
	data[len(data)-1] ^= 0x01 // op-5's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentOps: 100, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Last() != 4 || l2.Damaged() != 1 {
		t.Fatalf("Last = %d, Damaged = %d; want 4, 1", l2.Last(), l2.Damaged())
	}
	if got := collect(t, l2, 1, 0); len(got) != 4 {
		t.Fatalf("range over damaged log = %v", got)
	}
	if after, _ := os.ReadFile(seg); !bytes.Equal(after, data) {
		t.Fatal("Open modified the segment")
	}
	appendN(t, l2, 5, 6)
	l2.Close()

	l3, err := Open(dir, Options{SegmentOps: 100, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Last() != 6 || l3.Damaged() != 0 {
		t.Fatalf("after repair Last = %d, Damaged = %d; want 6, 0", l3.Last(), l3.Damaged())
	}
	if got := collect(t, l3, 1, 0); got[5] != "op-5" || len(got) != 6 {
		t.Fatalf("after repair got %v", got)
	}
}

// Sync reaches the open tail of a NoSync log, and a rotation syncs the
// segment it closes; Exists tells a directory with records from one without.
func TestSyncAndExists(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("empty dir reported as holding a log")
	}
	l, err := Open(dir, Options{SegmentOps: 2, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Sync(); err != nil {
		t.Fatalf("sync before any append: %v", err)
	}
	appendN(t, l, 1, 3) // rotates once
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("dir with records not reported as holding a log")
	}
	if Exists(filepath.Join(dir, "missing")) {
		t.Fatal("missing dir reported as holding a log")
	}
}

// copyDir copies every file in src to a fresh directory, as a crash would
// leave them: a log still open there keeps its zero tail in the copy.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// recordsSize is the bytes of appendN's records from..to.
func recordsSize(from, to uint64) int64 {
	var n int64
	for s := from; s <= to; s++ {
		n += recordHeader + int64(len(fmt.Sprintf("op-%d", s)))
	}
	return n
}

// An append inside the allocated step writes into it: the file size moves
// only when a record crosses the step, and Close trims the segment to its
// records.
func TestAppendInsideAllocationKeepsSize(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-1.wal")
	appendN(t, l, 1, 1)
	if got := fileSize(t, seg); got != allocStep {
		t.Fatalf("size after the first append = %d, want %d", got, allocStep)
	}
	appendN(t, l, 2, 50)
	if got := fileSize(t, seg); got != allocStep {
		t.Fatalf("size after 50 appends = %d, want %d", got, allocStep)
	}
	if err := l.Append(51, bytes.Repeat([]byte("x"), allocStep)); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, seg); got != 2*allocStep {
		t.Fatalf("size after a record past the step = %d, want %d", got, 2*allocStep)
	}
	l.Close()
	if got, want := fileSize(t, seg), recordsSize(1, 50)+recordHeader+allocStep; got != want {
		t.Fatalf("size after Close = %d, want %d", got, want)
	}
}

// A log copied while still open — a crash's view of it — ends in the zero
// bytes of its unused allocation. They are not damage: the copy reopens with
// every record, takes the next append, and reopens clean and trimmed.
func TestZeroTailIsNotDamage(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 5)
	dir := copyDir(t, src)
	seg := filepath.Join(dir, "seg-1.wal")
	if got := fileSize(t, seg); got != allocStep {
		t.Fatalf("copied segment is %d bytes, want the %d allocated", got, allocStep)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Last() != 5 || l2.Damaged() != 0 {
		t.Fatalf("Last = %d, Damaged = %d; want 5, 0", l2.Last(), l2.Damaged())
	}
	if got := collect(t, l2, 1, 0); len(got) != 5 || got[5] != "op-5" {
		t.Fatalf("range over the zero-tailed log = %v", got)
	}
	appendN(t, l2, 6, 6)
	l2.Close()
	if got, want := fileSize(t, seg), recordsSize(1, 5); got != want {
		t.Fatalf("zero tail not trimmed: %d bytes, want %d", got, want)
	}

	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Last() != 6 || l3.Damaged() != 0 {
		t.Fatalf("reopen: Last = %d, Damaged = %d; want 6, 0", l3.Last(), l3.Damaged())
	}
	if got := collect(t, l3, 1, 0); len(got) != 6 || got[6] != "op-6" {
		t.Fatalf("after the append got %v", got)
	}
}

// A rotation whose trim a crash undid leaves a zero tail on a segment that
// is not the last: the chain still runs through it to the next one.
func TestZeroTailMidChain(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentOps: 3})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 7)
	l.Close()
	seg := filepath.Join(dir, "seg-1.wal")
	if err := os.Truncate(seg, allocStep); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentOps: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Last() != 7 || l2.Damaged() != 0 {
		t.Fatalf("Last = %d, Damaged = %d; want 7, 0", l2.Last(), l2.Damaged())
	}
	if got := collect(t, l2, 1, 0); len(got) != 7 {
		t.Fatalf("range = %v", got)
	}
	appendN(t, l2, 8, 8)
	if got, want := fileSize(t, seg), recordsSize(1, 3); got != want {
		t.Fatalf("first write left seg-1 at %d bytes, want %d", got, want)
	}
}

// A record torn inside the allocation — its first bytes written, the rest
// still zero — is damage: Open cuts it and counts it once, and the first
// write trims it away.
func TestTornRecordInsideAllocation(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 6)
	dir := copyDir(t, src)
	seg := filepath.Join(dir, "seg-1.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Zero record 6 past its seq and length: a write the crash cut short.
	end5 := recordsSize(1, 5)
	clear(data[end5+12 : recordsSize(1, 6)])
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Last() != 5 || l2.Damaged() != 1 {
		t.Fatalf("Last = %d, Damaged = %d; want 5, 1", l2.Last(), l2.Damaged())
	}
	appendN(t, l2, 6, 6)
	l2.Close()
	if got := fileSize(t, seg); got != end5 {
		t.Fatalf("torn record not cut: %d bytes, want %d", got, end5)
	}
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Last() != 6 || l3.Damaged() != 0 {
		t.Fatalf("reopen: Last = %d, Damaged = %d; want 6, 0", l3.Last(), l3.Damaged())
	}
}

// A segment of zero bytes only — allocated, no record written before a
// crash — is no log: Exists says so, Open counts no damage, and the first
// write sets it aside.
func TestZeroOnlySegmentIsNoLog(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-1.wal")
	if err := os.WriteFile(seg, make([]byte, 1<<16), 0o644); err != nil {
		t.Fatal(err)
	}
	if Exists(dir) {
		t.Fatal("a zero-filled segment reported as a log")
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Last() != 0 || l.Damaged() != 0 {
		t.Fatalf("Last = %d, Damaged = %d; want 0, 0", l.Last(), l.Damaged())
	}
	appendN(t, l, 1, 1)
	if !Exists(dir) {
		t.Fatal("a log with a record not reported as one")
	}
	if got := collect(t, l, 1, 0); len(got) != 1 {
		t.Fatalf("range = %v", got)
	}
}

// FuzzOplogOpen feeds arbitrary bytes to Open as a segment file: Open never
// panics, Range then yields a contiguous run of checksummed records, Open
// counts damage exactly when a non-zero byte follows them, and the log
// accepts the next append and reopens without damage.
func FuzzOplogOpen(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for s := uint64(1); s <= 3; s++ {
		if err := l.Append(s, []byte(fmt.Sprintf("op-%d", s))); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	good, err := os.ReadFile(filepath.Join(dir, "seg-1.wal"))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[recordHeader+2] ^= 0x10
	zeroTail := append(append([]byte(nil), good...), make([]byte, 64)...)
	tornThenZeros := append(append([]byte(nil), good[:len(good)-3]...), make([]byte, 64)...)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(flipped)
	f.Add(zeroTail)
	f.Add(tornThenZeros)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-1.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		n, want, end := uint64(0), l.First(), 0
		if err := l.Range(0, 0, func(seq uint64, p []byte) error {
			if seq != want {
				return fmt.Errorf("seq %d, want %d", seq, want)
			}
			n, want, end = n+1, want+1, end+recordHeader+len(p)
			return nil
		}); err != nil {
			t.Fatalf("range after open: %v", err)
		}
		if last := l.Last(); (n == 0) != (last == 0) || (n > 0 && last != want-1) {
			t.Fatalf("range yielded %d records ending at %d, Last = %d", n, want-1, last)
		}
		if junk := nonzero(data[end:]); (l.Damaged() != 0) != junk {
			t.Fatalf("Damaged = %d with a non-zero byte past the records: %v", l.Damaged(), junk)
		}
		next := l.Last() + 1
		if err := l.Append(next, []byte("next")); err != nil {
			t.Fatalf("append %d: %v", next, err)
		}
		l.Close()
		l2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if l2.Last() != next || l2.Damaged() != 0 {
			t.Fatalf("reopen: Last = %d, Damaged = %d; want %d, 0", l2.Last(), l2.Damaged(), next)
		}
	})
}

func TestTruncateBeforeCompacts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentOps: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 12)
	if err := l.TruncateBefore(9); err != nil {
		t.Fatal(err)
	}
	if l.First() != 9 || l.Last() != 12 {
		t.Fatalf("bounds after truncate = [%d,%d], want [9,12]", l.First(), l.Last())
	}
	if got := collect(t, l, 1, 0); len(got) != 4 {
		t.Fatalf("after truncate got %v", got)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment after compaction, got %v", segs)
	}
}

// Range reads only what it needs: the payloads of records below from are
// skipped unread, so damage there does not fail a range that starts past it,
// and it stops reading at the first error f returns, so damage past that
// point is never reached.
func TestRangeReadsOnlyWhatItNeeds(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 10)
	// Records 1..9 carry 4-byte payloads ("op-N"), so record k starts at
	// (k-1)*(recordHeader+4). Flip a payload byte of records 2 and 9.
	seg := filepath.Join(dir, "seg-1.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 9} {
		data[(k-1)*(recordHeader+4)+recordHeader] ^= 0xff
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := l.Range(1, 0, func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("a range over the damaged payloads succeeded")
	}
	stop := errors.New("stop")
	var got []uint64
	err = l.Range(3, 0, func(seq uint64, p []byte) error {
		if string(p) != fmt.Sprintf("op-%d", seq) {
			t.Errorf("record %d = %q", seq, p)
		}
		got = append(got, seq)
		if len(got) == 4 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("Range = %v, want f's own error", err)
	}
	if want := []uint64{3, 4, 5, 6}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("records %v, want %v", got, want)
	}
	if got := collect(t, l, 10, 0); got[10] != "op-10" || len(got) != 1 {
		t.Fatalf("range from 10 = %v", got)
	}
}

// Range runs beside Append, as a SYNC served from the log does: each range
// sees a contiguous run of whole records from its start, however far the
// appends that land meanwhile have got, across segment rotations.
func TestRangeWhileAppending(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentOps: 16, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const last = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := uint64(1); s <= last; s++ {
			if err := l.Append(s, []byte(fmt.Sprintf("op-%d", s))); err != nil {
				t.Errorf("append %d: %v", s, err)
				return
			}
		}
	}()
	for ranging := true; ranging; {
		select {
		case <-done:
			ranging = false
		default:
		}
		want := uint64(1)
		if err := l.Range(1, 0, func(seq uint64, p []byte) error {
			if seq != want || string(p) != fmt.Sprintf("op-%d", seq) {
				return fmt.Errorf("record %d = %q, want op-%d", seq, p, want)
			}
			want++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, l, 1, 0); len(got) != last {
		t.Fatalf("%d records after the appends, want %d", len(got), last)
	}
}

func TestResetAllowsNewBase(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 5)
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.First() != 0 || l.Last() != 0 {
		t.Fatalf("bounds after reset = [%d,%d], want empty", l.First(), l.Last())
	}
	appendN(t, l, 1000, 1002) // snapshot catch-up rebases the log
	if got := collect(t, l, 1, 0); len(got) != 3 || got[1000] != "op-1000" {
		t.Fatalf("after rebase got %v", got)
	}
}

func TestSnapshotSaveLoad(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, err := LoadSnapshot(dir); err != ErrNoSnapshot {
		t.Fatalf("empty dir load err = %v, want ErrNoSnapshot", err)
	}
	payload := bytes.Repeat([]byte("state"), 1000)
	if err := SaveSnapshot(dir, 42, 3, payload); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(dir, 99, 4, payload); err != nil {
		t.Fatal(err)
	}
	seq, epoch, got, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 99 || epoch != 4 || !bytes.Equal(got, payload) {
		t.Fatalf("load = (%d,%d,%d bytes)", seq, epoch, len(got))
	}
	// Older snapshot was reclaimed.
	if files := snapFiles(dir); len(files) != 1 {
		t.Fatalf("want 1 snapshot file, got %v", files)
	}
}

func TestSnapshotCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	if err := SaveSnapshot(dir, 7, 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	path := snapPath(dir, 7)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x01
	os.WriteFile(path, data, 0o644)

	if _, _, _, err := LoadSnapshot(dir); err != ErrNoSnapshot {
		t.Fatalf("corrupt load err = %v, want ErrNoSnapshot", err)
	}
	bads, _ := filepath.Glob(filepath.Join(dir, "*.bad"))
	if len(bads) != 1 {
		t.Fatalf("want quarantined snapshot, got %v", bads)
	}
}

// TestFrameGoldenBytes pins the on-disk format of both durable records: the
// bytes below were written before the log and the snapshot shared one frame
// codec, and both must still be written and read exactly so.
func TestFrameGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		name, file, hex string
		write           func(dir string) error
		read            func(dir string) (string, error)
		want            string // what read returns
	}{{
		name: "log record",
		file: "seg-7.wal",
		// [seq 7][len 31][crc32c][payload]
		hex: "0000000000000007" + "0000001f" + "42e1ee41" + hex.EncodeToString([]byte("OP 7 1 EMIT S\n<a> <p> <b> . @10")),
		write: func(dir string) error {
			l, err := Open(dir, Options{})
			if err != nil {
				return err
			}
			defer l.Close()
			return l.Append(7, []byte("OP 7 1 EMIT S\n<a> <p> <b> . @10"))
		},
		read: func(dir string) (string, error) {
			l, err := Open(dir, Options{})
			if err != nil {
				return "", err
			}
			defer l.Close()
			var got string
			err = l.Range(0, 0, func(seq uint64, p []byte) error {
				got += fmt.Sprintf("%d:%s;", seq, p)
				return nil
			})
			return got, err
		},
		want: "7:OP 7 1 EMIT S\n<a> <p> <b> . @10;",
	}, {
		name: "snapshot",
		file: "snap-42.ws",
		// [magic][seq 42][epoch 3][len 9][crc32c][payload]
		hex:   "5753534e41503031" + "000000000000002a" + "0000000000000003" + "00000009" + "5024a7c0" + hex.EncodeToString([]byte("WSSNAP 1\n")),
		write: func(dir string) error { return SaveSnapshot(dir, 42, 3, []byte("WSSNAP 1\n")) },
		read: func(dir string) (string, error) {
			seq, epoch, p, err := LoadSnapshot(dir)
			return fmt.Sprintf("%d:%d:%s", seq, epoch, p), err
		},
		want: "42:3:WSSNAP 1\n",
	}} {
		dir := t.TempDir()
		if err := c.write(dir); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, c.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(data); got != c.hex {
			t.Errorf("%s written as\n%s\nwant\n%s", c.name, got, c.hex)
		}
		golden, _ := hex.DecodeString(c.hex)
		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, c.file), golden, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := c.read(dir); err != nil || got != c.want {
			t.Errorf("%s read back as %q, %v; want %q", c.name, got, err, c.want)
		}
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes to LoadSnapshot as a snapshot file:
// it never panics, and either returns a payload that SaveSnapshot writes back
// to the very same bytes, or reports ErrNoSnapshot with the file renamed to
// "<name>.bad".
func FuzzLoadSnapshot(f *testing.F) {
	dir := f.TempDir()
	if err := SaveSnapshot(dir, 42, 3, []byte("WSSNAP 1\nENT 3\n<a>\n")); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(snapPath(dir, 42))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0x10
	f.Add(uint64(42), good)
	f.Add(uint64(1), good[:len(good)-3])
	f.Add(uint64(42), append(good[:len(good):len(good)], 0))
	f.Add(uint64(7), flipped)
	f.Add(uint64(0), []byte{})

	f.Fuzz(func(t *testing.T, n uint64, data []byte) {
		dir := t.TempDir()
		path := snapPath(dir, n)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seq, epoch, payload, err := LoadSnapshot(dir)
		if err != nil {
			if !errors.Is(err, ErrNoSnapshot) {
				t.Fatalf("load: %v, want ErrNoSnapshot", err)
			}
			if _, err := os.Stat(path + ".bad"); err != nil {
				t.Fatalf("refused snapshot not quarantined: %v", err)
			}
			return
		}
		again := t.TempDir()
		if err := SaveSnapshot(again, seq, epoch, payload); err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(snapPath(again, seq))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, data) {
			t.Fatalf("loaded (%d, %d, %q) from %x, which saves as %x", seq, epoch, payload, data, saved)
		}
	})
}
