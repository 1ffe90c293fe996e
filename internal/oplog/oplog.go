// Package oplog is the repository's one durable record log (DESIGN.md §8,
// §15): segmented, CRC32C-framed record files plus a snapshot file. The
// cluster stores its replicated ops in it, so a restarted daemon recovers
// cluster state from disk instead of needing a live peer to replay the whole
// history. A standalone daemon with a data directory is a one-member
// cluster, so the same log is its §5 fault-tolerance log, and all its
// recovery has.
//
// Both kinds of durable record carry their payload in one frame,
//
//	[4B len][4B crc32c(payload)][payload]
//
// in big-endian, with the Castagnoli polynomial. The log is a sequence of
// records appended strictly in sequence order and split into segment files
// named by the first sequence they hold ("seg-<base>.wal"). One record is
//
//	[8B seq][frame]
//
// The open tail segment is allocated ahead of its records in steps of
// allocStep bytes, and each record is written at its offset, so a durable
// append is one data flush (fdatasync) that never has to commit a new file
// size. Close and rotation trim the segment to its records.
//
// A torn tail (partial record after a crash) is tolerated: Open keeps the
// records before the first one that fails to frame or checksum, and the next
// write truncates the damage away. A run of zero bytes after the last valid
// record is the unused allocation of a tail that was open at the crash, not
// damage: the next write trims it the same way. A corrupt record in the
// *middle* of a segment poisons everything after it. The cluster falls back
// to snapshot catch-up, which is always safe; a one-member cluster loses
// those records.
package oplog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C (Castagnoli) of p: the checksum of every durable
// record and snapshot, and of a snapshot shipped between replicas.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// frameHeader is a frame's len and crc32c.
const frameHeader = 8

// appendFrame appends payload's frame, [4B len][4B crc32c(payload)][payload],
// to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// readFrame checks the frame at the start of data and returns its payload
// and the bytes after it. ok is false when data does not start with a whole
// frame whose checksum matches.
func readFrame(data []byte) (payload, rest []byte, ok bool) {
	if len(data) < frameHeader {
		return nil, nil, false
	}
	sz := uint64(binary.BigEndian.Uint32(data))
	if sz > uint64(len(data)-frameHeader) {
		return nil, nil, false
	}
	payload = data[frameHeader : frameHeader+sz]
	return payload, data[frameHeader+sz:], Checksum(payload) == binary.BigEndian.Uint32(data[4:])
}

// recordHeader is a log record's seq and its frame's header.
const recordHeader = 8 + frameHeader

// DefaultSegmentOps is how many ops one segment file holds before rotation.
const DefaultSegmentOps = 8192

// allocStep is how far ahead of its write offset the open tail segment is
// allocated: one allocation per allocStep bytes of records.
const allocStep = 4 << 20

// maxKeptBuf bounds the record buffer a Log keeps between appends, so one
// large LOAD does not pin its size for the life of the log.
const maxKeptBuf = 64 << 10

// MaxRecord bounds one op's payload (a LOAD body is the realistic worst
// case); larger appends are refused rather than written unreadably.
const MaxRecord = 64 << 20

type segment struct {
	base uint64 // seq of the first record
	last uint64 // seq of the last valid record (0 = empty)
	path string
	end  int64 // bytes the valid records span, as Open scanned them
	size int64 // bytes on disk when Open scanned the file
	junk bool  // a non-zero byte follows the valid records: damage
}

// Log is an append-only durable op log. All methods are safe for concurrent
// use; appends are strictly ordered by sequence.
type Log struct {
	dir    string
	segOps int
	nosync bool

	mu    sync.Mutex
	segs  []segment
	w     *os.File // open tail segment, nil until first append
	wseg  int      // index into segs of the open tail
	off   int64    // end of the open tail's records: the next write's offset
	alloc int64    // bytes allocated to the open tail, a multiple of allocStep
	buf   []byte   // record buffer, reused by every Append
	first uint64   // lowest seq on disk (0 = empty)
	last  uint64   // highest seq on disk (0 = empty)

	// What Open found past the valid records is left on disk until the
	// first write, so a caller that refuses the log leaves its directory
	// exactly as it found it. Repair truncates each cut segment to its valid
	// records (damage or a zero tail) and renames every orphan to
	// "<name>.bad".
	cuts    []segment
	orphans []string
	damaged int
}

// Options configure Open.
type Options struct {
	// SegmentOps is the rotation threshold (default DefaultSegmentOps).
	SegmentOps int
	// NoSync skips the per-append fsync: a process crash keeps every
	// appended record, power loss may lose the tail since the last Sync.
	NoSync bool
}

// Open scans dir for segments and opens the log for appending. The
// directory is created if missing; no file in it is modified until the
// first write, which cuts away whatever Open could not validate.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentOps <= 0 {
		opt.SegmentOps = DefaultSegmentOps
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, segOps: opt.SegmentOps, nosync: opt.NoSync}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if base, ok := segmentBase(e.Name()); ok {
			l.segs = append(l.segs, segment{base: base, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].base < l.segs[j].base })
	for i := range l.segs {
		if err := scanSegment(&l.segs[i]); err != nil {
			return nil, err
		}
	}
	// Keep the longest contiguous, fully-valid prefix chain; orphan the rest
	// (a damaged interior record orphans everything after it — the caller
	// recovers what the chain covers and catches up the rest elsewhere).
	// A zero tail is trimmed but breaks nothing: a segment whose trim a
	// crash undid still chains to the next.
	good := 0
	for good < len(l.segs) {
		s := l.segs[good]
		if s.last == 0 || (good > 0 && s.base != l.segs[good-1].last+1) {
			break
		}
		good++
		if s.end < s.size {
			l.cuts = append(l.cuts, s)
		}
		if s.junk {
			l.damaged++
			break // keep this segment's valid prefix; orphan the rest
		}
	}
	for _, s := range l.segs[good:] {
		l.orphans = append(l.orphans, s.path)
		if s.last != 0 || s.junk {
			l.damaged++
		}
	}
	l.segs = l.segs[:good]
	if len(l.segs) > 0 {
		l.first = l.segs[0].base
		l.last = l.segs[len(l.segs)-1].last
	}
	return l, nil
}

// Exists reports whether dir holds a log: a segment file with a non-zero
// byte in it, valid or not. Open on such a directory keeps records or
// reports damage. A segment of zero bytes only is an allocation no record
// reached, no log, as an empty file is.
func Exists(dir string) bool {
	ents, _ := os.ReadDir(dir) // unreadable = no log to recover
	for _, e := range ents {
		if _, ok := segmentBase(e.Name()); ok && holdsData(filepath.Join(dir, e.Name())) {
			return true
		}
	}
	return false
}

// holdsData reports whether the file at path has a non-zero byte. A file it
// cannot read counts as data: Open reports the error.
func holdsData(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return true
	}
	defer f.Close()
	buf := make([]byte, 64<<10)
	for {
		n, err := f.Read(buf)
		if nonzero(buf[:n]) {
			return true
		}
		if err == io.EOF {
			return false
		}
		if err != nil {
			return true
		}
	}
}

func nonzero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return true
		}
	}
	return false
}

func segmentBase(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 10, 64)
	return base, err == nil
}

// decode reads the record at data[off:]: its sequence, its payload and the
// offset just past it. ok is false when the bytes there are not a whole
// record whose checksum matches.
func decode(data []byte, off int) (seq uint64, payload []byte, next int, ok bool) {
	if off+8 > len(data) {
		return 0, nil, 0, false
	}
	payload, rest, ok := readFrame(data[off+8:])
	return binary.BigEndian.Uint64(data[off:]), payload, len(data) - len(rest), ok
}

// scanSegment finds one segment's valid prefix — records that frame, pass
// their checksum and continue the sequence from the segment's base — and
// records where it ends and whether anything but zero bytes follows it. It
// writes nothing; the caller decides what a short prefix means for the
// chain.
func scanSegment(s *segment) error {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return err
	}
	s.size = int64(len(data))
	for off := 0; ; {
		seq, _, next, ok := decode(data, off)
		want := s.base
		if s.last != 0 {
			want = s.last + 1
		}
		if !ok || seq != want {
			s.junk = nonzero(data[off:])
			return nil
		}
		s.last, s.end, off = seq, int64(next), next
	}
}

// Damaged reports how many segments Open found damaged: cut short at a
// record that failed to frame or checksum, or orphaned behind such a cut
// with a non-zero byte in it. A zero tail is not damage. Callers add it to
// ft_quarantined_records_total.
func (l *Log) Damaged() int { return l.damaged }

// repairLocked applies the damage Open left on disk. Every write runs it
// first, so the log never appends next to, or compacts around, bytes it
// did not validate.
func (l *Log) repairLocked() error {
	for len(l.cuts) > 0 {
		if err := os.Truncate(l.cuts[0].path, l.cuts[0].end); err != nil {
			return err
		}
		l.cuts = l.cuts[1:]
	}
	for len(l.orphans) > 0 {
		if err := os.Rename(l.orphans[0], l.orphans[0]+".bad"); err != nil {
			return err
		}
		l.orphans = l.orphans[1:]
	}
	return nil
}

// First returns the lowest sequence on disk (0 when empty).
func (l *Log) First() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// Last returns the highest sequence on disk (0 when empty).
func (l *Log) Last() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Append writes one op. seq must be last+1, or anything when the log is
// empty (the base after a snapshot catch-up).
func (l *Log) Append(seq uint64, payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("oplog: record %d bytes exceeds max %d", len(payload), MaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last != 0 && seq != l.last+1 {
		return fmt.Errorf("oplog: out-of-order append %d after %d", seq, l.last)
	}
	if l.w == nil || l.segs[l.wseg].last-l.segs[l.wseg].base+1 >= uint64(l.segOps) {
		if err := l.rotateLocked(seq); err != nil {
			return err
		}
	}
	rec := appendFrame(binary.BigEndian.AppendUint64(l.buf[:0], seq), payload)
	if cap(rec) <= maxKeptBuf {
		l.buf = rec
	}
	end := l.off + int64(len(rec))
	if end > l.alloc {
		alloc := (end + allocStep - 1) / allocStep * allocStep
		if err := allocate(l.w, l.alloc, alloc); err != nil {
			return err
		}
		l.alloc = alloc
	}
	if _, err := l.w.WriteAt(rec, l.off); err != nil {
		return err
	}
	if !l.nosync {
		if err := datasync(l.w); err != nil {
			return err
		}
	}
	l.off = end
	l.segs[l.wseg].last = seq
	l.last = seq
	if l.first == 0 {
		l.first = seq
	}
	return nil
}

// Sync makes every appended record durable. It is the durability point of
// a log opened with NoSync; with per-append fsync it has nothing to do.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return nil
	}
	return datasync(l.w)
}

// rotateLocked closes the open tail and starts a fresh segment at base.
func (l *Log) rotateLocked(base uint64) error {
	if err := l.repairLocked(); err != nil {
		return err
	}
	// Without per-append flushes the closing segment's records are only in
	// the page cache; Sync can reach the open tail only.
	if err := l.closeTailLocked(l.nosync); err != nil {
		return err
	}
	path := filepath.Join(l.dir, fmt.Sprintf("seg-%d.wal", base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.w, l.off, l.alloc = f, 0, 0
	l.segs = append(l.segs, segment{base: base, path: path})
	l.wseg = len(l.segs) - 1
	return syncDir(l.dir)
}

// Range calls f for each record with from <= seq <= to, in order, and
// returns the first error f returns without reading further. A zero `to`
// means "through the end". Segments are read record by record: the payloads
// of records below from are skipped unread, and each payload f gets is its
// own. A segment TruncateBefore or Reset removed before Range opened it fails
// with an error that matches fs.ErrNotExist.
func (l *Log) Range(from, to uint64, f func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	if to == 0 {
		to = ^uint64(0)
	}
	for _, s := range segs {
		if s.last == 0 || s.last < from || s.base > to {
			continue
		}
		if err := rangeSegment(s, from, to, f); err != nil {
			return err
		}
	}
	return nil
}

// rangeSegment is Range over one segment. It stops at the segment's last
// valid record: bytes past it are damage Open left on disk, or an append
// that landed after Range copied the segment list.
func rangeSegment(s segment, from, to uint64, f func(seq uint64, payload []byte) error) error {
	file, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer file.Close()
	r := bufio.NewReaderSize(file, 64<<10)
	var hdr [recordHeader]byte
	var off int64 // file offset of the record being read
	for want := s.base; want <= s.last && want <= to; want++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil || binary.BigEndian.Uint64(hdr[:]) != want {
			return fmt.Errorf("oplog: damaged record at %s+%d", s.path, off)
		}
		size := int64(binary.BigEndian.Uint32(hdr[8:]))
		next := off + recordHeader + size
		if want < from {
			if size <= int64(r.Buffered()) {
				r.Discard(int(size))
			} else if _, err := file.Seek(next, io.SeekStart); err != nil {
				return err
			} else {
				r.Reset(file)
			}
			off = next
			continue
		}
		if size > MaxRecord {
			return fmt.Errorf("oplog: damaged record at %s+%d", s.path, off)
		}
		frame := make([]byte, frameHeader+size)
		copy(frame, hdr[8:])
		_, err := io.ReadFull(r, frame[frameHeader:])
		payload, _, ok := readFrame(frame)
		if err != nil || !ok {
			return fmt.Errorf("oplog: damaged record at %s+%d", s.path, off)
		}
		if err := f(want, payload); err != nil {
			return err
		}
		off = next
	}
	return nil
}

// TruncateBefore deletes whole segments whose every record is < seq
// (compaction after a snapshot). The segment containing seq is kept.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.repairLocked(); err != nil {
		return err
	}
	keep := 0
	for keep < len(l.segs) && l.segs[keep].last < seq {
		// Never remove the open tail out from under the writer.
		if l.w != nil && keep == l.wseg {
			break
		}
		keep++
	}
	for i := 0; i < keep; i++ {
		if err := os.Remove(l.segs[i].path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if keep > 0 {
		l.segs = append(l.segs[:0:0], l.segs[keep:]...)
		l.wseg -= keep
		if len(l.segs) > 0 {
			l.first = l.segs[0].base
		} else {
			l.first, l.last = 0, 0
		}
		if err := syncDir(l.dir); err != nil {
			return err
		}
	}
	return nil
}

// Reset discards every record (a snapshot catch-up replaced the history
// this log described). The next Append may use any base sequence.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.repairLocked(); err != nil {
		return err
	}
	if l.w != nil {
		l.w.Close()
		l.w = nil
	}
	for _, s := range l.segs {
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	l.segs = nil
	l.wseg = 0
	l.first, l.last = 0, 0
	return syncDir(l.dir)
}

// Close trims the open tail segment to its records and releases it.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeTailLocked(false)
}

// closeTailLocked trims the open tail to its records, so a closed segment
// holds exactly its records, flushes it when sync is set, and closes it. A
// crash before the trim reaches the disk leaves a zero tail, which Open
// accepts.
func (l *Log) closeTailLocked(sync bool) error {
	if l.w == nil {
		return nil
	}
	err := l.w.Truncate(l.off)
	if err == nil && sync {
		err = l.w.Sync()
	}
	if cerr := l.w.Close(); err == nil {
		err = cerr
	}
	l.w = nil
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems refuse directory fsync; the rename/create is still
	// ordered on the ones we target.
	_ = d.Sync()
	return nil
}
