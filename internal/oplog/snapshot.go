// Snapshot files: one self-checking blob holding the cluster state machine
// at a sequence boundary. The payload is opaque to this package (the
// cluster layer builds and parses the transcript); here it gets a framed,
// atomically-replaced home on disk:
//
//	[8B magic "WSSNAP01"][8B seq][8B epoch][4B len][4B crc32c(payload)][payload]
//
// Only the newest snapshot is kept; the write path is tmp + fsync + rename
// (the PR-5 atomic-replace discipline), and a corrupt snapshot is
// quarantined to "<name>.bad" rather than trusted.
package oplog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

var snapMagic = [8]byte{'W', 'S', 'S', 'N', 'A', 'P', '0', '1'}

const snapHeader = 8 + 8 + 8 + 4 + 4

// ErrNoSnapshot reports that the directory holds no (valid) snapshot.
var ErrNoSnapshot = errors.New("oplog: no snapshot")

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%d.ws", seq))
}

// SaveSnapshot atomically writes a snapshot at seq and removes older ones.
func SaveSnapshot(dir string, seq, epoch uint64, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf := make([]byte, snapHeader+len(payload))
	copy(buf, snapMagic[:])
	binary.BigEndian.PutUint64(buf[8:], seq)
	binary.BigEndian.PutUint64(buf[16:], epoch)
	binary.BigEndian.PutUint32(buf[24:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[28:], Checksum(payload))
	copy(buf[snapHeader:], payload)

	final := snapPath(dir, seq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// Older snapshots are strictly dominated; reclaim them.
	for _, p := range snapFiles(dir) {
		if p != final {
			os.Remove(p)
		}
	}
	return nil
}

// LoadSnapshot returns the newest valid snapshot (seq, epoch, payload).
// Corrupt candidates are quarantined and older ones tried, so one bad file
// degrades recovery rather than blocking it.
func LoadSnapshot(dir string) (seq, epoch uint64, payload []byte, err error) {
	paths := snapFiles(dir)
	for i := len(paths) - 1; i >= 0; i-- {
		seq, epoch, payload, err = readSnapshot(paths[i])
		if err == nil {
			return seq, epoch, payload, nil
		}
		os.Rename(paths[i], paths[i]+".bad")
	}
	return 0, 0, nil, ErrNoSnapshot
}

// snapFiles lists snapshot paths sorted by ascending seq.
func snapFiles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	type cand struct {
		seq  uint64
		path string
	}
	var cs []cand
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".ws") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".ws"), 10, 64)
		if err != nil {
			continue
		}
		cs = append(cs, cand{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].seq < cs[j].seq })
	paths := make([]string, len(cs))
	for i, c := range cs {
		paths[i] = c.path
	}
	return paths
}

func readSnapshot(path string) (seq, epoch uint64, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(data) < snapHeader || [8]byte(data[:8]) != snapMagic {
		return 0, 0, nil, fmt.Errorf("oplog: %s: bad snapshot header", path)
	}
	seq = binary.BigEndian.Uint64(data[8:])
	epoch = binary.BigEndian.Uint64(data[16:])
	sz := int(binary.BigEndian.Uint32(data[24:]))
	crc := binary.BigEndian.Uint32(data[28:])
	if snapHeader+sz != len(data) {
		return 0, 0, nil, fmt.Errorf("oplog: %s: truncated snapshot (%d of %d payload bytes)", path, len(data)-snapHeader, sz)
	}
	payload = data[snapHeader:]
	if Checksum(payload) != crc {
		return 0, 0, nil, fmt.Errorf("oplog: %s: snapshot checksum mismatch", path)
	}
	return seq, epoch, payload, nil
}
