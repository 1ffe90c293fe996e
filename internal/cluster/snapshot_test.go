package cluster

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzApplySnapshot: a snapshot transcript is bytes from a peer, so arbitrary
// bytes restored into a fresh daemon end in an error or in a restore, never
// in a panic; and a restored replica dumps its state again. The seeds are a
// real transcript and pieces of one.
func FuzzApplySnapshot(f *testing.F) {
	donor := startSeedCfg(f, func(c *Config) { c.HeartbeatInterval = -1 })
	for _, s := range verbSeeds[:6] {
		if _, err := ApplyVerb(donor.eng, nil, s.kind, strings.Fields(s.args), s.body); err != nil {
			f.Fatalf("setup %s: %v", s.kind, err)
		}
	}
	if _, err := ApplyVerb(donor.eng, nil, "LOAD", nil, "<a> <p> <c> .\n<c> <q> \"7\" .\n<b> <p> <a> .\n<a> <p> <c> .\n"); err != nil {
		f.Fatal(err)
	}
	donor.node.applyMu.Lock()
	transcript := string(donor.node.buildSnapshotLocked())
	donor.node.applyMu.Unlock()
	donor.close()
	f.Add([]byte(transcript))
	if i := strings.Index(transcript, "KEY "); i > 0 {
		f.Add([]byte(transcript[:i]))                              // no triples
		f.Add([]byte("WSSNAP 1\n" + transcript[i:]))               // triples under IDs no one interned
		f.Add([]byte(transcript + "KEY 1 1 2 3 4\nKEY 9 1 1 1\n")) // the same keys again, and more
	}
	f.Add([]byte("WSSNAP 1\nSTATE SEQ 1 EPOCH 1 AUTH 0 NOW 0\nKEY 1 1 1 2\n"))
	f.Add([]byte("WSSNAP 1\nKEY 70368744177663 131071 1 70368744177663\n"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The clock seals one batch per stream interval it passes, so an
		// ADVANCE past a thousand intervals is slow by design, not a
		// finding. A member address is kept and dialed only by a send, which
		// a restore never makes; still, none but a loopback one is taken.
		var until, interval int64 = 0, 1 << 62
		for _, line := range strings.Split(string(payload), "\n") {
			fields := strings.Fields(line)
			switch {
			case len(fields) > 2 && fields[0] == "STREAM":
				if ms, err := strconv.ParseInt(fields[2], 10, 64); err == nil && ms > 0 {
					interval = min(interval, ms)
				}
			case len(fields) > 1 && fields[0] == "ADVANCE":
				if ts, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					until = max(until, ts)
				}
			case len(fields) > 2 && fields[0] == "MEMBER" && !strings.HasPrefix(fields[2], "127.0.0.1:"):
				t.Skip()
			}
		}
		if until/1000 > interval {
			t.Skip()
		}
		d := startSeedCfg(t, func(c *Config) { c.HeartbeatInterval = -1 })
		defer d.close()
		d.node.applyMu.Lock()
		defer d.node.applyMu.Unlock()
		if _, _, _, err := d.node.applySnapshotLocked(string(payload)); err == nil {
			d.node.buildSnapshotLocked()
		}
	})
}
