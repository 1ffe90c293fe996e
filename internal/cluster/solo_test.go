package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/oplog"
)

// startSolo brings up a one-member cluster (no transport) logging into dir,
// resuming it when dir holds state.
func startSolo(t *testing.T, dir string, mutate func(*Config)) (*daemon, error) {
	t.Helper()
	d := &daemon{eng: newEngine(t)}
	cfg := clusterConfig(nil, SeedRank, d.eng, d)
	cfg.SelfAddr = "solo"
	cfg.DataDir = dir
	cfg.NoSync = true
	if mutate != nil {
		mutate(&cfg)
	}
	start := NewSeed
	if HasDurableState(dir) {
		start = Resume
	}
	node, err := start(cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	d.node = node
	return d, nil
}

// snapFiles lists dir's snapshot files.
func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ws"))
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// A kill -9 between a segment's creation and its first record's flush
// leaves a segment of zeros, which is no log: a restart on that directory
// starts fresh instead of failing to resume nothing. A segment holding a
// record, or a snapshot file, is state.
func TestHasDurableStateIgnoresZeroSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-1.wal"), make([]byte, 4<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	if HasDurableState(dir) {
		t.Fatal("a segment of zeros counts as durable state")
	}
	d, err := startSolo(t, dir, nil)
	if err != nil {
		t.Fatalf("start on a segment of zeros: %v", err)
	}
	if _, err := d.node.Forward("STREAM", []string{"S", "100"}, ""); err != nil {
		t.Fatal(err)
	}
	d.close()
	if !HasDurableState(dir) {
		t.Fatal("a segment holding records is not durable state")
	}

	snapOnly := t.TempDir()
	if err := oplog.SaveSnapshot(snapOnly, 7, 1, []byte("WSSNAP 1\n")); err != nil {
		t.Fatal(err)
	}
	if !HasDurableState(snapOnly) {
		t.Fatal("a snapshot file is not durable state")
	}
}

// A daemon whose op log is private compacts it past SnapshotEvery like any
// other, and writes no snapshot file: only Resume reads one, and Resume never
// opens a private directory.
func TestPrivateLogWritesNoSnapshotFile(t *testing.T) {
	d := startSeedCfg(t, func(c *Config) {
		c.SnapshotEvery = 4
		c.SegmentOps = 2
	})
	defer d.close()
	if _, err := d.node.Forward("STREAM", []string{"S", "100"}, ""); err != nil {
		t.Fatal(err)
	}
	for ts := 100; ts <= 1000; ts += 100 {
		if _, err := d.node.Forward("ADVANCE", []string{fmt.Sprint(ts)}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if first := d.node.dlog.First(); first <= 1 {
		t.Errorf("private log starts at op %d: never compacted", first)
	}
	if snaps := snapFiles(t, d.node.logDir); len(snaps) != 0 {
		t.Errorf("private log directory holds snapshot files %v", snaps)
	}
}

// A one-member cluster takes no snapshot, whatever SnapshotEvery says: a
// restored snapshot would re-fire the windows that span it without their
// earlier batches. A restart replays the whole log instead and re-fires
// every window with its first-life rows.
func TestSoloNodeTakesNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	every := func(c *Config) { c.SnapshotEvery = 4 }
	d, err := startSolo(t, dir, every)
	if err != nil {
		t.Fatal(err)
	}
	write := func(d *daemon, kind string, args []string, body string) {
		t.Helper()
		if _, err := d.node.Forward(kind, args, body); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	write(d, "STREAM", []string{"S", "100"}, "")
	write(d, "REGISTER", nil, "REGISTER QUERY W AS SELECT ?X ?Y FROM S [RANGE 300ms STEP 100ms] WHERE { GRAPH S { ?X po ?Y } }")
	for b := 1; b <= 6; b++ {
		write(d, "EMIT", []string{"S"}, fmt.Sprintf("<u%d> <po> <t%d> . @%d", b, b, b*100-50))
		write(d, "ADVANCE", []string{fmt.Sprint(b * 100)}, "")
	}
	want := firings(d)["W"]
	d.close()
	if snaps := snapFiles(t, dir); len(snaps) != 0 {
		t.Fatalf("a one-member cluster wrote snapshot files %v", snaps)
	}

	re, err := startSolo(t, dir, every)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	if first := re.node.dlog.First(); first != 1 {
		t.Errorf("the log starts at op %d, want 1: it was compacted", first)
	}
	if got := firings(re)["W"]; len(want) != 6 || !reflect.DeepEqual(got, want) {
		t.Errorf("the restart re-fired %v, the first life fired %v", got, want)
	}
}

// A daemon without peers refuses a directory that records another member:
// it cannot reach that member, and alone it would fork the cluster's history.
func TestSoloResumeRefusesOtherMembers(t *testing.T) {
	dir := t.TempDir()
	seed := startSeedCfg(t, func(c *Config) {
		c.DataDir = dir
		c.NoSync = true
	})
	m := joinDaemon(t, seed.tr.Addr(), "")
	requireApplied(t, m, seed.node.Applied())
	m.close()
	seed.close()

	_, err := startSolo(t, dir, nil)
	if err == nil || !strings.Contains(err.Error(), "records member rank 1") {
		t.Fatalf("solo resume of a two-member directory: %v", err)
	}
}
