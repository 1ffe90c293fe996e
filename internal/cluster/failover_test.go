package cluster

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// startSeedCfg is startSeed with a config hook (data dir, oplog sizing).
func startSeedCfg(t testing.TB, mutate func(*Config)) *daemon {
	t.Helper()
	d := &daemon{eng: newEngine(t)}
	tr, err := wire.ListenTCP("127.0.0.1:0", tcpConfig(SeedRank, nil), obs.NewRegistry(""))
	if err != nil {
		t.Fatalf("seed listen: %v", err)
	}
	d.tr = tr
	cfg := clusterConfig(tr, SeedRank, d.eng, d)
	cfg.SelfAddr = tr.Addr()
	if mutate != nil {
		mutate(&cfg)
		d.eng = cfg.Engine
	}
	node, err := NewSeed(cfg)
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	d.node = node
	return d
}

// joinDaemonCfg is joinDaemon with a config hook.
func joinDaemonCfg(t testing.TB, seedAddr, listenAddr string, mutate func(*Config)) *daemon {
	t.Helper()
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", listenAddr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("member listen %s: %v", listenAddr, err)
	}
	advertise := ln.Addr().String()
	rank, _, err := Discover(seedAddr, advertise, time.Second)
	if err != nil {
		ln.Close()
		t.Fatalf("discover: %v", err)
	}
	d := &daemon{eng: newEngine(t)}
	tr, err := wire.NewTCP(ln, tcpConfig(fabric.NodeID(rank), nil), obs.NewRegistry(""))
	if err != nil {
		t.Fatalf("member transport: %v", err)
	}
	d.tr = tr
	cfg := clusterConfig(tr, fabric.NodeID(rank), d.eng, d)
	cfg.SelfAddr = advertise
	cfg.SeedAddr = seedAddr
	if mutate != nil {
		mutate(&cfg)
		d.eng = cfg.Engine
	}
	node, err := Join(cfg)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	d.node = node
	return d
}

// queryRows answers q on d's engine, sorted.
func queryRows(t *testing.T, d *daemon, q string) []string {
	t.Helper()
	res, err := d.eng.Query(q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	res.Sort()
	return res.Strings()
}

// TestFailoverDeterministicSuccessor kills the seed under a live cluster
// and verifies the lowest surviving rank fences in as the new authority,
// writes resume through it, and the survivors stay twin-equal.
func TestFailoverDeterministicSuccessor(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	d2 := joinDaemon(t, seed.tr.Addr(), "")
	defer d2.close()
	seedData(t, d1)
	waitConverged(t, seed, d1, d2)

	// The coordinator dies mid-flight.
	seed.close()

	// A write through either survivor must eventually succeed: d2 retries
	// until rank 1 detects the death, fences epoch 2, and acks.
	reply, err := d2.node.Forward("ADVANCE", []string{"900"}, "")
	if err != nil {
		t.Fatalf("write after seed death: %v", err)
	}
	if reply != "now 900" {
		t.Fatalf("ADVANCE reply = %q", reply)
	}
	if got := d1.node.Authority(); got != 1 {
		t.Fatalf("successor authority = %d, want 1", got)
	}
	if got := d1.node.Epoch(); got != 2 {
		t.Fatalf("epoch after failover = %d, want 2", got)
	}
	// Writes keep flowing on both survivors, and they stay identical.
	if _, err := d1.node.Forward("LOAD", nil, "<after> <knows> <failover> .\n"); err != nil {
		t.Fatalf("write on successor: %v", err)
	}
	waitConverged(t, d1, d2)
	q := `SELECT ?X ?Y WHERE { ?X knows ?Y }`
	if a, b := queryRows(t, d1, q), queryRows(t, d2, q); !reflect.DeepEqual(a, b) {
		t.Fatalf("survivors diverged: %v vs %v", a, b)
	}
	if d2.node.Authority() != 1 || d2.node.Epoch() != 2 {
		t.Fatalf("d2 view = auth %d epoch %d, want 1/2", d2.node.Authority(), d2.node.Epoch())
	}
}

// TestZombieAuthorityFenced replays a broadcast stamped with a stale epoch
// into a replica that has already seen a newer fence: it must be rejected
// without touching the state machine.
func TestZombieAuthorityFenced(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	seedData(t, seed)
	waitConverged(t, seed, d1)

	// Fence epoch 2 (authority stays rank 0 — only the epoch moves).
	if _, _, err := seed.node.sequence(trace.Context{}, "", "EPOCH", []string{"2", "0"}, ""); err != nil {
		t.Fatalf("EPOCH op: %v", err)
	}
	waitConverged(t, seed, d1)
	before := d1.node.Applied()
	beforeNow := int64(d1.eng.Now())

	// A zombie's broadcast: correct next sequence, stale epoch 1.
	zombie := encodeOp(before+1, 1, "", "ADVANCE", []string{"99999"}, "")
	d1.node.HandleSendTraced(SeedRank, zombie, trace.Context{})
	time.Sleep(50 * time.Millisecond)
	if got := d1.node.Applied(); got != before {
		t.Fatalf("stale-epoch op applied: seq moved %d -> %d", before, got)
	}
	if got := int64(d1.eng.Now()); got != beforeNow {
		t.Fatalf("stale-epoch op advanced the clock: %d -> %d", beforeNow, got)
	}
	// The same op under the current epoch is accepted.
	live := encodeOp(before+1, 2, "", "ADVANCE", []string{"1200"}, "")
	d1.node.HandleSendTraced(SeedRank, live, trace.Context{})
	if !d1.node.waitApplied(before+1, 2*time.Second) {
		t.Fatal("current-epoch op was not applied")
	}
}

// TestSnapshotCatchUpTwinEqual forces a joiner beyond the authority's
// retained oplog window so it must converge by snapshot transfer, and
// checks it against a full-replay twin.
func TestSnapshotCatchUpTwinEqual(t *testing.T) {
	seed := startSeedCfg(t, func(c *Config) { c.MaxOplog = 64 })
	defer seed.close()
	// Full, uncompacted replay is impossible once the window slides; build
	// real state first, then slide it.
	seedData(t, seed)
	if reply, err := seed.node.Forward("REGISTER", nil,
		`REGISTER QUERY QF AS SELECT ?X ?Y FROM S [RANGE 300ms STEP 100ms] WHERE { GRAPH S { ?X po ?Y } }`); err != nil || reply != "registered QF" {
		t.Fatalf("REGISTER = %q, %v", reply, err)
	}
	d1 := joinDaemon(t, seed.tr.Addr(), "") // replay path: window still intact
	defer d1.close()
	waitConverged(t, seed, d1)

	// Slide the window far past its retention: the next joiner cannot
	// replay from 1 and must take the snapshot path.
	base := int64(1000)
	for i := int64(0); i < 200; i++ {
		if _, err := seed.node.Forward("ADVANCE", []string{fmt.Sprint(base + i*100)}, ""); err != nil {
			t.Fatalf("ADVANCE pump %d: %v", i, err)
		}
	}
	waitConverged(t, seed, d1)
	d2 := joinDaemon(t, seed.tr.Addr(), "") // snapshot path
	defer d2.close()
	waitConverged(t, seed, d1, d2)

	if a, b := seed.node.Applied(), d2.node.Applied(); a != b {
		t.Fatalf("snapshot joiner applied %d, authority %d", b, a)
	}
	for _, q := range []string{
		`SELECT ?X ?Y WHERE { ?X knows ?Y }`,
		`SELECT ?X ?Y WHERE { ?X po ?Y }`,
	} {
		want := queryRows(t, seed, q)
		if len(want) == 0 {
			t.Fatalf("no rows on authority for %q", q)
		}
		if got := queryRows(t, d1, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay twin diverged on %q: %v vs %v", q, got, want)
		}
		if got := queryRows(t, d2, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot twin diverged on %q: %v vs %v", q, got, want)
		}
	}
	// The restored replica keeps participating: new writes land everywhere,
	// and the restored CQ fires on the snapshot joiner for post-snapshot
	// windows.
	var tuples strings.Builder
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&tuples, "<u%d> <po> <late%d> . @%d\n", i, i, base+200*100+int64(i))
	}
	if _, err := d2.node.Forward("EMIT", []string{"S"}, tuples.String()); err != nil {
		t.Fatalf("EMIT via snapshot joiner: %v", err)
	}
	if _, err := d2.node.Forward("ADVANCE", []string{fmt.Sprint(base + 201*100)}, ""); err != nil {
		t.Fatalf("ADVANCE via snapshot joiner: %v", err)
	}
	waitConverged(t, seed, d1, d2)
	q := `SELECT ?X ?Y WHERE { ?X po ?Y }`
	want := queryRows(t, seed, q)
	if got := queryRows(t, d2, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-catch-up write diverged: %v vs %v", got, want)
	}
	d2.mu.Lock()
	fired := len(d2.fires["QF"])
	d2.mu.Unlock()
	if fired == 0 {
		t.Fatal("restored continuous query never fired on the snapshot joiner")
	}
}

// TestSnapshotCatchUpFarBehindDefaultWindow is the acceptance-bar variant:
// with the default 65536-op retention, a member forced more than a full
// window behind still converges to Applied() equality by snapshot transfer.
func TestSnapshotCatchUpFarBehindDefaultWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("pumps >65536 ops")
	}
	seed := startSeed(t, nil)
	defer seed.close()
	seedData(t, seed)

	pump := DefaultMaxOplog + 512
	for i := 0; i < pump; i++ {
		if _, err := seed.node.Forward("ADVANCE", []string{fmt.Sprint(1000 + int64(i)*10)}, ""); err != nil {
			t.Fatalf("ADVANCE pump %d: %v", i, err)
		}
	}
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	// Join returns once a catch-up is under way — the replicated MEMBER op
	// can start one before Join's own — and restoring a clock 66k ticks
	// ahead is slow under the race detector. Wait for the transfer itself
	// (the /healthz catching-up gate), not for waitConverged's fixed budget.
	deadline := time.Now().Add(2 * time.Minute)
	for d1.node.Status() == "catching-up" {
		if time.Now().After(deadline) {
			t.Fatal("snapshot catch-up still running after 2m")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitConverged(t, seed, d1)
	if a, b := seed.node.Applied(), d1.node.Applied(); a != b {
		t.Fatalf("far-behind joiner applied %d, authority %d", b, a)
	}
	if a, b := int64(seed.eng.Now()), int64(d1.eng.Now()); a != b {
		t.Fatalf("clocks diverged: %d vs %d", a, b)
	}
	q := `SELECT ?X ?Y WHERE { ?X knows ?Y }`
	if want, got := queryRows(t, seed, q), queryRows(t, d1, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("far-behind twin diverged: %v vs %v", got, want)
	}
}

// TestExactlyOnceForwardID verifies the replicated dedup table: a retried
// op id returns the original ack without re-sequencing.
func TestExactlyOnceForwardID(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	first, err := seed.node.Forward("ADVANCE", []string{"500", "id=op-1"}, "")
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	applied := seed.node.Applied()
	again, err := seed.node.Forward("ADVANCE", []string{"777", "id=op-1"}, "")
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if again != first {
		t.Fatalf("retry reply = %q, want cached %q", again, first)
	}
	if got := seed.node.Applied(); got != applied {
		t.Fatalf("retry re-sequenced: applied %d -> %d", applied, got)
	}
	if now := int64(seed.eng.Now()); now != 500 {
		t.Fatalf("retry re-applied: now = %d, want 500", now)
	}
}

// TestResumeAuthorityFromDisk restarts a crashed solo authority from its
// data directory: snapshot restore plus oplog tail replay must reproduce
// the pre-crash state, under a bumped epoch.
func TestResumeAuthorityFromDisk(t *testing.T) {
	dir := t.TempDir()
	seed := startSeedCfg(t, func(c *Config) {
		c.DataDir = dir
		c.SnapshotEvery = 8
		c.NoSync = true
	})
	seedData(t, seed)
	// Cross a snapshot boundary so restart exercises snapshot + tail.
	for i := int64(0); i < 20; i++ {
		if _, err := seed.node.Forward("ADVANCE", []string{fmt.Sprint(500 + i*100)}, ""); err != nil {
			t.Fatalf("ADVANCE %d: %v", i, err)
		}
	}
	q := `SELECT ?X ?Y WHERE { ?X knows ?Y }`
	want := queryRows(t, seed, q)
	wantApplied := seed.node.Applied()
	wantNow := int64(seed.eng.Now())
	addr := seed.tr.Addr()
	seed.close() // crash

	if !HasDurableState(dir) {
		t.Fatal("no durable state recorded")
	}
	d := &daemon{eng: newEngine(t)}
	defer d.close()
	var tr *wire.TCP
	var err error
	for i := 0; i < 50; i++ {
		tr, err = wire.ListenTCP(addr, tcpConfig(SeedRank, nil), obs.NewRegistry(""))
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	d.tr = tr
	cfg := clusterConfig(tr, SeedRank, d.eng, d)
	cfg.SelfAddr = addr
	cfg.DataDir = dir
	cfg.SnapshotEvery = 8
	cfg.NoSync = true
	node, err := Resume(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	d.node = node

	// +1: the re-fencing EPOCH op is the first post-resume sequence.
	if got := d.node.Applied(); got != wantApplied+1 {
		t.Fatalf("resumed applied = %d, want %d", got, wantApplied+1)
	}
	if got := d.node.Epoch(); got != 2 {
		t.Fatalf("resumed epoch = %d, want 2", got)
	}
	if got := int64(d.eng.Now()); got != wantNow {
		t.Fatalf("resumed clock = %d, want %d", got, wantNow)
	}
	if got := queryRows(t, d, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed state diverged: %v vs %v", got, want)
	}
	// And it is a live authority again.
	if reply, err := d.node.Forward("ADVANCE", []string{fmt.Sprint(wantNow + 100)}, ""); err != nil || reply != fmt.Sprintf("now %d", wantNow+100) {
		t.Fatalf("write after resume = %q, %v", reply, err)
	}
}

// TestResumeAsMemberDiscardsStaleState restarts a crashed member while the
// rest of the cluster kept moving: its disk state is a stale prefix and
// must be discarded in favour of the live cluster's history.
func TestResumeAsMemberDiscardsStaleState(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	dir := t.TempDir()
	d1 := joinDaemonCfg(t, seed.tr.Addr(), "", func(c *Config) {
		c.DataDir = dir
		c.NoSync = true
	})
	seedData(t, seed)
	waitConverged(t, seed, d1)
	addr := d1.tr.Addr()
	rank := d1.node.Self()
	d1.close() // member crashes

	// The cluster moves on without it.
	if _, err := seed.node.Forward("LOAD", nil, "<while> <knows> <down> .\n"); err != nil {
		t.Fatalf("LOAD while member down: %v", err)
	}
	if _, err := seed.node.Forward("ADVANCE", []string{"1500"}, ""); err != nil {
		t.Fatalf("ADVANCE while member down: %v", err)
	}

	d := &daemon{eng: newEngine(t)}
	defer d.close()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	tr, err := wire.NewTCP(ln, tcpConfig(rank, nil), obs.NewRegistry(""))
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	d.tr = tr
	cfg := clusterConfig(tr, rank, d.eng, d)
	cfg.SelfAddr = addr
	cfg.SeedAddr = seed.tr.Addr()
	cfg.DataDir = dir
	cfg.NoSync = true
	node, err := Resume(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	d.node = node
	waitConverged(t, seed, d)
	q := `SELECT ?X ?Y WHERE { ?X knows ?Y }`
	if want, got := queryRows(t, seed, q), queryRows(t, d, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed member diverged: %v vs %v", got, want)
	}
}
