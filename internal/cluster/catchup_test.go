package cluster

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/member"
)

// catchUp's callers against a donor whose op log no longer holds the ops
// the caller lacks (TestSnapshotCatchUpTwinEqual covers the join): each
// must restore the donor's snapshot and come out with the donor's seq and
// rows.

// compactEarly is a Config hook for a donor that snapshots every 16 ops and
// keeps 8 ops per log segment, so a short pump compacts its log.
func compactEarly(c *Config) {
	c.SnapshotEvery = 16
	c.SegmentOps = 8
}

// noTicker is a Config hook for a daemon with no ticker: no anti-entropy
// pull and no takeover trigger of its own. The test drives its detector.
func noTicker(c *Config) { c.HeartbeatInterval = -1 }

// pumpUntilCompacted writes LOAD and ADVANCE pairs through via until
// donor's op log starts past op past, ending on an ADVANCE so every loaded
// triple is visible. It waits for donor to apply each pair, which includes
// any snapshot the pair makes due.
func pumpUntilCompacted(t *testing.T, via, donor *daemon, past uint64) {
	t.Helper()
	for i := 0; donor.node.dlog.First() <= past; i++ {
		if i == 100 {
			t.Fatalf("rank %d's log still starts at %d after %d pumped pairs", donor.node.Self(), donor.node.dlog.First(), i)
		}
		if _, err := via.node.Forward("LOAD", nil, fmt.Sprintf("<c%d> <knows> <d%d> .\n", i, i)); err != nil {
			t.Fatalf("LOAD %d: %v", i, err)
		}
		if _, err := via.node.Forward("ADVANCE", []string{fmt.Sprint(1000 + 100*i)}, ""); err != nil {
			t.Fatalf("ADVANCE %d: %v", i, err)
		}
		waitConverged(t, via, donor)
	}
}

// stalledMember joins a member behind a proxy and returns both; once the
// proxy stalls, the authority hears nothing from the member, declares it
// dead and sends it nothing more, while the member's own calls, which do not
// pass the proxy, still reach every peer.
func stalledMember(t *testing.T, seedAddr string, mutate func(*Config)) (*daemon, *stallProxy) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	proxy := startStallProxy(t, ln.Addr().String())
	return joinDaemonOn(t, seedAddr, ln, proxy.addr(), mutate), proxy
}

// requireCaughtUp checks that d holds donor's applied seq and rows, by one
// snapshot transfer.
func requireCaughtUp(t *testing.T, d, donor *daemon) {
	t.Helper()
	if a, b := donor.node.Applied(), d.node.Applied(); a != b {
		t.Fatalf("rank %d applied %d, its donor %d", d.node.Self(), b, a)
	}
	q := `SELECT ?X ?Y WHERE { ?X knows ?Y }`
	if want, got := queryRows(t, donor, q), queryRows(t, d, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("rank %d holds %d rows, its donor %d", d.node.Self(), len(got), len(want))
	}
	if got := counter(d, "snapshot_transfers_total"); got != 1 {
		t.Fatalf("rank %d made %d snapshot transfers, want 1", d.node.Self(), got)
	}
}

// A member resumes from its data directory while the seed's log starts past
// op 1: the rejoin restores the seed's snapshot, and Resume returns with the
// seed's seq and rows.
func TestResumeAsMemberFromCompactedDonor(t *testing.T) {
	seed := startSeedCfg(t, compactEarly)
	defer seed.close()
	dir := t.TempDir()
	d1 := joinDaemonCfg(t, seed.tr.Addr(), "", func(c *Config) {
		c.DataDir = dir
		c.NoSync = true
	})
	seedData(t, seed)
	waitConverged(t, seed, d1)
	addr, rank := d1.tr.Addr(), d1.node.Self()
	d1.close()

	pumpUntilCompacted(t, seed, seed, 1)
	d := resumeMember(t, addr, rank, seed.tr.Addr(), dir)
	defer d.close()
	requireCaughtUp(t, d, seed)
}

// The successor takes over from a survivor whose log starts past the ops
// the successor lacks: the reconcile restores that survivor's snapshot, and
// the successor sequences its EPOCH op right after the survivor's last op.
func TestTakeoverReconcilesFromCompactedSurvivor(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	// Rank 1, the successor, falls behind: the seed stops sending to it,
	// and it has no ticker to pull with.
	d1, proxy := stalledMember(t, seed.tr.Addr(), noTicker)
	defer d1.close()
	defer proxy.close()
	// Rank 2 compacts early, and with no ticker never takes over itself.
	d2 := joinDaemonCfg(t, seed.tr.Addr(), "", func(c *Config) {
		compactEarly(c)
		noTicker(c)
	})
	defer d2.close()
	seedData(t, seed)
	waitConverged(t, seed, d1, d2)

	proxy.stall()
	waitState(t, seed, d1.node.Self(), member.Dead)
	pumpUntilCompacted(t, seed, d2, d1.node.Applied()+1)
	head := d2.node.Applied()
	seed.close()

	// Rank 1's detector, driven here, sees the seed dead and rank 2 alive.
	det := d1.node.Detector()
	for round := 1; round <= member.DeadAfter; round++ {
		det.Tick(int64(round) * time.Hour.Milliseconds())
	}
	if st := det.State(d2.node.Self()); st != member.Alive {
		t.Fatalf("rank 2 is %v on rank 1", st)
	}
	reply, err := forwardWithin(t, d1, "ADVANCE", []string{"90000"})
	if err != nil || reply != "now 90000" {
		t.Fatalf("ADVANCE through the successor = %q, %v", reply, err)
	}
	if a, e := d1.node.Authority(), d1.node.Epoch(); a != d1.node.Self() || e != 2 {
		t.Fatalf("after the takeover rank 1 sees authority %d at epoch %d", a, e)
	}
	var kind string
	if err := d1.node.dlog.Range(head+1, head+1, func(_ uint64, enc []byte) error {
		_, _, _, kind, _, _, err = decodeOp(string(enc))
		return err
	}); err != nil || kind != "EPOCH" {
		t.Fatalf("op %d, after the survivor's last, is %q (%v); want the EPOCH op", head+1, kind, err)
	}
	requireApplied(t, d2, head+2)
	requireCaughtUp(t, d1, d2)
}

// An anti-entropy pull against an authority whose log starts past the ops
// the member lacks, with no later broadcast to trigger gap repair, restores
// the authority's snapshot.
func TestAntiEntropyFromCompactedAuthority(t *testing.T) {
	seed := startSeedCfg(t, compactEarly)
	defer seed.close()
	d1, proxy := stalledMember(t, seed.tr.Addr(), noTicker)
	defer d1.close()
	defer proxy.close()
	seedData(t, seed)
	waitConverged(t, seed, d1)

	proxy.stall()
	waitState(t, seed, d1.node.Self(), member.Dead)
	pumpUntilCompacted(t, seed, seed, d1.node.Applied()+1)
	d1.node.antiEntropy()
	requireCaughtUp(t, d1, seed)
}
