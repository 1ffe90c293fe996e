package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// gauge reads one of d's registry values by name.
func gauge(t *testing.T, d *daemon, name string) int64 {
	t.Helper()
	m, ok := d.node.cfg.Metrics.SnapshotJSON()[name]
	if !ok || m.Value == nil {
		t.Fatalf("rank %d has no metric %s", d.node.Self(), name)
	}
	return *m.Value
}

// Ranks come from membership, not from the engine's partition count: a
// healthy two-daemon cluster whose engines run four partitions probes its two
// members only, and after more than DeadAfter rounds nobody is dead.
func TestHealthyClusterDeclaresNoPhantomRank(t *testing.T) {
	four := enginePartitions(t, 4)
	quiet := func(c *Config) {
		four(c)
		c.HeartbeatInterval = -1 // rounds run only on the explicit Ticks below
	}
	seed := startSeedCfg(t, quiet)
	defer seed.close()
	d1 := joinDaemonCfg(t, seed.tr.Addr(), "", quiet)
	defer d1.close()
	waitConverged(t, seed, d1)

	for _, d := range []*daemon{seed, d1} {
		det := d.node.Detector()
		iv := det.Config().HeartbeatIntervalMS
		for round := 1; round <= det.Config().DeadAfter+2; round++ {
			det.Tick(int64(round) * iv)
		}
		if got := gauge(t, d, "member_dead_nodes"); got != 0 {
			t.Errorf("rank %d: member_dead_nodes = %d, want 0", d.node.Self(), got)
		}
		if got := gauge(t, d, "member_alive_nodes"); got != 2 {
			t.Errorf("rank %d: member_alive_nodes = %d, want 2", d.node.Self(), got)
		}
		if got := counter(d, "member_deaths_total"); got != 0 {
			t.Errorf("rank %d: member_deaths_total = %d, want 0", d.node.Self(), got)
		}
		// CLUSTER: the SEQ and EPOCH lines, then one line per member.
		if info := d.node.Info(); len(info) != 4 {
			t.Errorf("rank %d: CLUSTER lines %q, want two member lines", d.node.Self(), info)
		}
	}
}

// transcript renders d's snapshot transcript with its KEY section sorted:
// the store dumps keys in map order, so only the set of KEY lines is part of
// the replicated state.
func transcript(d *daemon) []string {
	d.node.applyMu.Lock()
	b := d.node.buildSnapshotLocked()
	d.node.applyMu.Unlock()
	lines := strings.Split(string(b), "\n")
	i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "KEY ") })
	if i >= 0 {
		slices.Sort(lines[i:])
	}
	return lines
}

// firings returns d's continuous-query firings with each firing's rows
// sorted (row order within a firing is the executor's business).
func firings(d *daemon) map[string][][]string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string][][]string, len(d.fires))
	for name, fs := range d.fires {
		for _, rows := range fs {
			rows = slices.Clone(rows)
			slices.Sort(rows)
			out[name] = append(out[name], rows)
		}
	}
	return out
}

// The op stream does not care how many partitions a replica's engine
// simulates: replicas at 1, 2 and 4 partitions that apply the same ops
// answer the same queries, deliver the same firings and dump the same
// snapshot transcript. That is why a joiner's partition count is not
// checked against the seed's.
func TestMixedEnginePartitionsAgree(t *testing.T) {
	seed := startSeedCfg(t, enginePartitions(t, 1))
	defer seed.close()
	d2 := joinDaemonCfg(t, seed.tr.Addr(), "", enginePartitions(t, 2))
	defer d2.close()
	d4 := joinDaemonCfg(t, seed.tr.Addr(), "", enginePartitions(t, 4))
	defer d4.close()
	all := []*daemon{seed, d2, d4}

	seedData(t, d2)
	if _, err := d2.node.Forward("REGISTER", nil,
		`REGISTER QUERY QM AS SELECT ?X ?Y FROM S [RANGE 300ms STEP 100ms] WHERE { GRAPH S { ?X po ?Y } }`); err != nil {
		t.Fatalf("REGISTER: %v", err)
	}
	for ts := 500; ts <= 1200; ts += 100 {
		var tuples strings.Builder
		for i := 0; i < 6; i++ {
			fmt.Fprintf(&tuples, "<u%d> <po> <t%d> . @%d\n", (ts/100+i)%12, (ts+i)%7, ts-50+i)
		}
		if _, err := d4.node.Forward("EMIT", []string{"S"}, tuples.String()); err != nil {
			t.Fatalf("EMIT: %v", err)
		}
		if _, err := seed.node.Forward("ADVANCE", []string{fmt.Sprint(ts)}, ""); err != nil {
			t.Fatalf("ADVANCE: %v", err)
		}
	}
	waitConverged(t, all...)

	for _, q := range []string{
		`SELECT ?X ?Y WHERE { ?X knows ?Y }`,
		`SELECT ?X ?Z WHERE { ?X knows ?Y . ?Y knows ?Z }`,
		`SELECT ?X ?Y WHERE { ?X po ?Y }`,
	} {
		if rows := expectSameRows(t, q, all...); len(rows) == 0 {
			t.Fatalf("%s: no rows; the comparison proved nothing", q)
		}
	}
	want := firings(seed)
	if len(want["QM"]) == 0 {
		t.Fatal("QM never fired")
	}
	wantSnap := transcript(seed)
	for _, d := range all[1:] {
		if got := firings(d); !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d firings differ from the 1-partition seed:\n got %v\nwant %v", d.node.Self(), got, want)
		}
		if got := transcript(d); !reflect.DeepEqual(got, wantSnap) {
			t.Errorf("rank %d snapshot transcript differs from the 1-partition seed", d.node.Self())
		}
	}
}

// JOIN grows the rank space only within what a frame can address, and an
// address that already holds a reservation gets the same rank back.
func TestJoinRankBounds(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()

	if _, err := seed.node.handleJoin([]string{fmt.Sprint(wire.MaxRank + 1), "127.0.0.1:1"}); !errors.Is(err, ErrRankSpace) {
		t.Fatalf("JOIN past MaxRank: %v, want ErrRankSpace", err)
	}
	// Over the wire the refusal arrives as text a joiner can match.
	_, err := wire.RawCall(seed.tr.Addr(), 0, 0, []byte(fmt.Sprintf("JOIN %d 127.0.0.1:1", wire.MaxRank+1)), time.Second)
	if !wire.RemoteError(err) || !strings.Contains(err.Error(), ErrRankSpace.Error()) {
		t.Fatalf("wire JOIN past MaxRank: %v", err)
	}

	first, _, err := Discover(seed.tr.Addr(), "127.0.0.1:2", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := Discover(seed.tr.Addr(), "127.0.0.1:2", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := Discover(seed.tr.Addr(), "127.0.0.1:3", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || again != first || other != 2 {
		t.Fatalf("reservations: %d, %d again for the same address, %d for another; want 1, 1, 2", first, again, other)
	}
}
