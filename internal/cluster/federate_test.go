package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/member"
	"repro/internal/obs"
	"repro/internal/trace"
)

// gatherTrees pulls every daemon's spans through the federation path on via
// and assembles them into cross-process trees.
func gatherTrees(t *testing.T, via *daemon) []trace.Tree {
	t.Helper()
	spans, reports := via.node.ClusterTraces()
	for _, r := range reports {
		if r.Err != "" {
			t.Fatalf("rank %d federation error: %s", r.Rank, r.Err)
		}
	}
	return trace.Assemble(spans)
}

// flatSpans walks a tree back into its span list.
func flatSpans(tr trace.Tree) []trace.Span {
	var out []trace.Span
	var walk func(ts *trace.TreeSpan)
	walk = func(ts *trace.TreeSpan) {
		out = append(out, ts.Span)
		for _, c := range ts.Children {
			walk(c)
		}
	}
	if tr.Root != nil {
		walk(tr.Root)
	}
	return out
}

// TestReplicationTrace checks the write path's tree: a forwarded mutating op
// must link member-side forward → seed.apply/seed.replicate → the members'
// replica.apply spans.
func TestReplicationTrace(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	d2 := joinDaemon(t, seed.tr.Addr(), "")
	defer d2.close()

	if _, err := d1.node.Forward("LOAD", nil, "<a> <p> <b> .\n"); err != nil {
		t.Fatalf("LOAD: %v", err)
	}
	waitConverged(t, seed, d1, d2)

	deadline := time.Now().Add(3 * time.Second)
	for {
		trees := gatherTrees(t, seed)
		for i := range trees {
			names := map[string]int{}
			for _, sp := range flatSpans(trees[i]) {
				names[sp.Name]++
			}
			// One replica.apply per member is the full fan-out; at least one
			// proves the context crossed the one-way replication send.
			if names["cluster.forward"] == 1 && names["seed.apply"] == 1 &&
				names["seed.replicate"] == 1 && names["replica.apply"] >= 1 &&
				trees[i].Orphans == 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no complete replication trace; trees: %+v", trees)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWritePathObservability: one refused EMIT through a member counts in
// cluster_ops_refused_total on both daemons, and each write's trace, refused
// or accepted, shows the authority's durable append (seed.fsync) ending
// before its apply (seed.apply) starts, and the member's wait for its own
// apply (cluster.wait_applied): the authority acks once the op is durable,
// and the member learns a refusal from its own apply, as it does a reply.
func TestWritePathObservability(t *testing.T) {
	seed := startSeedCfg(t, func(c *Config) {
		c.DataDir = t.TempDir()
		c.NoSync = true
	})
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	if _, err := d1.node.Forward("STREAM", []string{"S", "100"}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.node.Forward("EMIT", []string{"S"}, "<a> <po> <b> . @250\n<c> <po> <d> . @150\n"); err == nil {
		t.Fatal("out-of-order EMIT was accepted")
	}
	waitConverged(t, seed, d1)
	for _, d := range []*daemon{seed, d1} {
		if got := counter(d, "cluster_ops_refused_total"); got != 1 {
			t.Fatalf("rank %d: cluster_ops_refused_total = %d, want 1", d.node.Self(), got)
		}
	}

	// The authority's apply span ends beside its ack, so it can land in
	// the span ring a moment after the op counts as applied.
	var refused, accepted bool
	for deadline := time.Now().Add(3 * time.Second); !refused || !accepted; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("want a refused and an accepted write each traced through seed.fsync, then seed.apply, and cluster.wait_applied; got refused %v, accepted %v", refused, accepted)
		}
		for _, tr := range gatherTrees(t, seed) {
			names := map[string]int{}
			var fsync, apply trace.Span
			for _, sp := range flatSpans(tr) {
				names[sp.Name]++
				switch sp.Name {
				case "seed.fsync":
					fsync = sp
				case "seed.apply":
					apply = sp
				}
			}
			if names["cluster.forward"] != 1 || names["seed.fsync"] != 1 || names["seed.apply"] != 1 || names["cluster.wait_applied"] != 1 {
				continue
			}
			if fsync.Start+fsync.Dur > apply.Start {
				t.Fatalf("seed.fsync ends at %d, after seed.apply starts at %d", fsync.Start+fsync.Dur, apply.Start)
			}
			switch {
			case strings.Contains(apply.Err, "timestamp regression"):
				refused = true
			case apply.Err == "":
				accepted = true
			}
		}
	}
}

// TestClusterStatsAndMetricsFederation checks the merged views and the
// per-node annotations while everyone is alive.
func TestClusterStatsAndMetricsFederation(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	// The member's detector and anti-entropy stay off: the test runs its
	// anti-entropy read itself, and a detector starved by a loaded host
	// could otherwise crown the member while its apply lock is held below.
	d1 := joinDaemonCfg(t, seed.tr.Addr(), "", func(c *Config) { c.HeartbeatInterval = -1 })
	defer d1.close()
	seedData(t, seed)
	waitConverged(t, seed, d1)

	reports := d1.node.ClusterStats()
	if len(reports) != 2 {
		t.Fatalf("ClusterStats reports = %+v, want 2 members", reports)
	}
	for _, r := range reports {
		if r.Err != "" {
			t.Fatalf("rank %d: unexpected error %q", r.Rank, r.Err)
		}
		if !strings.Contains(r.Stats, "applied=") {
			t.Fatalf("rank %d: fallback stats line %q missing applied=", r.Rank, r.Stats)
		}
		wantState := "alive"
		if fabric.NodeID(r.Rank) == d1.node.Self() {
			wantState = "self"
		}
		if r.State != wantState {
			t.Fatalf("rank %d state %q, want %q", r.Rank, r.State, wantState)
		}
	}

	// LocalStats hook takes over the line when configured.
	seed.node.cfg.LocalStats = func() string { return "custom=1" }
	found := false
	for _, r := range d1.node.ClusterStats() {
		if r.Rank == int(SeedRank) && r.Stats == "custom=1" {
			found = true
		}
	}
	if !found {
		t.Fatal("LocalStats hook output did not reach the federated view")
	}

	merged, reports := d1.node.ClusterMetrics()
	for _, r := range reports {
		if r.Err != "" {
			t.Fatalf("metrics rank %d: %s", r.Rank, r.Err)
		}
	}
	// Both daemons applied the same ops, so the merged counter must be the
	// sum of the two registries — strictly more than either alone.
	m, ok := merged["cluster_ops_applied_total"]
	if !ok || m.Value == nil {
		t.Fatalf("merged metrics missing cluster_ops_applied_total: %v", merged)
	}
	one := seed.node.cfg.Metrics.SnapshotJSON()["cluster_ops_applied_total"]
	if *m.Value <= *one.Value {
		t.Fatalf("merged applied %d not greater than single node %d", *m.Value, *one.Value)
	}

	// Staleness is reported once per live member, labeled by rank so the
	// merge cannot add one replica's sequence number to another's.
	gauge := func(base string, d *daemon) int64 {
		t.Helper()
		merged, _ := d1.node.ClusterMetrics()
		m, ok := merged[obs.Name(base, "rank", fmt.Sprint(int(d.node.Self())))]
		if !ok || m.Value == nil {
			t.Fatalf("CLUSTER METRICS has no %s for rank %d: %v", base, d.node.Self(), merged)
		}
		return *m.Value
	}
	for _, d := range []*daemon{seed, d1} {
		if got := gauge("cluster_applied_seq", d); uint64(got) != d.node.Applied() {
			t.Fatalf("rank %d: cluster_applied_seq = %d, want %d", d.node.Self(), got, d.node.Applied())
		}
		if got := gauge("cluster_replica_lag_ops", d); got != 0 {
			t.Fatalf("rank %d: cluster_replica_lag_ops = %d on a converged cluster", d.node.Self(), got)
		}
	}

	// A member that cannot apply (here: its apply lock is held) learns from
	// its anti-entropy read how far ahead the authority is and says so, then
	// reports 0 again once it has caught up.
	d1.node.applyMu.Lock()
	for i := 0; i < 3; i++ {
		if _, err := seed.node.Forward("LOAD", nil, fmt.Sprintf("<lag%d> <p> <o> .\n", i)); err != nil {
			d1.node.applyMu.Unlock()
			t.Fatalf("LOAD: %v", err)
		}
	}
	_, head, ok := d1.node.readAuthHead()
	lag := gauge("cluster_replica_lag_ops", d1)
	d1.node.applyMu.Unlock()
	if !ok || head != seed.node.Applied() {
		t.Fatalf("anti-entropy read head %d (ok %v), authority at %d", head, ok, seed.node.Applied())
	}
	if lag != 3 {
		t.Fatalf("stalled member reports cluster_replica_lag_ops = %d, want 3", lag)
	}
	if got := gauge("cluster_replica_lag_ops", seed); got != 0 {
		t.Fatalf("authority reports cluster_replica_lag_ops = %d, want 0", got)
	}
	waitConverged(t, seed, d1)
	if got := gauge("cluster_replica_lag_ops", d1); got != 0 {
		t.Fatalf("caught-up member reports cluster_replica_lag_ops = %d, want 0", got)
	}
}

// TestFederationDegradesOnDeadMember is the partial-results contract: a
// killed member must appear in the report with an explicit error, without
// stalling the fan-out or hiding the survivors' data.
func TestFederationDegradesOnDeadMember(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	d2 := joinDaemon(t, seed.tr.Addr(), "")
	defer d2.close()
	seedData(t, seed)
	waitConverged(t, seed, d1, d2)

	deadRank := d2.node.Self()
	d2.close()
	waitState(t, seed, deadRank, member.Dead)

	start := time.Now()
	merged, reports := seed.node.ClusterMetrics()
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("federation took %v with a dead member; must not stall on it", elapsed)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %+v, want all 3 ranks", reports)
	}
	var deadSeen, liveSeen int
	for _, r := range reports {
		if fabric.NodeID(r.Rank) == deadRank {
			deadSeen++
			if r.Err == "" || r.State != "dead" {
				t.Fatalf("dead rank %d not annotated: %+v", r.Rank, r)
			}
		} else if r.Err == "" {
			liveSeen++
		}
	}
	if deadSeen != 1 || liveSeen != 2 {
		t.Fatalf("dead=%d live=%d, want 1/2: %+v", deadSeen, liveSeen, reports)
	}
	if m, ok := merged["cluster_ops_applied_total"]; !ok || m.Value == nil || *m.Value == 0 {
		t.Fatalf("survivors' metrics missing from degraded merge: %v", merged)
	}
}

// waitState blocks until observer's detector sees rank in the given state.
func waitState(t *testing.T, observer *daemon, rank fabric.NodeID, want member.State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for observer.node.Detector().State(rank) != want {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never reached state %v (now %v)", rank, want, observer.node.Detector().State(rank))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
