package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rdf"
)

// TestProcClusterKillDashNine is the failover contract asserted across real
// process boundaries: three wukongsd daemons form a TCP cluster, one is
// kill -9ed mid-load, and a survivor must keep answering every one-shot —
// the killed rank's entities included — on the sub-millisecond path; after a
// restart the victim must rejoin, replay, and dedup to the fault-free twin.
// Runs in -short mode too (make chaos-proc): the scenario IS the short
// configuration.
func TestProcClusterKillDashNine(t *testing.T) {
	rep, err := RunProc(ProcConfig{
		Seed:    7,
		WorkDir: t.TempDir(),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	if !rep.NodeDeclaredDead {
		t.Error("victim was never declared dead by a survivor's detector")
	}
	if !rep.NodeRejoined {
		t.Error("victim never rejoined after restart")
	}

	// (a) a peer's death costs the survivor no read: every scripted subject
	// answers from the local replica, twin-equal and sub-millisecond, and so
	// does the unanchored scan.
	if rep.KilledRankProbes == 0 {
		t.Errorf("none of the %d probed subjects is homed on the killed rank; the outage reads proved nothing", rep.SurvivorQueries)
	}
	if rep.SurvivorFailures != 0 {
		t.Errorf("%d of %d survivor probes errored or disagreed with the twin during the outage (%d homed on the killed rank)",
			rep.SurvivorFailures, rep.SurvivorQueries, rep.KilledRankProbes)
	}
	if rep.SurvivorLatMax >= time.Millisecond {
		t.Errorf("survivor engine latency %v breaches the sub-millisecond path", rep.SurvivorLatMax)
	}
	if rep.ScanRows == 0 || rep.ScanRows != rep.TwinScanRows {
		t.Errorf("unanchored scan during the outage returned %d rows, twin has %d", rep.ScanRows, rep.TwinScanRows)
	}

	// (b) federated observability degrades, not disappears: the survivor's
	// CLUSTER METRICS and /debug/traces keep serving merged data mid-outage,
	// annotating the dead rank explicitly, and an EMIT forwarded during the
	// outage yields one causally-linked trace spanning both live processes.
	if !rep.FedDeadAnnotated {
		t.Error("CLUSTER METRICS did not annotate the dead rank with an explicit error")
	}
	if rep.FedLiveReports != 2 {
		t.Errorf("clean federation reports during the outage = %d, want both survivors", rep.FedLiveReports)
	}
	if rep.FedMergedOps == 0 {
		t.Error("merged cluster_ops_applied_total empty in the degraded federation")
	}
	if rep.TraceSpans < 4 || rep.TraceNodes < 2 {
		t.Errorf("mid-outage EMIT trace: %d spans across %d ranks, want >= 4 across >= 2",
			rep.TraceSpans, rep.TraceNodes)
	}
	if rep.TraceFedErrors == 0 {
		t.Error("federated /debug/traces hid the dead member instead of reporting it")
	}

	// (c) both the survivor's deliveries and the victim's post-rejoin
	// replay dedup to exactly the fault-free twin.
	if len(rep.TwinWindows) == 0 {
		t.Fatal("fault-free twin produced no windows")
	}
	assertWindowsEqual(t, "survivor", rep.Windows, rep.TwinWindows)
	assertWindowsEqual(t, "rejoined victim", rep.RejoinWindows, rep.TwinWindows)
}

func assertWindowsEqual(t *testing.T, who string, got, want map[rdf.Timestamp][]string) {
	t.Helper()
	for at, rows := range want {
		g, ok := got[at]
		if !ok {
			t.Errorf("%s: window %d missing (twin has %d rows)", who, at, len(rows))
			continue
		}
		if fmt.Sprint(g) != fmt.Sprint(rows) {
			t.Errorf("%s: window %d diverges:\n got %v\nwant %v", who, at, g, rows)
		}
	}
	for at := range got {
		if _, ok := want[at]; !ok {
			t.Errorf("%s: window %d delivered but absent from the twin", who, at)
		}
	}
}

// TestProcSeedKillFailover is the PR-9 succession contract asserted across
// real process boundaries: three durable wukongsd daemons form a TCP
// cluster, the write AUTHORITY (rank 0) is kill -9ed under sustained EMIT
// load, and rank 1 must fence a new epoch and resume acking writes within a
// bounded, metrics-recorded window with nothing acked lost or doubled; the
// ex-seed restarted from its stale data directory must come back demoted
// under the fenced epoch. Runs in -short mode too (make chaos-proc): the
// scenario IS the short configuration.
func TestProcSeedKillFailover(t *testing.T) {
	rep, err := RunProcSeedKill(ProcConfig{
		Seed:          11,
		WorkDir:       t.TempDir(),
		SnapshotEvery: 64,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// (a) deterministic fenced succession, within a bounded recorded window.
	if !rep.SeedDeclaredDead {
		t.Error("the killed authority was never declared dead by the successor's detector")
	}
	if rep.FailoverAuthority != 1 {
		t.Errorf("post-failover authority = rank %d, want the deterministic successor rank 1", rep.FailoverAuthority)
	}
	if rep.FailoverEpoch < 2 {
		t.Errorf("post-failover epoch = %d, want >= 2 (the takeover must fence)", rep.FailoverEpoch)
	}
	if rep.WriteUnavail <= 0 || rep.WriteUnavail > 10*time.Second {
		t.Errorf("write-unavailability window %v is outside the bounded contract (0, 10s]", rep.WriteUnavail)
	}
	if !rep.UnavailRecorded {
		t.Error("cluster_write_unavail_ns histogram recorded no samples for the outage")
	} else if rep.RecordedUnavailMax <= 0 || rep.RecordedUnavailMax > rep.WriteUnavail {
		t.Errorf("recorded unavailability max %v should be positive and inside the harness-observed %v",
			rep.RecordedUnavailMax, rep.WriteUnavail)
	}

	// (c) the ex-seed resumes demoted, never re-crowning itself from disk.
	if !rep.ExSeedResumed {
		t.Error("restarted ex-seed never rejoined the successor's view")
	}
	if !rep.ExSeedDemoted {
		t.Errorf("restarted ex-seed did not demote: epoch %d, want authority 1 at epoch >= %d",
			rep.ExSeedEpoch, rep.FailoverEpoch)
	}

	// (b) nothing acked is lost or doubled: both the successor's deliveries
	// and the resumed ex-seed's dedup to exactly the fault-free twin.
	if len(rep.TwinWindows) == 0 {
		t.Fatal("fault-free twin produced no windows")
	}
	assertWindowsEqual(t, "successor", rep.Windows, rep.TwinWindows)
	assertWindowsEqual(t, "resumed ex-seed", rep.RejoinWindows, rep.TwinWindows)
}
