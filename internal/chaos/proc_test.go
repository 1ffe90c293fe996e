package chaos

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/stream"
)

// TestProcClusterKillDashNine is the failover contract asserted across real
// process boundaries: three wukongsd daemons form a TCP cluster, one is
// kill -9ed mid-load, and a survivor must keep answering every one-shot on
// the sub-millisecond path; after a
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
	if rep.SurvivorQueries == 0 {
		t.Error("no scripted subject was probed during the outage; the outage reads proved nothing")
	}
	if rep.SurvivorFailures != 0 {
		t.Errorf("%d of %d survivor probes errored or disagreed with the twin during the outage",
			rep.SurvivorFailures, rep.SurvivorQueries)
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

// TestProcFourthDaemonJoins grows a running cluster: three wukongsd daemons
// serve the scripted stream, a fourth -joins halfway through, takes rank 3,
// catches up, and ends with the same applied sequence and the same
// deliveries as an existing member and the fault-free twin. Runs in -short
// mode too (make chaos-proc).
func TestProcFourthDaemonJoins(t *testing.T) {
	rep, err := RunProcJoin(ProcConfig{
		Seed:    13,
		WorkDir: t.TempDir(),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.JoinerRank != 3 {
		t.Errorf("fourth daemon reports rank %d, want 3", rep.JoinerRank)
	}
	if !rep.SeenByAll {
		t.Error("not every original daemon saw the fourth one alive")
	}
	if rep.JoinerApplied == 0 || rep.JoinerApplied != rep.MemberApplied {
		t.Errorf("cluster_applied_seq: fourth daemon %d, member %d", rep.JoinerApplied, rep.MemberApplied)
	}
	if len(rep.TwinWindows) == 0 {
		t.Fatal("fault-free twin produced no windows")
	}
	assertWindowsEqual(t, "member", rep.Windows, rep.TwinWindows)
	assertWindowsEqual(t, "fourth daemon", rep.JoinerWindows, rep.Windows)
}

// TestProcStandaloneKillDashNine is §5's "no acked op lost or applied twice"
// for a real standalone daemon: wukongsd with -data-dir and no -listen is
// sent EMITs under id= tokens, each acked, and kill -9ed before any ADVANCE
// seals them. Restarted on the same directory, it is sent the last EMIT
// again under the same token, as a client whose ack was lost retries it;
// then ADVANCE and POLL. Every acked tuple must be delivered in every window
// that spans it exactly once (a multiset match with an in-process twin), and
// the store must hold each once. Runs in -short mode too (make chaos-proc).
func TestProcStandaloneKillDashNine(t *testing.T) {
	const batches = 3
	cfg := ProcConfig{Seed: 17, WorkDir: t.TempDir(), Logf: t.Logf}.procDefaults()
	bin, err := cfg.EnsureBin()
	if err != nil {
		t.Fatal(err)
	}
	ports, err := freePorts(2)
	if err != nil {
		t.Fatal(err)
	}
	d := &procDaemon{
		addr:     fmt.Sprintf("127.0.0.1:%d", ports[0]),
		httpAddr: fmt.Sprintf("127.0.0.1:%d", ports[1]),
		dataDir:  filepath.Join(cfg.WorkDir, "data"),
	}
	defer d.kill9()
	if err := cfg.spawn(bin, d, ""); err != nil {
		t.Fatal(err)
	}
	// send runs one command on a fresh connection and returns its status
	// line, failing unless it is "+OK".
	send := func(lines ...string) string {
		t.Helper()
		l, err := dialLine(d.addr, cfg.Timeout)
		if err != nil {
			t.Fatal(err)
		}
		defer l.close()
		st, err := l.cmd(append(lines, "QUIT")...)
		if err != nil || !strings.HasPrefix(st, "+OK") {
			t.Fatalf("%s: %q, %v", lines[0], st, err)
		}
		return st
	}
	emit := func(b int) string {
		lines := []string{fmt.Sprintf("EMIT %s id=emit-%d", StreamName, b)}
		for _, tu := range scriptBatch(cfg.Seed, b, cfg.TuplesPerBatch) {
			lines = append(lines, tu.String())
		}
		return send(append(lines, ".")...)
	}
	send(fmt.Sprintf("STREAM %s %d id=stream", StreamName, batchMS))
	send("REGISTER id=register", queryText, ".")
	var lastAck string
	for b := 1; b <= batches; b++ {
		lastAck = emit(b)
	}

	d.kill9()
	if err := cfg.spawn(bin, d, ""); err != nil {
		t.Fatal(err)
	}
	if retry := emit(batches); retry != lastAck {
		t.Errorf("the retried EMIT answered %q, its first ack was %q", retry, lastAck)
	}
	send(fmt.Sprintf("ADVANCE %d", (batches+3)*batchMS))

	l, err := dialLine(d.addr, cfg.Timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	if st, err := l.cmd("POLL " + QueryName); err != nil || !strings.HasPrefix(st, "+OK") {
		t.Fatalf("POLL: %q, %v", st, err)
	}
	polled, err := l.block()
	if err != nil {
		t.Fatal(err)
	}
	got := map[rdf.Timestamp][]string{}
	for _, line := range polled {
		at, row, _ := strings.Cut(strings.TrimPrefix(line, "@"), " ")
		ts, err := strconv.ParseInt(at, 10, 64)
		if err != nil {
			t.Fatalf("POLL row %q", line)
		}
		got[rdf.Timestamp(ts)] = append(got[rdf.Timestamp(ts)], row)
	}
	stored, _, err := queryRows(l, `SELECT ?X ?Y WHERE { ?X po ?Y }`)
	if err != nil {
		t.Fatal(err)
	}

	// The twin applies each scripted batch once and keeps duplicate rows.
	twin, err := core.New(core.Config{Nodes: twinEngineNodes, WorkersPerNode: 2, Metrics: obs.NewRegistry("")})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	src, err := twin.RegisterStream(stream.Config{Name: StreamName, BatchInterval: batchMS * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	want := map[rdf.Timestamp][]string{}
	if _, err := twin.RegisterContinuous(queryText, func(r *core.Result, f core.FireInfo) {
		if rows := r.Strings(); len(rows) > 0 { // POLL shows no empty firing
			mu.Lock()
			want[f.At] = append(want[f.At], rows...)
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= batches; b++ {
		for _, tu := range scriptBatch(cfg.Seed, b, cfg.TuplesPerBatch) {
			if err := src.Emit(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	twin.AdvanceTo((batches + 3) * batchMS)
	res, err := twin.Query(`SELECT ?X ?Y WHERE { ?X po ?Y }`)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(want) == 0 {
		t.Fatal("the twin fired no window")
	}
	twinRows := res.Strings()
	sort.Strings(stored)
	sort.Strings(twinRows)
	for _, m := range []map[rdf.Timestamp][]string{got, want} {
		for _, rows := range m {
			sort.Strings(rows)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windows after the restart:\n%v\ntwin:\n%v", got, want)
	}
	if !reflect.DeepEqual(stored, twinRows) {
		t.Errorf("the store holds %d po rows, the twin %d:\n%v\nvs\n%v", len(stored), len(twinRows), stored, twinRows)
	}
}
