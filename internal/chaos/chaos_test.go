package chaos

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/stream"
)

// checkInvariants asserts the §5 recovery contract of a faulty run against
// its fault-free twin (same seed, no kill).
func checkInvariants(t *testing.T, faultFree, faulty *Report) {
	t.Helper()
	if !faulty.Recovered {
		t.Fatal("faulty run did not go through kill+recover")
	}
	// (c) prefix integrity: no window delivered before its VTS prefix was
	// stable.
	for _, f := range faulty.Firings {
		if !f.Ready {
			t.Errorf("window %d delivered before its VTS prefix was stable", f.At)
		}
	}
	// (b) superset with window-granularity duplicates only: deduplicating by
	// the window timestamp makes the runs identical.
	base, err := faultFree.Dedup()
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulty.Dedup()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base) {
		t.Errorf("faulty run covers %d windows, fault-free %d", len(got), len(base))
	}
	for at, rows := range base {
		frows, ok := got[at]
		if !ok {
			t.Errorf("window %d missing after recovery", at)
			continue
		}
		if !reflect.DeepEqual(rows, frows) {
			t.Errorf("window %d diverged after recovery:\n%v\nvs\n%v", at, rows, frows)
		}
	}
	// (a) at-least-once re-delivery actually happened: the recovered engine
	// re-registered the logged query and re-fired recovered windows.
	if len(faulty.Firings) <= len(got) {
		t.Error("recovery produced no duplicate window deliveries (queries not re-fired?)")
	}
	last := faulty.Firings[len(faulty.Firings)-1]
	if lastBase := faultFree.Firings[len(faultFree.Firings)-1]; last.At != lastBase.At {
		t.Errorf("final window = %d, fault-free run ends at %d", last.At, lastBase.At)
	}
}

// TestChaosKillAtNonCheckpointBoundary is the short-mode smoke test: kill
// between checkpoints, recover, and hold all three §5 invariants.
func TestChaosKillAtNonCheckpointBoundary(t *testing.T) {
	cfg := Config{Seed: 7, Nodes: 2, Batches: 8, TuplesPerBatch: 6, Dir: t.TempDir()}
	faultFree, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faultFree.Recovered || len(faultFree.Firings) == 0 {
		t.Fatalf("fault-free run: recovered=%v firings=%d", faultFree.Recovered, len(faultFree.Firings))
	}

	cfg.Dir = t.TempDir()
	cfg.CheckpointEvery = 3
	cfg.KillAtBatch = 4 // checkpoints land after batches 3 and 6: batch 4 is mid-interval
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, faultFree, faulty)
}

func TestChaosKillAtCheckpointBoundary(t *testing.T) {
	cfg := Config{Seed: 11, Nodes: 2, Batches: 8, TuplesPerBatch: 5, Dir: t.TempDir()}
	faultFree, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	cfg.CheckpointEvery = 2
	cfg.KillAtBatch = 4 // immediately after the batch-4 auto-checkpoint
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, faultFree, faulty)
}

// TestChaosDeterminism: the same seed and script produce byte-identical
// reports — including the kill, the recovery, and injected latency spikes —
// and a different seed diverges.
func TestChaosDeterminism(t *testing.T) {
	cfg := Config{
		Seed: 42, Nodes: 2, Batches: 8, TuplesPerBatch: 6,
		CheckpointEvery: 3, KillAtBatch: 5, FaultSeed: 9,
	}
	cfg.Dir = t.TempDir()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Firings, b.Firings) {
		t.Errorf("same seed diverged:\n%v\nvs\n%v", a.Firings, b.Firings)
	}
	cfg.Dir = t.TempDir()
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Firings, c.Firings) {
		t.Error("different seeds produced identical runs")
	}
}

// TestChaosCrashWhileBreakerOpen is the PR 4 combined fault+overload
// scenario: the stream is over-emitted past its admission bound for the
// whole run, a fabric node crashes mid-run so the breaker to it trips and
// its replica shipments take vts holds, and then the engine itself is
// killed while that breaker is still open. Recovery must hold the full §5
// contract against a fault-free twin running under the same overload — and
// admission must shed identically in both runs (overload accounting is
// part of the deterministic state, not collateral of the crash).
func TestChaosCrashWhileBreakerOpen(t *testing.T) {
	cfg := Config{
		Seed: 19, Nodes: 2, Batches: 8, TuplesPerBatch: 6,
		OverEmitFactor: 4, // 24 emits per batch against MaxPending 8
		Flow: core.FlowConfig{
			MaxPending:       8,
			BreakerThreshold: 2,
			BreakerCooldown:  time.Hour, // stays open through the kill
		},
		Dir: t.TempDir(),
	}
	faultFree, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faultFree.Shed == 0 {
		t.Fatal("fault-free twin shed nothing; the overload did not bind")
	}
	if faultFree.BreakerOpenAtKill {
		t.Fatal("fault-free twin reports an open breaker")
	}

	cfg.Dir = t.TempDir()
	cfg.CheckpointEvery = 3
	cfg.FabricCrashAtBatch = 4 // last checkpoint (batch 3) precedes the crash
	cfg.FabricCrashNode = 1
	cfg.KillAtBatch = 5 // killed with batch-5 shipments held and breaker open
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !faulty.BreakerOpenAtKill {
		t.Fatal("breaker to the crashed node was not open at the kill — the scenario did not exercise the combined state")
	}
	if faulty.Shed != faultFree.Shed {
		t.Errorf("crash changed admission accounting: shed %d vs fault-free %d", faulty.Shed, faultFree.Shed)
	}
	checkInvariants(t, faultFree, faulty)
}

// TestChaosLongerRun exercises a longer script with a late kill; skipped in
// short mode.
func TestChaosLongerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos run")
	}
	cfg := Config{Seed: 3, Nodes: 4, Batches: 30, TuplesPerBatch: 12, Dir: t.TempDir()}
	faultFree, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	cfg.CheckpointEvery = 7
	cfg.KillAtBatch = 17
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, faultFree, faulty)
}

// TestCrashedNodeSurfacesErrors: a crashed fabric node makes queries that
// need its data fail with fabric.ErrInjected — propagated through the
// store/exec layers to the API — never panic, never silently succeed.
func TestCrashedNodeSurfacesErrors(t *testing.T) {
	reg := obs.NewRegistry("chaos_test")
	e, err := core.New(core.Config{Nodes: 2, WorkersPerNode: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	plan := fabric.NewFaultPlan(1)
	e.Fabric().SetFaultPlan(plan)
	// Registered first, so the adaptor is homed on node 0 — the survivor.
	src, err := e.RegisterStream(stream.Config{Name: StreamName, BatchInterval: batchMS * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	var triples []rdf.Triple
	for _, tu := range scriptBatch(5, 1, 20) {
		triples = append(triples, tu.Triple)
	}
	e.LoadTriples(triples)

	const q = `SELECT ?X ?Y WHERE { ?X po ?Y }`
	if _, err := e.Query(q); err != nil {
		t.Fatalf("healthy query failed: %v", err)
	}
	plan.Crash(1)
	res, err := e.Query(q)
	if err == nil {
		t.Fatalf("query over crashed node returned %d rows and no error", res.Len())
	}
	if !errors.Is(err, fabric.ErrInjected) {
		t.Errorf("err = %v, want fabric.ErrInjected", err)
	}

	// A batch sealed while the node is down: the share homed on the crashed
	// node cannot ship. It is counted as dropped, side for side — not lost
	// from the books.
	batch := scriptBatch(5, 1, 20)
	for _, tu := range batch {
		if err := src.Emit(tu); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTo(batchMS)
	lostSides := 0
	for _, tu := range batch {
		for _, term := range []rdf.Term{tu.S, tu.O} {
			id, ok := e.StringServer().LookupEntity(term)
			if !ok {
				t.Fatalf("%v not interned after injection", term)
			}
			if e.Fabric().HomeOf(uint64(id)) == 1 {
				lostSides++
			}
		}
	}
	if lostSides == 0 {
		t.Fatal("script homes nothing on the crashed node; the assertion below would be vacuous")
	}
	stats, _, err := e.InjectionStats(StreamName)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != lostSides {
		t.Errorf("InjectStats.Dropped = %d, want the %d tuple sides homed on the crashed node", stats.Dropped, lostSides)
	}
	if n := reg.Counter("stream_dispatch_dropped_total").Value(); n != int64(lostSides) {
		t.Errorf("stream_dispatch_dropped_total = %d, want %d", n, lostSides)
	}

	plan.Restart(1)
	if _, err := e.Query(q); err != nil {
		t.Errorf("query after restart failed: %v", err)
	}
}

// TestCrashedNodeFailsContinuousWindowsWithoutPanic: fabric crashes around a
// continuous query never panic the engine. Windows over data that was stable
// before the crash still fire and fail observably (their remote fetches hit
// the dead node); data whose replica shipments are lost while the node is
// down takes vts holds instead — the stable VTS stalls, nothing fires over
// the incomplete prefix, and firing resumes once the node restarts and the
// engine re-ships.
func TestCrashedNodeFailsContinuousWindowsWithoutPanic(t *testing.T) {
	// Delta evaluation would serve the crash-spanning window from cached
	// batch results without touching the dead node; this test asserts the
	// classic full path's observable failure, so pin delta off.
	e, err := core.New(core.Config{Nodes: 2, WorkersPerNode: 2, DeltaMode: core.DeltaModeOff})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	plan := fabric.NewFaultPlan(2)
	e.Fabric().SetFaultPlan(plan)
	src, err := e.RegisterStream(stream.Config{Name: StreamName, BatchInterval: batchMS * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cq, err := e.RegisterContinuous(queryText, nil)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(b int) {
		t.Helper()
		for _, tu := range scriptBatch(5, b, 20) {
			if err := src.Emit(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	emit(1)
	e.AdvanceTo(batchMS)
	emit(2)
	e.AdvanceTo(2 * batchMS) // healthy windows
	healthy := cq.Stats()
	if healthy.Executions == 0 || healthy.FailedExecutions != 0 {
		t.Fatalf("healthy stats = %+v", healthy)
	}

	plan.Crash(1)
	// An empty batch ships nothing, so the stable VTS still advances and the
	// due window (RANGE 300ms: it covers the healthy batches) fires — and
	// must fail observably, not panic, when its fetches hit the dead node.
	e.AdvanceTo(3 * batchMS)
	st := cq.Stats()
	if st.FailedExecutions == 0 {
		t.Errorf("stats = %+v, want a failed execution while node 1 was down", st)
	}

	// A batch with data while the node is down: its replica shipments are
	// lost and held, the stable VTS stalls, and no window fires over the
	// incomplete prefix.
	emit(4)
	e.AdvanceTo(4 * batchMS)
	held := cq.Stats()
	if held.Executions != st.Executions {
		t.Errorf("fired %d windows over an incomplete replica prefix",
			held.Executions-st.Executions)
	}
	if e.Coordinator().Unshipped(0) == 0 {
		t.Error("no vts hold for the lost replica shipments")
	}

	// Restart: the next tick re-ships, clears the holds, and firing resumes.
	plan.Restart(1)
	emit(5)
	e.AdvanceTo(5 * batchMS)
	if after := cq.Stats(); after.Executions <= held.Executions {
		t.Errorf("no executions after restart: %+v", after)
	}
	if n := e.Coordinator().Unshipped(0); n != 0 {
		t.Errorf("%d vts holds remain after restart and re-ship", n)
	}
}
