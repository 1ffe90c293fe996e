package chaos

import (
	"reflect"
	"testing"

	"repro/internal/core"
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
	// (a) at-least-once re-delivery actually happened: the resumed node
	// replayed the logged query and re-fired the windows before the kill.
	if len(faulty.Firings) <= len(got) {
		t.Error("recovery produced no duplicate window deliveries (queries not re-fired?)")
	}
	last := faulty.Firings[len(faulty.Firings)-1]
	if lastBase := faultFree.Firings[len(faultFree.Firings)-1]; last.At != lastBase.At {
		t.Errorf("final window = %d, fault-free run ends at %d", last.At, lastBase.At)
	}
}

// TestChaosKillAtNonCheckpointBoundary kills the node between acked EMITs and
// the ADVANCE that would seal them into a batch, resumes it, re-sends the
// last EMIT under its id, and holds all three §5 invariants: the acked EMITs
// were logged when they were acked, so none is lost, and the retry is not
// applied twice.
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
	cfg.KillAtBatch = 4 // batch 4's EMITs are acked, its ADVANCE not yet sent
	cfg.midBatch = true
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, faultFree, faulty)
}

// TestChaosKillAtCheckpointBoundary kills the node right after an ADVANCE
// sealed every acked EMIT, resumes it, and holds all three §5 invariants.
func TestChaosKillAtCheckpointBoundary(t *testing.T) {
	cfg := Config{Seed: 11, Nodes: 2, Batches: 8, TuplesPerBatch: 5, Dir: t.TempDir()}
	faultFree, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	cfg.KillAtBatch = 4 // immediately after batch 4's ADVANCE
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, faultFree, faulty)
}

// TestChaosDeterminism: the same seed and script produce byte-identical
// reports — including the kill and the recovery — and a different seed
// diverges.
func TestChaosDeterminism(t *testing.T) {
	cfg := Config{
		Seed: 42, Nodes: 2, Batches: 8, TuplesPerBatch: 6,
		KillAtBatch: 5, midBatch: true,
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

// TestChaosKillUnderOverload is the combined crash+overload scenario: the
// stream is over-emitted past its admission bound for the whole run, and the
// node is killed mid-batch, its adaptor's admission buffer full of acked
// EMITs. Recovery must hold the full
// §5 contract against a fault-free twin running under the same overload —
// and admission must shed identically in both runs (overload accounting is
// part of the deterministic state, not collateral of the crash).
func TestChaosKillUnderOverload(t *testing.T) {
	cfg := Config{
		Seed: 19, Nodes: 2, Batches: 8, TuplesPerBatch: 6,
		OverEmitFactor: 4, // 24 emits per batch against MaxPending 8
		Flow:           core.FlowConfig{MaxPending: 8},
		Dir:            t.TempDir(),
	}
	faultFree, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faultFree.Shed == 0 {
		t.Fatal("fault-free twin shed nothing; the overload did not bind")
	}

	cfg.Dir = t.TempDir()
	cfg.KillAtBatch = 5
	cfg.midBatch = true
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Shed != faultFree.Shed {
		t.Errorf("the kill changed admission accounting: shed %d vs fault-free %d", faulty.Shed, faultFree.Shed)
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
	cfg.KillAtBatch = 17
	cfg.midBatch = true
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, faultFree, faulty)
}
