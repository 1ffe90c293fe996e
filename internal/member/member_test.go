package member

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/obs"
)

type event struct {
	Kind string
	Node fabric.NodeID
}

func recordingHooks(events *[]event, mu *sync.Mutex) Hooks {
	add := func(kind string) func(fabric.NodeID) {
		return func(n fabric.NodeID) {
			mu.Lock()
			*events = append(*events, event{kind, n})
			mu.Unlock()
		}
	}
	return Hooks{
		OnSuspect: add("suspect"),
		OnDead:    add("dead"),
		OnRejoin:  add("rejoin"),
		OnAlive:   add("alive"),
	}
}

func TestDefaults(t *testing.T) {
	f := fabric.New(fabric.DefaultConfig(3))
	d := NewOver(f, Config{}, Hooks{}, nil)
	cfg := d.Config()
	if cfg.HeartbeatIntervalMS != 100 || cfg.SuspectAfter != 2 || cfg.DeadAfter != 5 {
		t.Errorf("defaults = %+v", cfg)
	}
	// DeadAfter below SuspectAfter is clamped up.
	d2 := NewOver(f, Config{SuspectAfter: 4, DeadAfter: 2}, Hooks{}, nil)
	if d2.Config().DeadAfter != 4 {
		t.Errorf("DeadAfter = %d, want clamped to 4", d2.Config().DeadAfter)
	}
}

func TestFaultFreeSoakNeverSuspects(t *testing.T) {
	f := fabric.New(fabric.DefaultConfig(4))
	// Install a plan with aggressive probabilistic faults (drops, spikes):
	// those are message-level, not liveness-level, and must never trip the
	// detector.
	plan := fabric.NewFaultPlan(7)
	plan.SetDrop(0.9)
	f.SetFaultPlan(plan)
	var mu sync.Mutex
	var events []event
	d := NewOver(f, Config{HeartbeatIntervalMS: 10, SuspectAfter: 1, DeadAfter: 2}, recordingHooks(&events, &mu), obs.NewRegistry("member_test"))
	for now := int64(0); now <= 100_000; now += 10 {
		d.Tick(now)
	}
	if len(events) != 0 {
		t.Fatalf("fault-free soak produced transitions: %v", events)
	}
	for n, s := range d.States() {
		if s != Alive {
			t.Errorf("node %d = %v, want alive", n, s)
		}
	}
}

func TestCrashSuspectDeadRejoinSequence(t *testing.T) {
	f := fabric.New(fabric.DefaultConfig(3))
	plan := fabric.NewFaultPlan(1)
	f.SetFaultPlan(plan)
	var mu sync.Mutex
	var events []event
	cfg := Config{HeartbeatIntervalMS: 100, SuspectAfter: 2, DeadAfter: 4}
	d := NewOver(f, cfg, recordingHooks(&events, &mu), nil)

	d.Tick(1000) // 10 healthy rounds
	plan.Crash(2)
	// Rounds at 1100, 1200 → 2 misses → suspect exactly at 1200.
	d.Tick(1150)
	if got := d.State(2); got != Alive {
		t.Fatalf("state after 1 miss = %v, want alive", got)
	}
	d.Tick(1200)
	if got := d.State(2); got != Suspect {
		t.Fatalf("state after 2 misses = %v, want suspect", got)
	}
	// 4 misses → dead exactly at 1400.
	d.Tick(1399)
	if got := d.State(2); got != Suspect {
		t.Fatalf("state after 3 misses = %v, want suspect", got)
	}
	d.Tick(1400)
	if got := d.State(2); got != Dead {
		t.Fatalf("state after 4 misses = %v, want dead", got)
	}
	// Restart: next round flips straight back to alive (rejoin).
	plan.Restart(2)
	d.Tick(1500)
	if got := d.State(2); got != Alive {
		t.Fatalf("state after restart = %v, want alive", got)
	}
	want := []event{{"suspect", 2}, {"dead", 2}, {"rejoin", 2}}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("events = %v, want %v", events, want)
	}
}

func TestSuspicionRetracted(t *testing.T) {
	f := fabric.New(fabric.DefaultConfig(3))
	plan := fabric.NewFaultPlan(1)
	f.SetFaultPlan(plan)
	var mu sync.Mutex
	var events []event
	d := NewOver(f, Config{HeartbeatIntervalMS: 100, SuspectAfter: 1, DeadAfter: 10}, recordingHooks(&events, &mu), nil)
	plan.Crash(1)
	d.Tick(100)
	if d.State(1) != Suspect {
		t.Fatalf("state = %v, want suspect", d.State(1))
	}
	plan.Restart(1)
	d.Tick(200)
	if d.State(1) != Alive {
		t.Fatalf("state = %v, want alive", d.State(1))
	}
	want := []event{{"suspect", 1}, {"alive", 1}}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("events = %v, want %v", events, want)
	}
}

func TestPartitionMinorityDeclaredDead(t *testing.T) {
	// Nodes {0,1} vs {2}: the minority side has no live prober on the
	// majority side, so node 2 is declared dead while 0 and 1 (which can
	// probe each other) stay alive.
	f := fabric.New(fabric.DefaultConfig(3))
	plan := fabric.NewFaultPlan(1)
	f.SetFaultPlan(plan)
	d := NewOver(f, Config{HeartbeatIntervalMS: 100, SuspectAfter: 1, DeadAfter: 2}, Hooks{}, nil)
	plan.Partition([]fabric.NodeID{0, 1}, []fabric.NodeID{2})
	d.Tick(500)
	if got := d.States(); got[0] != Alive || got[1] != Alive || got[2] != Dead {
		t.Errorf("states = %v, want [alive alive dead]", got)
	}
	plan.Heal()
	d.Tick(600)
	if got := d.State(2); got != Alive {
		t.Errorf("state after heal = %v, want alive", got)
	}
}

func TestDeterministicTransitions(t *testing.T) {
	run := func() []event {
		f := fabric.New(fabric.DefaultConfig(4))
		plan := fabric.NewFaultPlan(99)
		plan.SetDrop(0.3) // probabilistic noise must not perturb the detector
		f.SetFaultPlan(plan)
		var mu sync.Mutex
		var events []event
		d := NewOver(f, Config{HeartbeatIntervalMS: 50, SuspectAfter: 2, DeadAfter: 3}, recordingHooks(&events, &mu), nil)
		for now := int64(0); now <= 2000; now += 25 {
			if now == 500 {
				plan.Crash(3)
			}
			if now == 1200 {
				plan.Restart(3)
			}
			if now == 1500 {
				plan.Crash(1)
			}
			d.Tick(now)
			// Interleave data traffic so the RNG stream advances differently
			// from probe traffic; the detector must not care.
			_ = f.SendAsync(0, 2, 64)
		}
		return events
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two seeded runs diverged:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no transitions observed")
	}
}

func TestSingleNodeClusterInert(t *testing.T) {
	f := fabric.New(fabric.DefaultConfig(1))
	plan := fabric.NewFaultPlan(1)
	f.SetFaultPlan(plan)
	d := NewOver(f, Config{HeartbeatIntervalMS: 10}, Hooks{}, nil)
	plan.Crash(0)
	d.Tick(10_000)
	if d.State(0) != Alive {
		t.Errorf("single node state = %v, want alive (no peer to observe death)", d.State(0))
	}
}

func TestConcurrentStateReads(t *testing.T) {
	f := fabric.New(fabric.DefaultConfig(4))
	plan := fabric.NewFaultPlan(5)
	f.SetFaultPlan(plan)
	d := NewOver(f, Config{HeartbeatIntervalMS: 1, SuspectAfter: 1, DeadAfter: 2}, Hooks{}, obs.NewRegistry("member_test"))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = d.State(2)
					_ = d.States()
				}
			}
		}()
	}
	for now := int64(0); now < 500; now++ {
		if now == 100 {
			plan.Crash(2)
		}
		if now == 300 {
			plan.Restart(2)
		}
		d.Tick(now)
	}
	close(stop)
	wg.Wait()
	if d.State(2) != Alive {
		t.Errorf("final state = %v, want alive", d.State(2))
	}
}

func TestStateString(t *testing.T) {
	if Alive.String() != "alive" || Suspect.String() != "suspect" || Dead.String() != "dead" {
		t.Error("state strings wrong")
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state string wrong")
	}
}
