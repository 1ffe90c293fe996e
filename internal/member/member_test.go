package member

import (
	"errors"
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

// pairs is a scripted Prober: a probe from->to succeeds iff the ordered pair
// is in the reachable set, which the test edits between ticks.
type pairs struct {
	mu    sync.Mutex
	nodes int
	ok    map[[2]fabric.NodeID]bool
}

var errUnreachable = errors.New("unreachable")

// mesh returns a Prober over n nodes where every pair is reachable.
func mesh(n int) *pairs {
	p := &pairs{nodes: n, ok: make(map[[2]fabric.NodeID]bool)}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			p.ok[[2]fabric.NodeID{fabric.NodeID(a), fabric.NodeID(b)}] = true
		}
	}
	return p
}

func (p *pairs) Heartbeat(from, to fabric.NodeID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ok[[2]fabric.NodeID{from, to}] {
		return nil
	}
	return errUnreachable
}

// link sets whether n and each of others reach each other, both ways.
func (p *pairs) link(up bool, n fabric.NodeID, others ...fabric.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range others {
		p.ok[[2]fabric.NodeID{n, m}] = up
		p.ok[[2]fabric.NodeID{m, n}] = up
	}
}

// crash cuts n off from every node; restart links it back.
func (p *pairs) crash(n fabric.NodeID)   { p.link(false, n, p.all()...) }
func (p *pairs) restart(n fabric.NodeID) { p.link(true, n, p.all()...) }

func (p *pairs) all() []fabric.NodeID {
	out := make([]fabric.NodeID, p.nodes)
	for i := range out {
		out[i] = fabric.NodeID(i)
	}
	return out
}

// observe is a global-observer detector tracking every node of p.
func observe(p *pairs, cfg Config, hooks Hooks, r *obs.Registry) *Detector {
	d := NewOver(p, cfg, hooks, r)
	for _, n := range p.all() {
		d.Add(n)
	}
	return d
}

func TestDefaults(t *testing.T) {
	p := mesh(3)
	d := observe(p, Config{}, Hooks{}, nil)
	cfg := d.Config()
	if cfg.HeartbeatIntervalMS != 100 || cfg.SuspectAfter != 2 || cfg.DeadAfter != 5 {
		t.Errorf("defaults = %+v", cfg)
	}
	// DeadAfter below SuspectAfter is clamped up.
	d2 := observe(p, Config{SuspectAfter: 4, DeadAfter: 2}, Hooks{}, nil)
	if d2.Config().DeadAfter != 4 {
		t.Errorf("DeadAfter = %d, want clamped to 4", d2.Config().DeadAfter)
	}
}

func TestFaultFreeSoakNeverSuspects(t *testing.T) {
	var mu sync.Mutex
	var events []event
	d := observe(mesh(4), Config{HeartbeatIntervalMS: 10, SuspectAfter: 1, DeadAfter: 2}, recordingHooks(&events, &mu), obs.NewRegistry("member_test"))
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
	p := mesh(3)
	var mu sync.Mutex
	var events []event
	cfg := Config{HeartbeatIntervalMS: 100, SuspectAfter: 2, DeadAfter: 4}
	d := observe(p, cfg, recordingHooks(&events, &mu), nil)

	d.Tick(1000) // 10 healthy rounds
	p.crash(2)
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
	p.restart(2)
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
	p := mesh(3)
	var mu sync.Mutex
	var events []event
	d := observe(p, Config{HeartbeatIntervalMS: 100, SuspectAfter: 1, DeadAfter: 10}, recordingHooks(&events, &mu), nil)
	p.crash(1)
	d.Tick(100)
	if d.State(1) != Suspect {
		t.Fatalf("state = %v, want suspect", d.State(1))
	}
	p.restart(1)
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
	p := mesh(3)
	d := observe(p, Config{HeartbeatIntervalMS: 100, SuspectAfter: 1, DeadAfter: 2}, Hooks{}, nil)
	p.link(false, 2, 0, 1)
	d.Tick(500)
	if got := d.States(); got[0] != Alive || got[1] != Alive || got[2] != Dead {
		t.Errorf("states = %v, want [alive alive dead]", got)
	}
	p.link(true, 2, 0, 1)
	d.Tick(600)
	if got := d.State(2); got != Alive {
		t.Errorf("state after heal = %v, want alive", got)
	}
}

func TestDeterministicTransitions(t *testing.T) {
	run := func() []event {
		p := mesh(4)
		var mu sync.Mutex
		var events []event
		d := observe(p, Config{HeartbeatIntervalMS: 50, SuspectAfter: 2, DeadAfter: 3}, recordingHooks(&events, &mu), nil)
		for now := int64(0); now <= 2000; now += 25 {
			if now == 500 {
				p.crash(3)
			}
			if now == 1200 {
				p.restart(3)
			}
			if now == 1500 {
				p.crash(1)
			}
			d.Tick(now)
		}
		return events
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two scripted runs diverged:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no transitions observed")
	}
}

func TestSingleNodeClusterInert(t *testing.T) {
	// Nothing answers a probe, not even node 0 itself.
	d := observe(&pairs{nodes: 1}, Config{HeartbeatIntervalMS: 10}, Hooks{}, nil)
	d.Tick(10_000)
	if d.State(0) != Alive {
		t.Errorf("single node state = %v, want alive (no peer to observe death)", d.State(0))
	}
}

func TestConcurrentStateReads(t *testing.T) {
	p := mesh(4)
	d := observe(p, Config{HeartbeatIntervalMS: 1, SuspectAfter: 1, DeadAfter: 2}, Hooks{}, obs.NewRegistry("member_test"))
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
			p.crash(2)
		}
		if now == 300 {
			p.restart(2)
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

// The detector probes exactly the nodes it was given: an untracked node is
// Unknown, never probed and never declared dead, and one tracked node alone
// is a single-node cluster.
func TestUntrackedNodesAreUnknown(t *testing.T) {
	p := mesh(4)
	r := obs.NewRegistry("member_test")
	d := NewOver(p, Config{HeartbeatIntervalMS: 10, SuspectAfter: 1, DeadAfter: 2}, Hooks{}, r)
	d.Add(0)
	d.Tick(100)
	d.Add(2)
	p.crash(3)
	d.Tick(1000)
	want := []State{Alive, Unknown, Alive}
	if got := d.States(); !reflect.DeepEqual(got, want) {
		t.Fatalf("states = %v, want %v", got, want)
	}
	if d.State(3) != Unknown || d.State(1000) != Unknown {
		t.Fatal("untracked nodes must read Unknown")
	}
	if n := r.Counter("member_deaths_total").Value(); n != 0 {
		t.Fatalf("member_deaths_total = %d, want 0", n)
	}
}
