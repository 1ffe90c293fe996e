package member

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// peers is a scripted probe: a peer answers unless the test has cut it off.
// It counts the probes each peer received.
type peers struct {
	mu     sync.Mutex
	down   map[fabric.NodeID]bool
	probes map[fabric.NodeID]int
}

var errUnreachable = errors.New("unreachable")

func newPeers() *peers {
	return &peers{down: map[fabric.NodeID]bool{}, probes: map[fabric.NodeID]int{}}
}

func (p *peers) probe(to fabric.NodeID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probes[to]++
	if p.down[to] {
		return errUnreachable
	}
	return nil
}

// cut sets whether each of ns is unreachable.
func (p *peers) cut(down bool, ns ...fabric.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range ns {
		p.down[n] = down
	}
}

// probed returns how many probes n has received.
func (p *peers) probed(n fabric.NodeID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.probes[n]
}

// detector returns the detector of node self over p, tracking nodes 0..n-1.
func detector(self fabric.NodeID, n int, intervalMS int64, p *peers, r *obs.Registry) *Detector {
	d := New(self, intervalMS, p.probe, r)
	for i := 0; i < n; i++ {
		d.Add(fabric.NodeID(i))
	}
	return d
}

// states returns the states of nodes 0..n-1.
func states(d *Detector, n int) []State {
	out := make([]State, n)
	for i := range out {
		out[i] = d.State(fabric.NodeID(i))
	}
	return out
}

// run ticks d at every interval in (from, to] and returns the transitions.
func run(d *Detector, from, to, intervalMS int64) []Transition {
	var trans []Transition
	for now := from + intervalMS; now <= to; now += intervalMS {
		trans = append(trans, d.Tick(now)...)
	}
	return trans
}

// New with no interval probes every defaultIntervalMS, first one interval
// after time zero.
func TestDefaults(t *testing.T) {
	p := newPeers()
	d := detector(0, 2, 0, p, nil)
	d.Tick(defaultIntervalMS - 1)
	if got := p.probed(1); got != 0 {
		t.Fatalf("probes before the first interval = %d, want 0", got)
	}
	d.Tick(defaultIntervalMS)
	if got := p.probed(1); got != 1 {
		t.Fatalf("probes at the first interval = %d, want 1", got)
	}
	if SuspectAfter != 2 || DeadAfter != 3 {
		t.Fatalf("thresholds = %d/%d, want 2/3", SuspectAfter, DeadAfter)
	}
}

func TestFaultFreeSoakNeverSuspects(t *testing.T) {
	r := obs.NewRegistry("member_test")
	d := detector(1, 4, 10, newPeers(), r)
	if trans := run(d, 0, 100_000, 10); len(trans) != 0 {
		t.Fatalf("fault-free soak produced transitions: %v", trans)
	}
	if got := states(d, 4); !reflect.DeepEqual(got, []State{Alive, Alive, Alive, Alive}) {
		t.Fatalf("states = %v, want all alive", got)
	}
	if got := r.Counter("member_probe_rounds_total").Value(); got != 10_000 {
		t.Fatalf("member_probe_rounds_total = %d, want 10000", got)
	}
}

func TestCrashSuspectDeadRejoinSequence(t *testing.T) {
	p := newPeers()
	d := detector(0, 3, 100, p, nil)
	var trans []Transition
	trans = append(trans, run(d, 0, 1000, 100)...) // 10 healthy rounds
	p.cut(true, 2)
	// Round at 1100: one miss, still alive.
	trans = append(trans, d.Tick(1150)...)
	if got := d.State(2); got != Alive {
		t.Fatalf("state after 1 miss = %v, want alive", got)
	}
	// Round at 1200: SuspectAfter misses.
	trans = append(trans, d.Tick(1200)...)
	if got := d.State(2); got != Suspect {
		t.Fatalf("state after 2 misses = %v, want suspect", got)
	}
	// No round is due before 1300.
	trans = append(trans, d.Tick(1299)...)
	if got := d.State(2); got != Suspect {
		t.Fatalf("state before the third round = %v, want suspect", got)
	}
	// Round at 1300: DeadAfter misses.
	trans = append(trans, d.Tick(1300)...)
	if got := d.State(2); got != Dead {
		t.Fatalf("state after 3 misses = %v, want dead", got)
	}
	// Restart: the next answered probe is a rejoin.
	p.cut(false, 2)
	trans = append(trans, d.Tick(1400)...)
	if got := d.State(2); got != Alive {
		t.Fatalf("state after restart = %v, want alive", got)
	}
	want := []Transition{{2, Alive, Suspect}, {2, Suspect, Dead}, {2, Dead, Alive}}
	if !reflect.DeepEqual(trans, want) {
		t.Errorf("transitions = %v, want %v", trans, want)
	}
	if d.State(1) != Alive {
		t.Errorf("healthy peer = %v, want alive", d.State(1))
	}
}

func TestSuspicionRetracted(t *testing.T) {
	p := newPeers()
	r := obs.NewRegistry("member_test")
	d := detector(0, 3, 100, p, r)
	p.cut(true, 1)
	trans := run(d, 0, 200, 100)
	if d.State(1) != Suspect {
		t.Fatalf("state = %v, want suspect", d.State(1))
	}
	p.cut(false, 1)
	trans = append(trans, d.Tick(300)...)
	if d.State(1) != Alive {
		t.Fatalf("state = %v, want alive", d.State(1))
	}
	want := []Transition{{1, Alive, Suspect}, {1, Suspect, Alive}}
	if !reflect.DeepEqual(trans, want) {
		t.Errorf("transitions = %v, want %v", trans, want)
	}
	if got := r.Counter("member_rejoins_total").Value(); got != 0 {
		t.Errorf("member_rejoins_total = %d, want 0: a retracted suspicion is not a rejoin", got)
	}
}

// From the majority side of a partition {0,1} | {2}, node 2 is declared
// dead while 1 (and 0 itself) stay alive; healing the partition brings 2
// back.
func TestPartitionMinorityDeclaredDead(t *testing.T) {
	p := newPeers()
	d := detector(0, 3, 100, p, nil)
	p.cut(true, 2)
	run(d, 0, 500, 100)
	if got := states(d, 3); !reflect.DeepEqual(got, []State{Alive, Alive, Dead}) {
		t.Errorf("states = %v, want [alive alive dead]", got)
	}
	p.cut(false, 2)
	d.Tick(600)
	if got := d.State(2); got != Alive {
		t.Errorf("state after heal = %v, want alive", got)
	}
}

// A daemon cut off from every peer declares each of them dead, never
// itself (it never probes itself), and sees them return when the cut heals.
func TestIsolatedDaemonOutlivesItsPeers(t *testing.T) {
	p := newPeers()
	r := obs.NewRegistry("member_test")
	d := detector(2, 3, 100, p, r)
	p.cut(true, 0, 1)
	trans := run(d, 0, 100*DeadAfter, 100)
	if got := states(d, 3); !reflect.DeepEqual(got, []State{Dead, Dead, Alive}) {
		t.Fatalf("states = %v, want [dead dead alive]", got)
	}
	p.cut(false, 0, 1)
	trans = append(trans, d.Tick(100*(DeadAfter+1))...)
	if got := states(d, 3); !reflect.DeepEqual(got, []State{Alive, Alive, Alive}) {
		t.Fatalf("states after heal = %v, want all alive", got)
	}
	if got := p.probed(2); got != 0 {
		t.Fatalf("the daemon probed itself %d times", got)
	}
	want := []Transition{
		{0, Alive, Suspect}, {1, Alive, Suspect},
		{0, Suspect, Dead}, {1, Suspect, Dead},
		{0, Dead, Alive}, {1, Dead, Alive},
	}
	if !reflect.DeepEqual(trans, want) {
		t.Errorf("transitions = %v, want %v", trans, want)
	}
	if got := r.Counter("member_rejoins_total").Value(); got != 2 {
		t.Errorf("member_rejoins_total = %d, want 2", got)
	}
}

func TestDeterministicTransitions(t *testing.T) {
	script := func() []Transition {
		p := newPeers()
		d := detector(0, 4, 50, p, nil)
		var trans []Transition
		for now := int64(0); now <= 2000; now += 25 {
			switch now {
			case 500:
				p.cut(true, 3)
			case 1200:
				p.cut(false, 3)
			case 1500:
				p.cut(true, 1)
			}
			trans = append(trans, d.Tick(now)...)
		}
		return trans
	}
	a, b := script(), script()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two scripted runs diverged:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no transitions observed")
	}
}

func TestSingleNodeClusterInert(t *testing.T) {
	p := newPeers()
	p.cut(true, 0)
	r := obs.NewRegistry("member_test")
	d := detector(0, 1, 10, p, r)
	run(d, 0, 10_000, 10)
	if d.State(0) != Alive {
		t.Errorf("single node state = %v, want alive (no peer to observe death)", d.State(0))
	}
	if got := p.probed(0); got != 0 {
		t.Errorf("a single node probed itself %d times", got)
	}
	if got := r.Counter("member_probe_rounds_total").Value(); got != 0 {
		t.Errorf("member_probe_rounds_total = %d, want 0", got)
	}
}

func TestConcurrentStateReads(t *testing.T) {
	p := newPeers()
	d := detector(0, 4, 1, p, obs.NewRegistry("member_test"))
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
					_ = d.State(7)
				}
			}
		}()
	}
	for now := int64(0); now < 500; now++ {
		if now == 100 {
			p.cut(true, 2)
		}
		if now == 300 {
			p.cut(false, 2)
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
	if Alive.String() != "alive" || Suspect.String() != "suspect" || Dead.String() != "dead" || Unknown.String() != "unknown" {
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
	p := newPeers()
	r := obs.NewRegistry("member_test")
	d := New(0, 10, p.probe, r)
	d.Add(0)
	d.Tick(100)
	d.Add(2)
	p.cut(true, 3)
	run(d, 100, 1000, 10)
	want := []State{Alive, Unknown, Alive}
	if got := states(d, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("states = %v, want %v", got, want)
	}
	if d.State(3) != Unknown || d.State(1000) != Unknown {
		t.Fatal("untracked nodes must read Unknown")
	}
	if p.probed(1) != 0 || p.probed(3) != 0 {
		t.Fatalf("untracked nodes probed: 1 ×%d, 3 ×%d", p.probed(1), p.probed(3))
	}
	if n := r.Counter("member_deaths_total").Value(); n != 0 {
		t.Fatalf("member_deaths_total = %d, want 0", n)
	}
}

// A peer whose probe never returns delays the next round, not a State read;
// and a Tick that comes many intervals late runs one round, probing each
// peer once.
func TestBlockingProbeDoesNotDelayStateOrReplayRounds(t *testing.T) {
	p := newPeers()
	release := make(chan struct{})
	entered := make(chan struct{})
	var first sync.Once
	probe := func(to fabric.NodeID) error {
		if to == 2 {
			first.Do(func() { close(entered) })
			<-release
		}
		return p.probe(to)
	}
	const iv = 10
	d := New(0, iv, probe, nil)
	for n := fabric.NodeID(0); n < 3; n++ {
		d.Add(n)
	}
	ticked := make(chan []Transition)
	go func() { ticked <- d.Tick(iv) }()
	<-entered

	read := make(chan State)
	go func() { read <- d.State(2) }()
	select {
	case s := <-read:
		if s != Alive {
			t.Errorf("State(2) mid-round = %v, want alive", s)
		}
	case <-time.After(time.Second):
		t.Fatal("State blocked behind a probe in flight")
	}
	if trans := d.Tick(2 * iv); trans != nil {
		t.Errorf("a Tick during a round in flight made %v", trans)
	}
	close(release)
	<-ticked

	before := []int{p.probed(0), p.probed(1), p.probed(2)}
	d.Tick(1000 * iv)
	for n, was := range before {
		got := p.probed(fabric.NodeID(n)) - was
		want := 1
		if n == 0 {
			want = 0
		}
		if got != want {
			t.Errorf("a tick 1000 intervals late probed node %d %d times, want %d", n, got, want)
		}
	}
}
