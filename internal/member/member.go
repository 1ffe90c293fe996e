// Package member is one daemon's failure detector (internal/cluster is its
// one user). A Detector runs inside the daemon it names as self and probes
// every peer it tracks (the owner adds each one), never itself: a peer that
// misses SuspectAfter consecutive probe rounds is Suspect, one that misses
// DeadAfter is Dead, and the first probe it answers makes it Alive again.
//
// Rounds are driven by the clock passed to Tick, not wall time, and a Tick
// runs at most one round however late it comes, so a probe that answers the
// same way produces the identical transition sequence every time, and a run
// whose probes all succeed can never declare a peer dead. Probes run with no
// lock held: a peer that never answers delays the next round, never a State
// read.
package member

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// The transition thresholds, in consecutive missed probe rounds.
const (
	SuspectAfter = 2
	DeadAfter    = 3
)

// defaultIntervalMS is the probe period New uses when given none: one
// mini-batch at the paper's default batching interval.
const defaultIntervalMS = 100

// State is a node's membership state as seen by the detector.
type State int

const (
	// Alive: the node answered a probe within the last SuspectAfter rounds.
	Alive State = iota
	// Suspect: the node missed at least SuspectAfter consecutive rounds but
	// is not yet declared dead. Suspect nodes still receive work.
	Suspect
	// Dead: the node missed at least DeadAfter consecutive rounds.
	Dead
	// Unknown: the detector does not track the node (it was never added).
	Unknown
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Transition is one state change a probe round made.
type Transition struct {
	Node     fabric.NodeID
	From, To State
}

// Detector tracks the liveness of one daemon's peers. All methods are safe
// for concurrent use; the owner calls Tick from its heartbeat loop.
type Detector struct {
	self       fabric.NodeID
	intervalMS int64
	probe      func(to fabric.NodeID) error

	mu      sync.Mutex
	states  []State // indexed by node; Unknown where not tracked
	missed  []int   // consecutive missed probe rounds per node
	next    int64   // logical ms at which the next round is due
	probing bool    // a round's probes are in flight (d.mu is not held)

	// counters (nil-safe via obs).
	cSuspects *obs.Counter
	cDeaths   *obs.Counter
	cRejoins  *obs.Counter
	cRounds   *obs.Counter
}

// New creates the detector of node self, tracking no node until Add. Each
// round calls probe once per tracked peer; nil means the peer answered.
// intervalMS <= 0 means defaultIntervalMS. r may be nil (no metrics).
func New(self fabric.NodeID, intervalMS int64, probe func(to fabric.NodeID) error, r *obs.Registry) *Detector {
	if intervalMS <= 0 {
		intervalMS = defaultIntervalMS
	}
	d := &Detector{
		self:       self,
		intervalMS: intervalMS,
		probe:      probe,
		next:       intervalMS,
		cSuspects:  r.Counter("member_suspects_total"),
		cDeaths:    r.Counter("member_deaths_total"),
		cRejoins:   r.Counter("member_rejoins_total"),
		cRounds:    r.Counter("member_probe_rounds_total"),
	}
	r.GaugeFunc("member_alive_nodes", func() int64 { return d.count(Alive, Suspect) })
	r.GaugeFunc("member_dead_nodes", func() int64 { return d.count(Dead) })
	return d
}

// count returns how many tracked nodes are in one of the given states.
func (d *Detector) count(in ...State) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var k int64
	for _, s := range d.states {
		if slices.Contains(in, s) {
			k++
		}
	}
	return k
}

// Add starts tracking node n as Alive. Adding a tracked node is a no-op.
func (d *Detector) Add(n fabric.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.states) <= int(n) {
		d.states = append(d.states, Unknown)
		d.missed = append(d.missed, 0)
	}
	if d.states[n] == Unknown {
		d.states[n] = Alive
	}
}

// State returns node n's current membership state (Unknown if untracked).
func (d *Detector) State(n fabric.NodeID) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(n) >= len(d.states) {
		return Unknown
	}
	return d.states[n]
}

// Tick advances the detector to logical time now (milliseconds). When a
// round is due it probes every tracked peer once, then applies the results
// and returns the transitions they made, in node order. However many
// intervals have passed since the last round, it runs one; a Tick that finds
// a round still probing returns nil. The first round is due one interval
// after time zero.
//
// A daemon with no tracked peer never probes: there is nothing to observe.
func (d *Detector) Tick(now int64) []Transition {
	d.mu.Lock()
	if d.probing || now < d.next {
		d.mu.Unlock()
		return nil
	}
	var peers []fabric.NodeID
	for n, s := range d.states {
		if s != Unknown && fabric.NodeID(n) != d.self {
			peers = append(peers, fabric.NodeID(n))
		}
	}
	if len(peers) == 0 {
		d.mu.Unlock()
		return nil
	}
	d.next = now - now%d.intervalMS + d.intervalMS
	d.probing = true
	d.mu.Unlock()

	answered := make([]bool, len(peers))
	for i, p := range peers {
		answered[i] = d.probe(p) == nil
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	d.probing = false
	d.cRounds.Inc()
	var trans []Transition
	for i, p := range peers {
		prev := d.states[p]
		to := prev
		if answered[i] {
			d.missed[p] = 0
			to = Alive
		} else {
			d.missed[p]++
			switch {
			case d.missed[p] >= DeadAfter:
				to = Dead
			case d.missed[p] >= SuspectAfter && prev == Alive:
				to = Suspect
			}
		}
		if to == prev {
			continue
		}
		d.states[p] = to
		trans = append(trans, Transition{p, prev, to})
		switch {
		case to == Suspect:
			d.cSuspects.Inc()
		case to == Dead:
			d.cDeaths.Inc()
		case prev == Dead:
			d.cRejoins.Inc()
		}
	}
	return trans
}
