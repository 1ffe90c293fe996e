// Package member implements failure detection for a cluster of daemons
// (internal/cluster is its one user). A Detector runs heartbeat rounds over a
// Prober on a clock its owner drives: each round, every node it tracks (the
// owner adds each one) is probed by its live peers, and a node that misses
// enough consecutive rounds transitions Alive → Suspect → Dead. When the node answers again it transitions back to
// Alive and the OnRejoin hook tells the owner to catch it up.
//
// Determinism: rounds are driven by the clock passed to Tick, not wall time,
// so a Prober that answers the same way produces the identical transition
// sequence every time, and a run whose probes all succeed can never declare a
// healthy node dead.
package member

import (
	"fmt"
	"sync"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// State is a node's membership state as seen by the detector.
type State int

const (
	// Alive: the node answered a probe within SuspectAfter rounds.
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

// Config parameterizes the detector. The zero value of each field is
// replaced by its default.
type Config struct {
	// HeartbeatIntervalMS is the logical-time probe period (default 100,
	// one mini-batch at the paper's default batching interval).
	HeartbeatIntervalMS int64
	// SuspectAfter is the number of consecutive missed rounds before a node
	// is marked Suspect (default 2).
	SuspectAfter int
	// DeadAfter is the number of consecutive missed rounds before a node is
	// declared Dead (default 5). Must be >= SuspectAfter.
	DeadAfter int
	// Self (guarded by HasSelf, since rank 0 is a valid self) is the node
	// this detector runs inside: it is always considered reachable (a
	// process observing its own liveness is alive) and so keeps serving as
	// a probe vantage even when every peer is dead — without it, a
	// fully-partitioned daemon would declare itself dead and then have no
	// live prober left to ever see a peer rejoin. A global observer (the
	// package's own tests over a scripted Prober) leaves HasSelf false.
	HasSelf bool
	Self    fabric.NodeID
}

func (c Config) withDefaults() Config {
	if c.HeartbeatIntervalMS <= 0 {
		c.HeartbeatIntervalMS = 100
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 5
	}
	if c.DeadAfter < c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter
	}
	return c
}

// Hooks receives membership transitions. Hooks are called synchronously from
// Tick, in node order, after the detector's own state is updated and its
// lock released — a hook may call back into the detector. Nil hooks are
// skipped.
type Hooks struct {
	// OnSuspect fires on Alive → Suspect.
	OnSuspect func(n fabric.NodeID)
	// OnDead fires on Suspect → Dead (or Alive → Dead when DeadAfter ==
	// SuspectAfter).
	OnDead func(n fabric.NodeID)
	// OnRejoin fires on Dead → Alive: the node answers probes again and must
	// be caught up before it can serve.
	OnRejoin func(n fabric.NodeID)
	// OnAlive fires on Suspect → Alive (a false suspicion retracted).
	OnAlive func(n fabric.NodeID)
}

// Prober is the detector's liveness check: Heartbeat returns nil when node
// from can reach node to. The cluster satisfies it with real socket
// heartbeats, where only probes originating at the local daemon carry
// information (see internal/cluster).
type Prober interface {
	Heartbeat(from, to fabric.NodeID) error
}

// Detector tracks per-node liveness. All methods are safe for concurrent
// use; the owner calls Tick from its heartbeat loop.
type Detector struct {
	cfg   Config
	fab   Prober
	hooks Hooks

	mu        sync.Mutex
	states    []State // indexed by node; Unknown where not tracked
	missed    []int   // consecutive missed probe rounds per node
	tracked   int     // nodes added
	lastRound int64   // logical ms of the last completed probe round; -1 before the first

	// counters (nil-safe via obs).
	cSuspects *obs.Counter
	cDeaths   *obs.Counter
	cRejoins  *obs.Counter
	cRounds   *obs.Counter
}

// NewOver creates a detector over any Prober, tracking no node until Add.
// r may be nil (no metrics).
func NewOver(fab Prober, cfg Config, hooks Hooks, r *obs.Registry) *Detector {
	cfg = cfg.withDefaults()
	d := &Detector{
		cfg:       cfg,
		fab:       fab,
		hooks:     hooks,
		lastRound: -1,
		cSuspects: r.Counter("member_suspects_total"),
		cDeaths:   r.Counter("member_deaths_total"),
		cRejoins:  r.Counter("member_rejoins_total"),
		cRounds:   r.Counter("member_probe_rounds_total"),
	}
	r.GaugeFunc("member_alive_nodes", func() int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		var alive int64
		for _, s := range d.states {
			if s == Alive || s == Suspect {
				alive++
			}
		}
		return alive
	})
	r.GaugeFunc("member_dead_nodes", func() int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		var dead int64
		for _, s := range d.states {
			if s == Dead {
				dead++
			}
		}
		return dead
	})
	return d
}

// Config returns the detector's effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

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
		d.tracked++
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

// States returns a snapshot of all node states.
func (d *Detector) States() []State {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]State, len(d.states))
	copy(out, d.states)
	return out
}

// transition records one state change for hook dispatch after unlock.
type transition struct {
	node fabric.NodeID
	from State
	to   State
}

// Tick advances the detector to logical time `now` (milliseconds), running
// one probe round per elapsed heartbeat interval. Each round, node n is
// considered reachable iff at least one node that is not itself Dead can
// heartbeat it (so a partition minority with no live prober is declared
// dead, while the majority side keeps serving). Transitions fire their hooks
// in node order after the round's state is committed.
//
// A single-node cluster never probes: there is no peer to observe a failure,
// and declaring the only node dead would be useless.
func (d *Detector) Tick(now int64) {
	var trans []transition
	d.mu.Lock()
	if d.tracked < 2 {
		d.mu.Unlock()
		return
	}
	if d.lastRound < 0 {
		// Anchor the first round one interval after time zero.
		d.lastRound = 0
	}
	for d.lastRound+d.cfg.HeartbeatIntervalMS <= now {
		d.lastRound += d.cfg.HeartbeatIntervalMS
		trans = append(trans, d.probeRoundLocked()...)
	}
	d.mu.Unlock()
	for _, tr := range trans {
		d.dispatch(tr)
	}
}

// probeRoundLocked runs one probe round. Caller holds d.mu.
func (d *Detector) probeRoundLocked() []transition {
	d.cRounds.Inc()
	var trans []transition
	for n := range d.states {
		if d.states[n] == Unknown {
			continue
		}
		target := fabric.NodeID(n)
		reachable := d.cfg.HasSelf && target == d.cfg.Self
		for m := 0; !reachable && m < len(d.states); m++ {
			prober := fabric.NodeID(m)
			if m == n || d.states[m] == Dead || d.states[m] == Unknown {
				continue
			}
			if d.fab.Heartbeat(prober, target) == nil {
				reachable = true
				break
			}
		}
		prev := d.states[n]
		if reachable {
			d.missed[n] = 0
			if prev != Alive {
				d.states[n] = Alive
				trans = append(trans, transition{target, prev, Alive})
			}
			continue
		}
		d.missed[n]++
		switch {
		case d.missed[n] >= d.cfg.DeadAfter && prev != Dead:
			d.states[n] = Dead
			trans = append(trans, transition{target, prev, Dead})
		case d.missed[n] >= d.cfg.SuspectAfter && prev == Alive:
			d.states[n] = Suspect
			trans = append(trans, transition{target, prev, Suspect})
		}
	}
	return trans
}

func (d *Detector) dispatch(tr transition) {
	switch tr.to {
	case Suspect:
		d.cSuspects.Inc()
		if d.hooks.OnSuspect != nil {
			d.hooks.OnSuspect(tr.node)
		}
	case Dead:
		d.cDeaths.Inc()
		if d.hooks.OnDead != nil {
			d.hooks.OnDead(tr.node)
		}
	case Alive:
		if tr.from == Dead {
			d.cRejoins.Inc()
			if d.hooks.OnRejoin != nil {
				d.hooks.OnRejoin(tr.node)
			}
		} else {
			if d.hooks.OnAlive != nil {
				d.hooks.OnAlive(tr.node)
			}
		}
	}
}
