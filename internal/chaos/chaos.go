// Package chaos is a crash/recovery harness for §5 fault tolerance: it
// drives a registered continuous query over a scripted, seed-deterministic
// stream through a one-member cluster (cluster.Node without a transport,
// the standalone daemon's durability), kills the node mid-run — right after
// an ADVANCE or between acked EMITs and the ADVANCE that seals them — resumes
// it from its data directory, and records every window delivery so tests
// can assert the paper's recovery contract:
//
//	(a) recovery replays the op log: the stream, the continuous query, and
//	    every acked EMIT, LOAD and ADVANCE, so nothing acked is lost;
//	(b) the post-recovery result stream is a superset of the fault-free
//	    run's, with duplicates only at window granularity — deduplicating
//	    by the window timestamp makes the two runs identical
//	    (at-least-once, §5);
//	(c) prefix integrity: no window is delivered before its VTS prefix is
//	    stable (§4.3).
//
// Everything is deterministic from Config.Seed, so a failing run is
// reproducible by rerunning with the same configuration.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/rdf"
)

// batchMS is the scripted stream's mini-batch interval in milliseconds.
const batchMS = 100

// StreamName is the scripted stream's IRI.
const StreamName = "S"

// QueryName is the registered continuous query's name.
const QueryName = "QC"

// queryText is the continuous query every run registers: all po-edges in a
// 3-batch sliding window, stepping once per batch.
const queryText = `
REGISTER QUERY QC AS
SELECT ?X ?Y FROM S [RANGE 300ms STEP 100ms]
WHERE { GRAPH S { ?X po ?Y } }`

// Config scripts one chaos run.
type Config struct {
	// Seed drives the scripted stream.
	Seed int64
	// Nodes is the engine's partition count (default 2).
	Nodes int
	// Batches is the stream length in mini-batches (default 8).
	Batches int
	// TuplesPerBatch is the scripted density (default 6; must stay < 99 so
	// timestamps fit inside one batch interval).
	TuplesPerBatch int
	// KillAtBatch kills and resumes the node after this batch's ADVANCE
	// (0 = fault-free run).
	KillAtBatch int
	// midBatch moves the kill before that ADVANCE: batch KillAtBatch's EMITs
	// are acked and not yet sealed into a batch. The resumed node is sent
	// the last EMIT again under its id, as a client whose ack was lost
	// retries it.
	midBatch bool
	// Dir is the node's data directory (required).
	Dir string
	// Flow is the engine's overload-protection config, applied identically
	// to the first life, the recovered life, and the fault-free twin so
	// admission bounds survive recovery.
	Flow core.FlowConfig
	// OverEmitFactor multiplies the scripted density past TuplesPerBatch;
	// with Flow.MaxPending below the inflated rate, emits shed
	// deterministically (counted in Report.Shed, never fatal). 0 or 1
	// means no overload.
	OverEmitFactor int
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 2
	}
	if c.Batches <= 0 {
		c.Batches = 8
	}
	if c.TuplesPerBatch <= 0 {
		c.TuplesPerBatch = 6
	}
	return c
}

// Firing is one observed continuous-query delivery.
type Firing struct {
	At    rdf.Timestamp
	Rows  []string // sorted
	Ready bool     // prefix integrity: the window's VTS prefix was stable
}

// Report is the outcome of one run.
type Report struct {
	// Firings holds every delivery, sorted by (At, rows) — concurrent
	// deliveries of distinct windows have no inherent order.
	Firings []Firing
	// Recovered reports whether the run went through a kill+recover cycle.
	Recovered bool
	// Shed counts emits refused by admission control (OverEmitFactor runs).
	Shed int64
}

// Dedup collapses the report to one row set per window boundary. It errors
// if two deliveries of the same window disagree — at-least-once permits
// repeats, never divergent repeats.
func (r *Report) Dedup() (map[rdf.Timestamp][]string, error) {
	out := map[rdf.Timestamp][]string{}
	for _, f := range r.Firings {
		if prev, ok := out[f.At]; ok {
			if fmt.Sprint(prev) != fmt.Sprint(f.Rows) {
				return nil, fmt.Errorf("chaos: window %d delivered twice with different rows:\n%v\nvs\n%v", f.At, prev, f.Rows)
			}
			continue
		}
		out[f.At] = f.Rows
	}
	return out, nil
}

// collector accumulates firings; the prefix-integrity probe needs the query
// handle, which does not exist yet while cluster.Resume replays (recovered
// windows fire inside Resume). Those firings are checked as soon as the
// handle lands — window stability is monotone, so a late true check is
// still evidence and a late false check is a hard violation.
type collector struct {
	mu      sync.Mutex
	cq      *core.ContinuousQuery
	firings []Firing
	pending []int // indices awaiting their Ready check
}

func (c *collector) cb(r *core.Result, f core.FireInfo) {
	rows := append([]string(nil), r.Strings()...)
	sort.Strings(rows)
	c.mu.Lock()
	defer c.mu.Unlock()
	fi := Firing{At: f.At, Rows: rows}
	if c.cq != nil {
		fi.Ready = c.cq.ReadyAt(f.At)
	} else {
		c.pending = append(c.pending, len(c.firings))
	}
	c.firings = append(c.firings, fi)
}

// detach drops the killed life's query handle so firings during recovery
// queue as pending instead of probing the dead engine's coordinator.
func (c *collector) detach() {
	c.mu.Lock()
	c.cq = nil
	c.mu.Unlock()
}

// attach hands the collector its query handle and resolves pending checks.
func (c *collector) attach(cq *core.ContinuousQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cq = cq
	for _, i := range c.pending {
		c.firings[i].Ready = cq.ReadyAt(c.firings[i].At)
	}
	c.pending = nil
}

// scriptSubjects is how many distinct subjects (u0..) the script draws from.
const scriptSubjects = 24

// scriptBatch deterministically generates batch b's tuples. Each batch seeds
// its own RNG so the script is identical whether or not earlier batches were
// generated in this process lifetime (the harness regenerates post-kill
// batches in the second life).
func scriptBatch(seed int64, b, n int) []rdf.Tuple {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(b)))
	base := rdf.Timestamp((b - 1) * batchMS)
	out := make([]rdf.Tuple, 0, n)
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("u%d", rng.Intn(scriptSubjects))
		o := fmt.Sprintf("t%d", rng.Intn(48))
		out = append(out, rdf.Tuple{Triple: rdf.T(s, "po", o), TS: base + rdf.Timestamp(1+i)})
	}
	return out
}

// life is one incarnation of the node under test: an engine and the
// one-member cluster that logs every op it applies.
type life struct {
	eng  *core.Engine
	node *cluster.Node
}

// open starts a life on cfg.Dir: a fresh one, or, when resume is set, one
// that replays the op log an earlier life left there. Its firings of the
// scripted query go to col.
func open(cfg Config, col *collector, resume bool) (*life, error) {
	e, err := core.New(core.Config{
		Nodes:          cfg.Nodes,
		WorkersPerNode: 2,
		Flow:           cfg.Flow,
		// Every delta-evaluated firing under chaos re-runs the full recompute
		// and panics on divergence — the harness doubles as the delta≡full
		// equivalence gate.
		DeltaCrosscheck: true,
	})
	if err != nil {
		return nil, err
	}
	ccfg := cluster.Config{
		Engine:   e,
		SelfAddr: "chaos",
		DataDir:  cfg.Dir,
		// A kill here ends a node, not a machine: every appended op is in
		// the page cache either way.
		NoSync: true,
		OnFire: func(name string, r *core.Result, f core.FireInfo) {
			if name == QueryName {
				col.cb(r, f)
			}
		},
	}
	start := cluster.NewSeed
	if resume {
		start = cluster.Resume
	}
	n, err := start(ccfg)
	if err != nil {
		e.Close()
		return nil, err
	}
	return &life{eng: e, node: n}, nil
}

// attach hands col the life's query handle once it is registered.
func (l *life) attach(col *collector) {
	for _, cq := range l.eng.ContinuousQueries() {
		if cq.Name == QueryName {
			col.attach(cq)
		}
	}
}

// kill ends the life as a crash does: nothing is flushed or checkpointed,
// and what the op log holds is what the next life gets.
func (l *life) kill(col *collector) {
	col.detach()
	l.node.Close()
	l.eng.Close()
}

// emit sends one tuple as its own EMIT under id, so admission decides per
// tuple as a client's single-tuple EMITs do.
func (l *life) emit(tu rdf.Tuple, id string) error {
	_, err := l.node.Forward("EMIT", []string{StreamName, "id=" + id}, tu.String())
	return err
}

// advance moves the clock to batch b's boundary.
func (l *life) advance(b int) error {
	_, err := l.node.Forward("ADVANCE", []string{strconv.Itoa(b * batchMS)}, "")
	return err
}

// Run executes one scripted chaos run and returns its report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: Config.Dir is required")
	}
	density := cfg.TuplesPerBatch
	if cfg.OverEmitFactor > 1 {
		density *= cfg.OverEmitFactor
	}
	if density >= batchMS-1 {
		return nil, fmt.Errorf("chaos: %d tuples per batch must be < %d", density, batchMS-1)
	}
	col := &collector{}
	rep := &Report{}
	l, err := open(cfg, col, false)
	if err != nil {
		return nil, err
	}
	defer func() { l.kill(col) }() // a second kill does nothing
	if _, err := l.node.Forward("STREAM", []string{StreamName, strconv.Itoa(batchMS)}, ""); err != nil {
		return nil, err
	}
	if _, err := l.node.Forward("REGISTER", nil, queryText); err != nil {
		return nil, err
	}
	l.attach(col)
	// crash kills the life and resumes its successor from the op log.
	crash := func() error {
		l.kill(col)
		next, err := open(cfg, col, true)
		if err != nil {
			return err
		}
		l = next
		l.attach(col)
		rep.Recovered = true
		return nil
	}
	for b := 1; b <= cfg.Batches; b++ {
		var last rdf.Tuple
		var lastID string
		for i, tu := range scriptBatch(cfg.Seed, b, density) {
			last, lastID = tu, fmt.Sprintf("b%d-%d", b, i)
			err := l.emit(tu, lastID)
			switch {
			case err == nil:
			case errors.Is(err, flow.ErrShed):
				// Admission control refusing over-emitted tuples is the
				// scripted overload working, not a harness failure.
				rep.Shed++
			default:
				return nil, err
			}
		}
		if b == cfg.KillAtBatch && cfg.midBatch {
			if err := crash(); err != nil {
				return nil, err
			}
			// The retry of an EMIT the first life acked (or shed) is
			// answered from the replicated dedup table, not applied again.
			if err := l.emit(last, lastID); err != nil && !errors.Is(err, flow.ErrShed) {
				return nil, err
			}
		}
		if err := l.advance(b); err != nil {
			return nil, err
		}
		if b == cfg.KillAtBatch && !cfg.midBatch {
			if err := crash(); err != nil {
				return nil, err
			}
		}
	}
	// One empty boundary past the script flushes the final window.
	if err := l.advance(cfg.Batches + 1); err != nil {
		return nil, err
	}
	l.kill(col) // every firing is delivered once the engine is closed

	col.mu.Lock()
	rep.Firings = append(rep.Firings, col.firings...)
	col.mu.Unlock()
	sort.Slice(rep.Firings, func(i, j int) bool {
		if rep.Firings[i].At != rep.Firings[j].At {
			return rep.Firings[i].At < rep.Firings[j].At
		}
		return fmt.Sprint(rep.Firings[i].Rows) < fmt.Sprint(rep.Firings[j].Rows)
	})
	return rep, nil
}
