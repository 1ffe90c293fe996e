// Package chaos is a crash/recovery harness for the §5 fault-tolerance
// machinery: it drives a registered continuous query over a scripted,
// seed-deterministic stream, kills the engine mid-run — at checkpoint or
// non-checkpoint boundaries — recovers it from the fault-tolerance
// directory, and records every window delivery so tests can assert the
// paper's recovery contract:
//
//	(a) recovery replays the durable checkpoints and re-registers the
//	    logged continuous queries;
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
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/rdf"
	"repro/internal/stream"
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
	// Nodes is the engine's cluster size (default 2).
	Nodes int
	// Batches is the stream length in mini-batches (default 8).
	Batches int
	// TuplesPerBatch is the scripted density (default 6; must stay < 99 so
	// timestamps fit inside one batch interval).
	TuplesPerBatch int
	// CheckpointEvery is the auto-checkpoint cadence in batches (0 = only
	// the initial empty log; the kill then hits a non-checkpoint boundary).
	CheckpointEvery int
	// KillAtBatch kills and recovers the engine after this batch's boundary
	// (0 = fault-free run).
	KillAtBatch int
	// Dir is the fault-tolerance directory (required).
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
// handle, which does not exist yet while core.Recover replays (recovered
// windows fire inside Recover). Those firings are checked as soon as the
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

// start builds the first life: engine + FT + stream + query.
func start(cfg Config, col *collector) (*core.Engine, *stream.Source, error) {
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
		return nil, nil, err
	}
	if err := e.EnableFT(core.FTConfig{Dir: cfg.Dir, CheckpointEveryBatches: cfg.CheckpointEvery}); err != nil {
		e.Close()
		return nil, nil, err
	}
	src, err := e.RegisterStream(stream.Config{Name: StreamName, BatchInterval: batchMS * time.Millisecond})
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	cq, err := e.RegisterContinuous(queryText, col.cb)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	col.attach(cq)
	return e, src, nil
}

// recoverEngine builds the second life from the FT directory. Recovered
// windows re-fire inside core.Recover (at-least-once); the collector's
// pending machinery covers their prefix checks.
func recoverEngine(cfg Config, col *collector) (*core.Engine, *stream.Source, error) {
	col.detach()
	e, err := core.Recover(
		core.Config{Nodes: cfg.Nodes, WorkersPerNode: 2, Flow: cfg.Flow, DeltaCrosscheck: true},
		core.FTConfig{Dir: cfg.Dir, CheckpointEveryBatches: cfg.CheckpointEvery},
		nil,
		func(name string) func(*core.Result, core.FireInfo) {
			if name == QueryName {
				return col.cb
			}
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	for _, cq := range e.ContinuousQueries() {
		if cq.Name == QueryName {
			col.attach(cq)
		}
	}
	src, ok := e.SourceOf(StreamName)
	if !ok {
		e.Close()
		return nil, nil, fmt.Errorf("chaos: stream %q not recovered", StreamName)
	}
	return e, src, nil
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
	e, src, err := start(cfg, col)
	if err != nil {
		return nil, err
	}
	for b := 1; b <= cfg.Batches; b++ {
		for _, tu := range scriptBatch(cfg.Seed, b, density) {
			err := src.Emit(tu)
			switch {
			case err == nil:
			case errors.Is(err, flow.ErrShed):
				// Admission control refusing over-emitted tuples is the
				// scripted overload working, not a harness failure.
				rep.Shed++
			default:
				e.Close()
				return nil, err
			}
		}
		e.AdvanceTo(rdf.Timestamp(b * batchMS))
		if b == cfg.KillAtBatch {
			e.Kill()
			e, src, err = recoverEngine(cfg, col)
			if err != nil {
				return nil, err
			}
			rep.Recovered = true
		}
	}
	// One empty boundary past the script flushes the final window.
	e.AdvanceTo(rdf.Timestamp((cfg.Batches + 1) * batchMS))
	e.Close()

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
