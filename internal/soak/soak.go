// Package soak drives the engine past capacity and measures the degradation
// contract the flow layer promises (DESIGN.md §10): under overload, admitted
// batches keep prefix integrity and bounded latency, shed work is exactly
// accounted, and throughput returns to baseline once pressure is removed.
//
// A run is three phases over one scripted stream and continuous query:
//
//	baseline  — emit at a rate the admission bound absorbs; nothing sheds
//	overload  — emit OverloadFactor× the baseline; the bounded queue sheds
//	            the excess
//	recovery  — back to the baseline rate; sheds stop, throughput returns
//
// Everything is deterministic from the seed, so a contract violation
// reproduces by rerunning the same Config.
package soak

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/stream"
)

// StreamName is the scripted stream's IRI.
const StreamName = "S"

// Config scripts one soak run. Zero values take the noted defaults.
type Config struct {
	// Nodes is the cluster size (default 2).
	Nodes int
	// Seed drives the scripted tuples (default 1).
	Seed int64
	// BatchMS is the stream's mini-batch interval in milliseconds (default 50).
	BatchMS int64
	// TuplesPerBatch is the baseline per-batch rate (default 8).
	TuplesPerBatch int
	// OverloadFactor multiplies the rate during the overload phase (default 4).
	OverloadFactor int
	// MaxPending bounds the stream's admission queue (default 2×TuplesPerBatch).
	MaxPending int
	// Phase lengths in batches (defaults 10 each).
	BaselineBatches int
	OverloadBatches int
	RecoveryBatches int
	// Metrics receives the engine's registry (default a fresh one). Pass
	// obs.Default to fold the run into a process-wide export.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BatchMS <= 0 {
		c.BatchMS = 50
	}
	if c.TuplesPerBatch <= 0 {
		c.TuplesPerBatch = 8
	}
	if c.OverloadFactor <= 1 {
		c.OverloadFactor = 4
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 2 * c.TuplesPerBatch
	}
	if c.BaselineBatches <= 0 {
		c.BaselineBatches = 10
	}
	if c.OverloadBatches <= 0 {
		c.OverloadBatches = 10
	}
	if c.RecoveryBatches <= 0 {
		c.RecoveryBatches = 10
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry("soak")
	}
	return c
}

// Phase summarizes one pressure regime.
type Phase struct {
	Name    string
	Batches int
	// Emitted / Admitted / Shed count tuples offered, accepted, and rejected
	// by admission control (Emitted = Admitted + Shed).
	Emitted  int64
	Admitted int64
	Shed     int64
	// Firings and P99 cover the continuous-query executions triggered while
	// the phase's batches advanced.
	Firings int
	P99     time.Duration
}

// AdmittedPerBatch is the phase's effective ingest throughput.
func (p Phase) AdmittedPerBatch() float64 {
	if p.Batches == 0 {
		return 0
	}
	return float64(p.Admitted) / float64(p.Batches)
}

// Report is the outcome of one soak run.
type Report struct {
	Baseline Phase
	Overload Phase
	Recovery Phase

	// Queue accounting (the stream's admission queue).
	QueueCapacity  int64
	QueueWatermark int64
	QueueShed      int64

	// End-of-run state.
	StableBatch int64 // the stream's stable VTS entry
	FinalBatch  int64 // the last batch the script emitted
	// AllReady is the prefix-integrity verdict: every delivered window's VTS
	// prefix was stable at delivery.
	AllReady bool
}

// String renders the report as a per-phase table plus the queue and
// end-of-run state.
func (r *Report) String() string {
	line := func(p Phase) string {
		return fmt.Sprintf("%-9s %7d %8d %9d %6d %8d %12v",
			p.Name, p.Batches, p.Emitted, p.Admitted, p.Shed, p.Firings, p.P99)
	}
	return fmt.Sprintf(
		"soak overload profile\n"+
			"%-9s %7s %8s %9s %6s %8s %12s\n%s\n%s\n%s\n"+
			"queue: capacity=%d watermark=%d shed=%d\n"+
			"state: stable_batch=%d/%d prefix_integrity=%v",
		"phase", "batches", "emitted", "admitted", "shed", "firings", "p99",
		line(r.Baseline), line(r.Overload), line(r.Recovery),
		r.QueueCapacity, r.QueueWatermark, r.QueueShed,
		r.StableBatch, r.FinalBatch, r.AllReady)
}

// CheckContract verifies the degradation contract and returns the first
// violation (nil = the run degraded exactly as promised).
func (r *Report) CheckContract() error {
	switch {
	case r.Baseline.Shed != 0:
		return fmt.Errorf("soak: baseline shed %d tuples; the bound binds below capacity", r.Baseline.Shed)
	case r.Overload.Shed == 0:
		return fmt.Errorf("soak: overload shed nothing; pressure never exceeded the bound")
	case r.QueueShed != r.Overload.Shed+r.Baseline.Shed+r.Recovery.Shed:
		return fmt.Errorf("soak: queue counters say %d shed, emit errors say %d — shed work not exactly accounted",
			r.QueueShed, r.Overload.Shed+r.Baseline.Shed+r.Recovery.Shed)
	case r.QueueWatermark > r.QueueCapacity:
		return fmt.Errorf("soak: queue watermark %d exceeded capacity %d — the bound did not bind",
			r.QueueWatermark, r.QueueCapacity)
	case r.Recovery.Shed != 0:
		return fmt.Errorf("soak: still shedding %d tuples after pressure dropped", r.Recovery.Shed)
	case r.Recovery.AdmittedPerBatch() < 0.9*r.Baseline.AdmittedPerBatch():
		return fmt.Errorf("soak: recovery throughput %.1f/batch is below 90%% of baseline %.1f/batch",
			r.Recovery.AdmittedPerBatch(), r.Baseline.AdmittedPerBatch())
	// The flush boundary may seal one empty batch past the script, so the
	// stable VTS can legitimately sit at FinalBatch+1.
	case r.StableBatch < r.FinalBatch:
		return fmt.Errorf("soak: stable VTS stalled at batch %d of %d", r.StableBatch, r.FinalBatch)
	case !r.AllReady:
		return fmt.Errorf("soak: a window was delivered before its VTS prefix was stable")
	}
	return nil
}

// Run executes one scripted soak run.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	peak := cfg.TuplesPerBatch * cfg.OverloadFactor
	if int64(peak) >= cfg.BatchMS-1 {
		return nil, fmt.Errorf("soak: peak rate %d must stay below BatchMS-1 = %d (timestamps must fit one batch)",
			peak, cfg.BatchMS-1)
	}
	e, err := core.New(core.Config{
		Nodes:   cfg.Nodes,
		Metrics: cfg.Metrics,
		Flow:    core.FlowConfig{MaxPending: cfg.MaxPending},
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()

	src, err := e.RegisterStream(stream.Config{
		Name:          StreamName,
		BatchInterval: time.Duration(cfg.BatchMS) * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	// Prefix-integrity probe: the callback checks window stability at
	// delivery; the handle lands before the first AdvanceTo can fire.
	var (
		mu       sync.Mutex
		cq       *core.ContinuousQuery
		allReady = true
	)
	queryText := fmt.Sprintf(
		"REGISTER QUERY QS AS\nSELECT ?X ?Y FROM %s [RANGE %dms STEP %dms]\nWHERE { GRAPH %s { ?X po ?Y } }",
		StreamName, cfg.BatchMS, cfg.BatchMS, StreamName)
	registered, err := e.RegisterContinuous(queryText, func(res *core.Result, f core.FireInfo) {
		mu.Lock()
		defer mu.Unlock()
		if cq != nil && !cq.ReadyAt(f.At) {
			allReady = false
		}
	})
	if err != nil {
		return nil, err
	}
	mu.Lock()
	cq = registered
	mu.Unlock()

	rng := rand.New(rand.NewSource(cfg.Seed))
	batch := 0
	runPhase := func(name string, batches, rate int) Phase {
		ph := Phase{Name: name, Batches: batches}
		latsBefore := len(cq.Latencies())
		for i := 0; i < batches; i++ {
			batch++
			base := rdf.Timestamp(int64(batch-1) * cfg.BatchMS)
			for j := 0; j < rate; j++ {
				tu := rdf.Tuple{
					Triple: rdf.T(fmt.Sprintf("u%d", rng.Intn(64)), "po", fmt.Sprintf("t%d", rng.Intn(128))),
					TS:     base + rdf.Timestamp(1+j),
				}
				ph.Emitted++
				switch err := src.Emit(tu); {
				case err == nil:
					ph.Admitted++
				case errors.Is(err, flow.ErrShed):
					ph.Shed++
				default:
					panic(fmt.Sprintf("soak: emit: %v", err))
				}
			}
			e.AdvanceTo(rdf.Timestamp(int64(batch) * cfg.BatchMS))
		}
		lats := cq.Latencies()[latsBefore:]
		ph.Firings = len(lats)
		if len(lats) > 0 {
			sorted := append([]time.Duration(nil), lats...)
			for i := 1; i < len(sorted); i++ { // insertion sort: phases are short
				for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
					sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
				}
			}
			ph.P99 = sorted[len(sorted)*99/100]
		}
		return ph
	}

	rep := &Report{}
	rep.Baseline = runPhase("baseline", cfg.BaselineBatches, cfg.TuplesPerBatch)
	rep.Overload = runPhase("overload", cfg.OverloadBatches, peak)
	rep.Recovery = runPhase("recovery", cfg.RecoveryBatches, cfg.TuplesPerBatch)
	// One empty boundary flushes the final window.
	batch++
	e.AdvanceTo(rdf.Timestamp(int64(batch) * cfg.BatchMS))

	qs := src.QueueStats()
	rep.QueueCapacity = qs.Capacity()
	rep.QueueWatermark = qs.Watermark()
	rep.QueueShed = qs.ShedNewest()
	rep.StableBatch = int64(e.Coordinator().StableVTS()[0])
	rep.FinalBatch = int64(batch - 1)
	mu.Lock()
	rep.AllReady = allReady
	mu.Unlock()
	return rep, nil
}
