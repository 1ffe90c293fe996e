// Adaptive execution-mode selection (DESIGN.md §14): the engine prices
// in-place vs fork-join per query over the planner's live cardinality
// estimates instead of keying the choice off plan shape. Continuous queries
// replan once per tick, so the decision re-costs as stream rates drift and flips
// when the totals cross (the Table 5 crossover, found instead of hardcoded).
package core

import (
	"math"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/store"
)

// PlanMode values (Config.PlanMode).
const (
	PlanModeAuto     = "auto"
	PlanModeInPlace  = "inplace"
	PlanModeForkJoin = "forkjoin"
)

// DeltaMode values (Config.DeltaMode).
const (
	DeltaModeAuto = "auto"
	DeltaModeOff  = "off"
)

// costInputs calibrates the cost model to this engine's fabric.
func (e *Engine) costInputs() stats.CostInputs {
	lat := e.fab.Config().Latency
	return stats.CostInputs{
		Nodes:          e.cfg.Nodes,
		ForkThreshold:  e.cfg.ForkThreshold,
		OneSidedReadNS: float64(lat.RDMARead.Nanoseconds()),
		RPCNS:          float64(lat.RPC.Nanoseconds()),
		RPCPerByteNS:   float64(lat.RPCPerKB.Nanoseconds()) / 1024,
	}
}

// decide picks the execution strategy for a compiled plan: forced rules
// first (non-RDMA fabrics must fork-join; a single node has no remote reads
// to avoid; the PlanMode flag overrides), then the cost model.
func (e *Engine) decide(p *plan.Plan) stats.Decision {
	switch {
	case !e.fab.RDMA():
		return stats.Decision{Mode: exec.ForkJoin, Forced: "no-rdma"}
	case e.cfg.PlanMode == PlanModeInPlace:
		return stats.Decision{Mode: exec.InPlace, Forced: "flag"}
	case e.cfg.PlanMode == PlanModeForkJoin:
		return stats.Decision{Mode: exec.ForkJoin, Forced: "flag"}
	case e.cfg.Nodes <= 1:
		return stats.Decision{Mode: exec.InPlace, Forced: "single-node"}
	default:
		return stats.ChooseMode(p, e.costInputs())
	}
}

// decideMode is decide plus the plan_mode_total{mode} accounting; execution
// paths use it, Explain uses decide.
func (e *Engine) decideMode(p *plan.Plan) stats.Decision {
	d := e.decide(p)
	if d.Mode == exec.InPlace {
		e.cModeInPlace.Inc()
	} else {
		e.cModeForkJoin.Inc()
	}
	return d
}

// recordEstimateError feeds the estimator-error histogram: the planner's
// final cardinality estimate vs the rows the execution actually produced,
// as a percentage of the actual. Federation exports it like any registry
// series, so cluster-wide estimator health is visible in one scrape.
func (e *Engine) recordEstimateError(p *plan.Plan, tr *exec.Trace) {
	if p == nil || tr == nil || len(tr.Steps) == 0 {
		return
	}
	est := -1.0
	for i := len(p.Steps) - 1; i >= 0; i-- {
		if p.Steps[i].Kind != plan.Filter {
			est = p.Steps[i].EstRows
			break
		}
	}
	if est < 0 {
		return
	}
	actual := float64(tr.Steps[len(tr.Steps)-1].Rows)
	errPct := math.Abs(est-actual) / math.Max(actual, 1) * 100
	e.hEstErr.Record(int64(errPct))
}

// WindowPredStats implements plan.WindowStatsProvider: exact window-scoped
// cardinalities for stream patterns, read from counters the stream index and
// transient stores maintain at injection time. The window estimated is the
// one ending at the engine's current clock — the same window the imminent
// execution reads, modulo one batch of drift.
func (s *statsAdapter) WindowPredStats(g sparql.GraphRef, pid rdf.ID) (edges, subjects, objects int64, ok bool) {
	if g.Kind != sparql.StreamGraph {
		return 0, 0, 0, false
	}
	w, ok := s.q.Window(g.Name)
	if !ok {
		return 0, 0, 0, false
	}
	st, ok := s.e.streamOf(g.Name)
	if !ok {
		return 0, 0, 0, false
	}
	qw := queryWindow{state: st, rangeMS: w.Range.Milliseconds(), stepMS: w.Step.Milliseconds()}
	at := s.e.Now()
	from, to := qw.fromBatch(at), qw.toBatch(at)
	outVals, outVerts := st.index.PredWindowStats(pid, store.Out, from, to)
	_, inVerts := st.index.PredWindowStats(pid, store.In, from, to)
	edges, subjects, objects = outVals, outVerts, inVerts
	// Timing data never reaches the stream index; count it from the
	// transient stores.
	for _, ts := range st.trans {
		tv, tk := ts.PredWindowStats(pid, store.Out, from, to)
		edges += tv
		subjects += tk
		_, ik := ts.PredWindowStats(pid, store.In, from, to)
		objects += ik
	}
	return edges, subjects, objects, true
}
