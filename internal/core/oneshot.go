package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Query runs a one-shot SPARQL query against the evolving persistent store
// at the current stable snapshot (snapshot isolation; §4.3 treats one-shot
// queries as read-only transactions and stream insertion as append-only
// transactions, which never conflict).
func (e *Engine) Query(text string) (*Result, error) {
	return e.QueryCtx(context.Background(), text)
}

// QueryCtx is Query bounded by a context: a deadline or cancellation aborts
// the execution between plan steps (and inside row loops) and returns the
// context's error. With no context deadline, the engine's Flow.QueryDeadline
// applies.
func (e *Engine) QueryCtx(ctx context.Context, text string) (*Result, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	if q.Continuous {
		return nil, fmt.Errorf("core: continuous queries must be registered, not executed one-shot")
	}
	return e.executeOneShot(ctx, q)
}

// QueryParsed is Query for a pre-parsed query (benchmark hot path: clients
// parse once and submit many times).
func (e *Engine) QueryParsed(q *sparql.Query) (*Result, error) {
	return e.QueryParsedCtx(context.Background(), q)
}

// QueryParsedCtx is QueryParsed bounded by a context (see QueryCtx).
func (e *Engine) QueryParsedCtx(ctx context.Context, q *sparql.Query) (*Result, error) {
	if q.Continuous {
		return nil, fmt.Errorf("core: continuous queries must be registered, not executed one-shot")
	}
	return e.executeOneShot(ctx, q)
}

func (e *Engine) executeOneShot(ctx context.Context, q *sparql.Query) (*Result, error) {
	if dl := e.cfg.Flow.QueryDeadline; dl > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, dl)
			defer cancel()
		}
	}
	p, err := plan.Compile(q, e.ss, e.statsFor(q))
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	node := fabric.NodeID(e.nextHome % e.cfg.Nodes)
	e.nextHome++
	e.mu.Unlock()
	rs, trace, err := e.ex.Execute(exec.Request{
		Node:             node,
		Mode:             e.decideMode(p).Mode,
		Access:           e.providerFor(q, e.Now()),
		Resolver:         e.ss,
		ForkThreshold:    e.cfg.ForkThreshold,
		SimulateParallel: true,
		Ctx:              ctx,
	}, p)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			e.cOneshotDL.Inc()
		}
		return nil, err
	}
	e.recordEstimateError(p, trace)
	e.hOneshot.Observe(trace.Total)
	e.cOneshots.Inc()
	return &Result{set: rs, ss: e.ss, Latency: trace.Total, Trace: trace}, nil
}

// Ask answers an ASK query (or any one-shot query, by existence of rows).
func (e *Engine) Ask(text string) (bool, error) {
	res, err := e.Query(text)
	if err != nil {
		return false, err
	}
	return res.Len() > 0, nil
}

// Explain parses and plans a query, returning a human-readable description
// of the chosen execution: the ordered steps with cardinality estimates,
// optional groups, the in-place/fork-join decision with its cost inputs,
// and — for continuous queries — whether firings evaluate delta-based.
// Useful for understanding why the planner ordered patterns the way it did
// (the paper's Fig. 4 point) and why a strategy was chosen (Table 5).
func (e *Engine) Explain(text string) (string, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return "", err
	}
	return e.explain(q, e.statsFor(q))
}

// explain is Explain for a parsed query planned with the given statistics.
func (e *Engine) explain(q *sparql.Query, stats plan.StatsProvider) (string, error) {
	p, err := plan.Compile(q, e.ss, stats)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mode: %s\n", e.decide(p))
	if p.Empty {
		b.WriteString("empty: a query constant is unknown; the result is empty\n")
		return b.String(), nil
	}
	if len(p.Unions) > 0 {
		for i, bp := range p.Unions {
			fmt.Fprintf(&b, "union branch %d:\n", i+1)
			writePlanSteps(&b, "  ", bp)
		}
		e.writeDeltaExplain(&b, q, p)
		return b.String(), nil
	}
	writePlanSteps(&b, "", p)
	e.writeDeltaExplain(&b, q, p)
	return b.String(), nil
}

// writeDeltaExplain appends the delta-evaluation eligibility line for
// continuous queries.
func (e *Engine) writeDeltaExplain(b *strings.Builder, q *sparql.Query, p *plan.Plan) {
	if !q.Continuous {
		return
	}
	if e.cfg.DeltaMode == DeltaModeOff {
		b.WriteString("delta: off (DeltaMode)\n")
		return
	}
	dp, reason := splitDeltaPlan(p)
	if dp == nil {
		fmt.Fprintf(b, "delta: full recompute (%s)\n", reason)
		return
	}
	fmt.Fprintf(b, "delta: eligible (%d stored prefix step(s), %d stream segment(s), %d deferred check(s))\n",
		len(dp.pre), len(dp.segs), len(dp.post))
}

func writePlanSteps(b *strings.Builder, indent string, p *plan.Plan) {
	for i, st := range p.Steps {
		fmt.Fprintf(b, "%s%2d. %s\n", indent, i+1, st)
	}
	for _, og := range p.Optionals {
		fmt.Fprintf(b, "%soptional (vars %v, never=%v):\n", indent, og.Vars, og.Never)
		for i, st := range og.Steps {
			fmt.Fprintf(b, "%s  %2d. %s\n", indent, i+1, st)
		}
	}
	for _, f := range p.PostFilters {
		fmt.Fprintf(b, "%spost-filter %s\n", indent, f)
	}
	fmt.Fprintf(b, "%sestimated cost: %.1f\n", indent, p.EstCost)
}

// providerFor builds the access provider for a query executing with windows
// ending at `at`: stored patterns read the stable snapshot, stream patterns
// read their window via the stream index and transient store.
func (e *Engine) providerFor(q *sparql.Query, at rdf.Timestamp) *accessProvider {
	prov := &accessProvider{
		stored: exec.StoredAccess{Store: e.stored, SN: e.coord.StableSN()},
		byName: make(map[string]*exec.WindowAccess, len(q.Windows)),
	}
	for _, w := range q.Windows {
		st, ok := e.streamOf(w.Stream)
		if !ok {
			continue // Validate/Register already rejected unknown streams
		}
		qw := queryWindow{state: st, rangeMS: w.Range.Milliseconds(), stepMS: w.Step.Milliseconds()}
		prov.byName[w.Stream] = &exec.WindowAccess{
			Store:      e.stored,
			Index:      st.index,
			Transients: st.trans,
			From:       qw.fromBatch(at),
			To:         qw.toBatch(at),
			Obs:        e.winObs,
		}
	}
	return prov
}

// accessProvider implements exec.Provider for the engine.
//
// The accesses are handed out as interfaces once per plan step, so they are
// held in a form that converts without allocating: stored is boxed when the
// provider is built, the windows are pointers.
type accessProvider struct {
	stored exec.Access                   // an exec.StoredAccess at the firing's stable SN
	memo   exec.Access                   // non-nil: overrides stored (delta's cross-firing read memo)
	byName map[string]*exec.WindowAccess // shared with providers derived by batchProvider; read-only
	// narrow, when narrowName is set (stream names are never empty), replaces
	// byName[narrowName]: that stream's window restricted to one batch (delta
	// segment evaluation).
	narrowName string
	narrow     exec.WindowAccess
}

func (p *accessProvider) Access(g sparql.GraphRef) (exec.Access, error) {
	if g.Kind != sparql.StreamGraph {
		if p.memo != nil {
			return p.memo, nil
		}
		return p.stored, nil
	}
	if p.narrowName != "" && g.Name == p.narrowName {
		return &p.narrow, nil
	}
	w, ok := p.byName[g.Name]
	if !ok {
		return nil, fmt.Errorf("core: pattern references unknown stream %q", g.Name)
	}
	return w, nil
}

// statsFor builds a per-query planner statistics adapter: predicate
// cardinalities from the store, window fractions from stream density.
func (e *Engine) statsFor(q *sparql.Query) plan.StatsProvider {
	return &statsAdapter{e: e, q: q}
}

type statsAdapter struct {
	e *Engine
	q *sparql.Query
	// total is the stored tuple count window fractions divide by, read once
	// per adapter (0 until then): Compile asks once per stream pattern, and
	// each read sweeps every store stripe.
	total float64
}

func (s *statsAdapter) PredStats(pid rdf.ID) (int64, int64, int64) {
	return s.e.stored.Stats(pid)
}

func (s *statsAdapter) WindowFraction(g sparql.GraphRef) float64 {
	if g.Kind != sparql.StreamGraph {
		return 1
	}
	w, ok := s.q.Window(g.Name)
	if !ok {
		return 1
	}
	st, ok := s.e.streamOf(g.Name)
	if !ok {
		return 1
	}
	batches := float64(w.Range.Milliseconds()) / float64(st.src.Interval().Milliseconds())
	winTuples := st.avgTuplesPerBatch() * math.Max(batches, 1)
	if s.total == 0 {
		// Values count both directions.
		s.total = math.Max(float64(s.e.stored.Memory().Values)/2, 1)
	}
	f := winTuples / s.total
	if f > 1 {
		return 1
	}
	if f < 1e-9 {
		return 1e-9
	}
	return f
}
