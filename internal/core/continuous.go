package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/tstore"
	"repro/internal/vts"
)

// queryWindow binds one FROM STREAM clause to its stream state.
type queryWindow struct {
	state   *streamState
	rangeMS int64
	stepMS  int64
}

// fromBatch returns the oldest batch a window firing at `at` covers: batches
// fully inside (at-range, at].
func (w queryWindow) fromBatch(at rdf.Timestamp) tstore.BatchID {
	start := int64(at) - w.rangeMS
	if start < 0 {
		start = 0
	}
	return tstore.BatchID(start/w.state.src.Interval().Milliseconds()) + 1
}

// toBatch returns the newest batch a window firing at `at` covers.
func (w queryWindow) toBatch(at rdf.Timestamp) tstore.BatchID {
	return tstore.BatchID(int64(at) / w.state.src.Interval().Milliseconds())
}

// FireInfo describes one continuous-query execution.
type FireInfo struct {
	// At is the logical time of the window boundary that fired.
	At rdf.Timestamp
	// Latency is the execution wall time.
	Latency time.Duration
	// Rows is the number of result rows.
	Rows int
}

// latRing is how many execution latencies a continuous query remembers: the
// newest 65 536, a constant 512 KiB once full, where an unbounded slice grew
// by about 7 MB a day per query at ten firings a second.
const latRing = 1 << 16

// CQStats summarizes a continuous query's executions. Executions, the failure
// counters and TotalRows are exact over the query's life; the latency
// figures cover the newest latRing executions.
type CQStats struct {
	Executions int64
	// FailedExecutions counts window firings the engine's worker pool
	// refused because it was shutting down.
	FailedExecutions int64
	// DeadlineExceeded counts window firings abandoned because they ran past
	// the engine's Flow.CQDeadline. The window is not delivered; the step
	// scheduler moves on (shedding work under overload rather than queueing
	// ever-later firings).
	DeadlineExceeded int64
	TotalRows        int64
	MedianLat        time.Duration
	P99Lat           time.Duration
	MeanLat          time.Duration
}

// ContinuousQuery is a registered continuous query.
type ContinuousQuery struct {
	Name string
	Text string

	engine  *Engine
	query   *sparql.Query
	plan    *plan.Plan
	home    fabric.NodeID
	windows []queryWindow
	stepMS  int64 // execution period: the smallest window step
	cb      func(*Result, FireInfo)

	// delta is the incremental-evaluation cache (delta.go); it has its own
	// lock and is touched only by firings.
	delta deltaState

	mu          sync.Mutex
	nextFire    rdf.Timestamp
	planTick    int64      // engine tick the plan was compiled at
	splitOf     *plan.Plan // the plan split/splitReason were computed from
	split       *deltaPlan
	splitReason string
	execs       int64
	failedExecs int64
	deadlineEx  int64
	totalRows   int64
	lats        []time.Duration // the newest latRing latencies; a ring once full
	latNext     int             // the slot the next latency overwrites once the ring is full
	waitSince   time.Time       // wall time a due firing first found its windows unstable
}

// replan recompiles the query at most once per engine tick: stream
// statistics evolve as batches arrive, and a plan compiled at registration
// (before any stream data) would mis-estimate window selectivity forever.
func (cq *ContinuousQuery) replan() *plan.Plan {
	e := cq.engine
	tick := e.tick.Load()
	cq.mu.Lock()
	stale := cq.planTick != tick || cq.plan.Empty
	cq.mu.Unlock()
	if stale {
		if np, err := plan.Compile(cq.query, e.ss, e.statsFor(cq.query)); err == nil {
			cq.mu.Lock()
			cq.plan = np
			cq.planTick = tick
			cq.mu.Unlock()
		}
	}
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return cq.plan
}

// RegisterContinuous parses, plans, and registers a continuous query. The
// callback runs on a query worker for every execution; it must be
// concurrency-safe. Registration places the query on a node (round-robin)
// and replicates the indexes of its streams there — the paper's
// locality-aware partitioning (§4.2).
func (e *Engine) RegisterContinuous(text string, cb func(*Result, FireInfo)) (*ContinuousQuery, error) {
	// The query keeps its text, and the parse's names and terms are cut from
	// it; text may be a view into a request, an op or a snapshot transcript.
	text = strings.Clone(text)
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	if !q.Continuous {
		return nil, fmt.Errorf("core: query is not continuous; use Query for one-shot queries")
	}
	if cb == nil {
		cb = func(*Result, FireInfo) {}
	}
	e.mu.Lock()
	name := q.Name
	if name == "" {
		name = fmt.Sprintf("cq%d", e.cqSeq)
	}
	cq := &ContinuousQuery{
		Name:   name,
		Text:   text,
		engine: e,
		query:  q,
		cb:     cb,
	}
	for _, w := range q.Windows {
		st, ok := e.streams[w.Stream]
		if !ok {
			e.mu.Unlock()
			return nil, fmt.Errorf("core: query %s uses unregistered stream %q", name, w.Stream)
		}
		iv := st.src.Interval()
		if w.Range < iv || w.Range%iv != 0 || w.Step%iv != 0 {
			e.mu.Unlock()
			return nil, fmt.Errorf("core: window %v of %s must be a multiple of the stream's %v batch interval", w, name, iv)
		}
		cq.windows = append(cq.windows, queryWindow{
			state:   st,
			rangeMS: w.Range.Milliseconds(),
			stepMS:  w.Step.Milliseconds(),
		})
		if cq.stepMS == 0 || w.Step.Milliseconds() < cq.stepMS {
			cq.stepMS = w.Step.Milliseconds()
		}
	}
	if len(cq.windows) == 0 {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: continuous query %s declares no stream windows", name)
	}
	e.mu.Unlock()

	// Compile outside the engine lock: the planner's statistics adapter
	// reads engine state through locking accessors.
	cq.plan, err = plan.Compile(q, e.ss, e.statsFor(q))
	if err != nil {
		return nil, err
	}

	// Everything a registration changes, it changes from here on, past the
	// last way it can fail: a refused registration must leave nothing behind
	// (cluster.ApplyVerb's contract, on which a replicated cluster's
	// sequenced refusals rest). The counters below decide the next query's
	// auto-assigned name and home on each replica.
	e.mu.Lock()
	defer e.mu.Unlock()
	if q.Name == "" {
		name = fmt.Sprintf("cq%d", e.cqSeq) // another registration may have landed while this one compiled
		cq.Name = name
	}
	if _, ok := e.continuous[name]; ok {
		return nil, fmt.Errorf("core: continuous query %q already registered", name)
	}
	e.cqSeq++
	cq.home = fabric.NodeID(e.nextHome % e.cfg.Nodes)
	e.nextHome++
	// First execution at the next step boundary after the current clock.
	cq.nextFire = rdf.Timestamp((int64(e.now)/cq.stepMS + 1) * cq.stepMS)
	// Locality-aware partitioning: replicate each stream's index to the node
	// where the query runs. Without RDMA, fork-join migrates execution to
	// every node, so the index replicates everywhere.
	if !e.cfg.DisableIndexReplication {
		for _, w := range cq.windows {
			w.state.index.Replicate(cq.home)
			if !e.fab.RDMA() {
				for n := 0; n < e.cfg.Nodes; n++ {
					w.state.index.Replicate(fabric.NodeID(n))
				}
			}
		}
	}
	e.continuous[name] = cq
	e.cqOrder = append(e.cqOrder, name)
	return cq, nil
}

// Unregister removes a continuous query; its stream state becomes
// collectable once no other query needs it.
func (e *Engine) Unregister(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.continuous, name)
	for i, n := range e.cqOrder {
		if n == name {
			e.cqOrder = append(e.cqOrder[:i], e.cqOrder[i+1:]...)
			break
		}
	}
}

// ContinuousQueries returns the registered continuous queries.
func (e *Engine) ContinuousQueries() []*ContinuousQuery {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*ContinuousQuery, 0, len(e.continuous))
	for _, cq := range e.continuous {
		out = append(out, cq)
	}
	return out
}

// ContinuousOrdered returns the registered continuous queries in
// registration order. Snapshot transfer dumps them this way so a restored
// replica re-registers in the same order and the auto-name counter (cq%d)
// continues identically.
func (e *Engine) ContinuousOrdered() []*ContinuousQuery {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*ContinuousQuery, 0, len(e.cqOrder))
	for _, name := range e.cqOrder {
		if cq, ok := e.continuous[name]; ok {
			out = append(out, cq)
		}
	}
	return out
}

// fireDueQueries executes every continuous query whose window boundary has
// passed and whose streams are stable up to it (the paper's data-driven
// trigger, Fig. 10). Blocks until all fired executions complete.
func (e *Engine) fireDueQueries(ts rdf.Timestamp) {
	type firing struct {
		cq *ContinuousQuery
		at rdf.Timestamp
	}
	var due []firing
	e.mu.Lock()
	cqs := make([]*ContinuousQuery, 0, len(e.continuous))
	for _, cq := range e.continuous {
		cqs = append(cqs, cq)
	}
	e.mu.Unlock()
	for _, cq := range cqs {
		cq.mu.Lock()
		fired := false
		for cq.nextFire <= ts && cq.windowsReady(cq.nextFire) {
			due = append(due, firing{cq: cq, at: cq.nextFire})
			cq.nextFire += rdf.Timestamp(cq.stepMS)
			fired = true
		}
		// Prefix-integrity wait accounting: a firing that is due but whose
		// windows are not yet stable waits for the VTS prefix; measure the
		// wall time between first observing the wait and finally firing.
		switch {
		case fired && !cq.waitSince.IsZero():
			e.hPrefixWait.Record(int64(time.Since(cq.waitSince)))
			cq.waitSince = time.Time{}
		case !fired && cq.nextFire <= ts && cq.waitSince.IsZero():
			cq.waitSince = time.Now()
		}
		cq.mu.Unlock()
	}
	var wg sync.WaitGroup
	for _, f := range due {
		f := f
		wg.Add(1)
		err := e.cluster.Submit(f.cq.Home(), func() {
			defer wg.Done()
			f.cq.execute(f.at)
		})
		if err != nil {
			// The cluster is shutting down and refused the firing: count it
			// like a failed execution.
			wg.Done()
			f.cq.mu.Lock()
			f.cq.failedExecs++
			f.cq.mu.Unlock()
			e.cFailedExecs.Inc()
		}
	}
	wg.Wait()
}

// windowsReady reports whether the stable VTS covers every window's batches
// for an execution at `at`. Caller holds cq.mu.
func (cq *ContinuousQuery) windowsReady(at rdf.Timestamp) bool {
	streams := make([]vts.StreamID, 0, len(cq.windows))
	upto := make([]tstore.BatchID, 0, len(cq.windows))
	for _, w := range cq.windows {
		streams = append(streams, w.state.id)
		upto = append(upto, w.toBatch(at))
	}
	return cq.engine.coord.WindowReady(streams, upto)
}

// ReadyAt reports whether the stable VTS prefix covers every window batch for
// an execution at `at` — the §4.3 trigger condition. The chaos harness uses
// it to assert prefix integrity: no window may fire before ReadyAt(at) holds.
func (cq *ContinuousQuery) ReadyAt(at rdf.Timestamp) bool {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return cq.windowsReady(at)
}

// execute runs one window execution on the query's home node.
func (cq *ContinuousQuery) execute(at rdf.Timestamp) {
	e := cq.engine
	triggered := time.Now() // cq_trigger_to_emit: trigger → emit, incl. planning
	ctx := context.Background()
	if dl := e.cfg.Flow.CQDeadline; dl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dl)
		defer cancel()
	}
	p := cq.replan()
	mode := e.decideMode(p).Mode
	var rs *exec.ResultSet
	var lat time.Duration
	var err error
	handled := false
	if e.deltaEnabled() {
		rs, lat, err, handled = e.deltaExecute(cq, p, at, mode, ctx)
	}
	if !handled {
		prov := e.providerFor(cq.query, at)
		var trace *exec.Trace
		rs, trace, err = e.ex.Execute(exec.Request{
			Node:             cq.Home(),
			Mode:             mode,
			Access:           prov,
			Resolver:         e.ss,
			ForkThreshold:    e.cfg.ForkThreshold,
			SimulateParallel: true,
			Ctx:              ctx,
		}, p)
		if err == nil {
			lat = trace.Total
			e.recordEstimateError(p, trace)
		}
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// The firing ran past its deadline: shed it. The window is NOT
			// delivered (no callback); under sustained overload the step
			// scheduler keeps moving instead of queueing ever-later firings.
			cq.mu.Lock()
			cq.deadlineEx++
			cq.mu.Unlock()
			e.cCQDL.Inc()
			return
		}
		// Other execution errors indicate planner/executor bugs; surface
		// loudly rather than silently dropping a window.
		panic(fmt.Sprintf("core: continuous query %s failed: %v", cq.Name, err))
	}
	cq.mu.Lock()
	cq.execs++
	cq.totalRows += int64(rs.Len())
	cq.recordLatLocked(lat)
	cq.mu.Unlock()
	e.hExecute.Observe(lat)
	e.cExecs.Inc()
	e.cRows.Add(int64(rs.Len()))
	emitStart := time.Now()
	cq.cb(&Result{set: rs, ss: e.ss}, FireInfo{At: at, Latency: lat, Rows: rs.Len()})
	end := time.Now()
	e.hEmit.Observe(end.Sub(emitStart))
	e.hTriggerToEmit.Observe(end.Sub(triggered))
}

// recordLatLocked remembers one execution latency, overwriting the oldest
// once latRing are held. Caller holds cq.mu.
func (cq *ContinuousQuery) recordLatLocked(lat time.Duration) {
	if len(cq.lats) < latRing {
		cq.lats = append(cq.lats, lat)
		return
	}
	cq.lats[cq.latNext] = lat
	cq.latNext = (cq.latNext + 1) % latRing
}

// ExecuteNow synchronously runs the query once over the window ending at the
// engine's current stable boundary, regardless of step scheduling. Intended
// for benchmarks that measure single-execution latency.
func (cq *ContinuousQuery) ExecuteNow() (*Result, time.Duration, error) {
	res, trace, err := cq.ExecuteNowTraced()
	if err != nil {
		return nil, 0, err
	}
	return res, trace.Total, nil
}

// ExecuteNowTraced is ExecuteNow with the per-step execution trace.
func (cq *ContinuousQuery) ExecuteNowTraced() (*Result, *exec.Trace, error) {
	e := cq.engine
	// Re-execute the most recently fired window boundary (its data is still
	// retained; see collectGarbage).
	cq.mu.Lock()
	at := cq.nextFire - rdf.Timestamp(cq.stepMS)
	cq.mu.Unlock()
	if at < 0 {
		at = 0
	}
	p := cq.replan()
	prov := e.providerFor(cq.query, at)
	rs, trace, err := e.ex.Execute(exec.Request{
		Node:             cq.Home(),
		Mode:             e.decideMode(p).Mode,
		Access:           prov,
		Resolver:         e.ss,
		ForkThreshold:    e.cfg.ForkThreshold,
		SimulateParallel: true,
	}, p)
	if err != nil {
		return nil, trace, err
	}
	return &Result{set: rs, ss: e.ss}, trace, nil
}

// Stats summarizes the query's executions so far; see CQStats for what the
// latency figures cover.
func (cq *ContinuousQuery) Stats() CQStats {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	st := CQStats{
		Executions:       cq.execs,
		FailedExecutions: cq.failedExecs,
		DeadlineExceeded: cq.deadlineEx,
		TotalRows:        cq.totalRows,
	}
	if len(cq.lats) == 0 {
		return st
	}
	sorted := append([]time.Duration(nil), cq.lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range sorted {
		sum += l
	}
	st.MedianLat = sorted[len(sorted)/2]
	st.P99Lat = sorted[len(sorted)*99/100]
	st.MeanLat = sum / time.Duration(len(sorted))
	return st
}

// Latencies returns a copy of the recorded execution latencies, oldest first
// (CDF plots): all of them up to latRing executions, the newest latRing after.
func (cq *ContinuousQuery) Latencies() []time.Duration {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	out := make([]time.Duration, 0, len(cq.lats))
	return append(append(out, cq.lats[cq.latNext:]...), cq.lats[:cq.latNext]...)
}

// Home returns the node the query executes on, fixed at registration.
func (cq *ContinuousQuery) Home() fabric.NodeID { return cq.home }
