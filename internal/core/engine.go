// Package core implements Wukong+S: a distributed stateful stream querying
// engine over fast-evolving linked data (Zhang, Chen & Chen, SOSP 2017).
//
// The engine follows the paper's integrated, store-centric design (§3):
// one system owns both the stream processor and the persistent store.
//
//   - A hybrid store (§4.1) absorbs the timeless portion of streams into a
//     continuous persistent store (shared with the initially stored data)
//     and holds timing data in per-stream time-based transient stores.
//   - A stream index (§4.2) gives continuous queries a fast path to window
//     data, with locality-aware replication to the nodes where registered
//     queries need each stream.
//   - Decentralized vector timestamps with bounded snapshot scalarization
//     (§4.3) make stream data consistently visible: continuous queries
//     trigger when their windows are stable (prefix integrity), one-shot
//     queries read the persistent store at the stable snapshot number.
//
// Time is logical: producers stamp tuples (rdf.Timestamp, milliseconds) and
// the host application drives the engine with AdvanceTo. This keeps runs
// deterministic and lets benchmarks replay streams at any speed.
//
// Basic use:
//
//	eng, _ := core.New(core.Config{Nodes: 8})
//	defer eng.Close()
//	eng.LoadTriples(initialData)
//	src, _ := eng.RegisterStream(stream.Config{Name: "Tweet_Stream", BatchInterval: 100 * time.Millisecond})
//	cq, _ := eng.RegisterContinuous(qcText, func(r *core.Result, w core.FireInfo) { ... })
//	src.Emit(tuple)
//	eng.AdvanceTo(now)        // seal + inject batches, fire due queries
//	res, _ := eng.Query(qsText) // one-shot over the evolving store
package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sindex"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/strserver"
	"repro/internal/tstore"
	"repro/internal/vts"
)

// Config configures an engine.
type Config struct {
	// Nodes is the number of logical cluster nodes (default 1).
	Nodes int
	// WorkersPerNode is the number of query workers bound per node
	// (default 4; the paper binds one worker per core).
	WorkersPerNode int
	// Fabric overrides the network simulation (Nodes wins over
	// Fabric.Nodes; zero value = RDMA on, no injected latency).
	Fabric fabric.Config
	// MaxSnapshots bounds per-key snapshot metadata (default 2, §4.3).
	MaxSnapshots int
	// SNCadence is the wall-clock width of one snapshot plan (default
	// 100 ms): streams contribute batches to a snapshot proportionally to
	// their mini-batch interval.
	SNCadence time.Duration
	// ForkThreshold is the table size that triggers scatter/gather in
	// fork-join execution (default 32).
	ForkThreshold int
	// PlanMode overrides the cost-based in-place/fork-join decision:
	// "auto" (or empty, the default) prices both strategies per query with
	// live cardinality statistics; "inplace" and "forkjoin" force one
	// strategy (the wukongsd -plan-mode flag). A non-RDMA fabric (the paper's
	// non-RDMA configuration, Table 5) still wins over PlanMode — fork-join
	// is the only correct costing without one-sided reads.
	PlanMode string
	// DeltaMode controls delta-based continuous-query evaluation (DESIGN.md
	// §14): "auto" (or empty, the default) evaluates eligible sliding-window
	// firings incrementally over the batches that entered the window,
	// reusing cached per-batch results for the overlap; "off" recomputes
	// every firing from the full window.
	DeltaMode string
	// DeltaCrosscheck additionally runs the full recompute after every
	// delta-evaluated firing and panics on any result divergence — the
	// delta≡full assertion. Recorded firing latency stays the delta
	// evaluation's own, so a crosschecked run still benchmarks cleanly.
	DeltaCrosscheck bool
	// DisableIndexReplication turns off locality-aware stream-index
	// replication (§4.2) — an ablation switch: continuous queries then pay
	// an extra one-sided read per remote index lookup.
	DisableIndexReplication bool
	// Metrics is the observability registry the engine records into
	// (default obs.Default, the process-global registry). Tests that need
	// isolation pass their own.
	Metrics *obs.Registry
	// Flow configures overload protection: engine-wide stream admission
	// defaults and query deadlines. The zero value leaves admission unbounded
	// and deadlines off.
	Flow FlowConfig
}

// FlowConfig is the engine's overload-protection knob set (DESIGN.md §10).
type FlowConfig struct {
	// MaxPending is the engine-wide admission bound applied to streams
	// whose own config leaves MaxPending at 0.
	MaxPending int
	// QueryDeadline bounds one-shot query execution (0 = no deadline);
	// CQDeadline bounds each continuous-query firing. Deadline-exceeded
	// work is cancelled cooperatively and counted, never silently lost.
	QueryDeadline time.Duration
	CQDeadline    time.Duration
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.WorkersPerNode <= 0 {
		c.WorkersPerNode = 4
	}
	c.Fabric.Nodes = c.Nodes
	if c.Fabric.Latency == (fabric.LatencyModel{}) {
		// A zero-valued fabric config means defaults: RDMA on. Callers
		// wanting the non-RDMA configuration (Table 5) set the latency
		// model explicitly alongside RDMA=false.
		c.Fabric.RDMA = true
		c.Fabric.Latency = fabric.DefaultLatency()
	}
	if c.MaxSnapshots <= 0 {
		c.MaxSnapshots = store.DefaultMaxSnapshots
	}
	if c.SNCadence <= 0 {
		c.SNCadence = 100 * time.Millisecond
	}
	if c.ForkThreshold <= 0 {
		c.ForkThreshold = 32
	}
	// Without one-sided reads, per-item remote access costs a TCP round
	// trip; fork-join migrates every traversal step to the data instead.
	if c.Fabric.Nodes > 1 && !c.Fabric.RDMA {
		c.ForkThreshold = 1
	}
	return c
}

// streamState is the engine's per-stream bookkeeping.
type streamState struct {
	id    vts.StreamID
	src   *stream.Source
	index *sindex.Index
	trans []*tstore.Store // per node
	// injectMu makes one stream's batch injections never overlap — what
	// sindex.AddBatch assumes and what lets each node's injector reuse its
	// scratch — even when two clients drive ADVANCE at once.
	injectMu sync.Mutex
	inject   []stream.InjectScratch // per node, guarded by injectMu
	home     fabric.NodeID          // adaptor home (stream arrival node)
	timing   bool                   // has any timing predicates (diagnostics)
	cfg      stream.Config          // original registration config (persisted by FT)

	// Per-stream observability counters (nil-safe; see RegisterStream).
	mTuples  *obs.Counter
	mBatches *obs.Counter

	mu          sync.Mutex
	tupleCount  int64 // total tuples injected
	batchCount  int64
	injectStats stream.InjectStats
}

// avgTuplesPerBatch estimates recent stream density for the planner.
func (s *streamState) avgTuplesPerBatch() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batchCount == 0 {
		return 1
	}
	return float64(s.tupleCount) / float64(s.batchCount)
}

// Engine is a Wukong+S instance.
type Engine struct {
	cfg     Config
	fab     *fabric.Fabric
	cluster *fabric.Cluster
	ss      *strserver.Server
	stored  *store.Sharded
	coord   *vts.Coordinator
	ex      *exec.Executor

	obs          *obs.Registry     // observability registry (never nil)
	hBatchTuples *obs.Histogram    // tuples per sealed batch
	hPrefixWait  *obs.Histogram    // prefix-integrity wait before a firing
	winObs       *exec.WindowObs   // pre-resolved window fan-out counters
	injObs       *stream.InjectObs // pre-resolved injection metrics

	// Pre-resolved stage histograms (stage_<name>_latency_ns, DESIGN.md §9)
	// and per-execution metrics: resolved once here so the tick and firing
	// paths pay no registry lookups.
	hAdvance       *obs.Histogram
	hTrigger       *obs.Histogram
	hGC            *obs.Histogram
	hDispatch      *obs.Histogram
	hTriggerToEmit *obs.Histogram
	hEmit          *obs.Histogram
	hExecute       *obs.Histogram
	hOneshot       *obs.Histogram
	cExecs         *obs.Counter
	cFailedExecs   *obs.Counter
	cRows          *obs.Counter
	cOneshots      *obs.Counter

	// Adaptive planning and delta evaluation (DESIGN.md §14).
	cModeInPlace  *obs.Counter            // plan_mode_total{mode="in-place"}
	cModeForkJoin *obs.Counter            // plan_mode_total{mode="fork-join"}
	cDeltaFirings *obs.Counter            // cq_delta_firings_total
	cFullRecomp   map[string]*obs.Counter // cq_full_recompute_total{reason=...}
	hEstErr       *obs.Histogram          // planner_estimate_error_pct

	// Overload protection (DESIGN.md §10).
	cOneshotDL *obs.Counter // oneshot_deadline_exceeded_total
	cCQDL      *obs.Counter // cq_deadline_exceeded_total

	mu         sync.Mutex
	streams    map[string]*streamState
	streamByID []*streamState
	continuous map[string]*ContinuousQuery
	cqOrder    []string // registration order, for deterministic snapshot dumps
	cqSeq      int
	now        rdf.Timestamp
	nextHome   int // round-robin placement for queries and adaptors

	ft *ftState // non-nil when fault tolerance is enabled

	// sealMu orders loads after the batches sealed before them: AdvanceTo
	// holds it shared while it seals and injects, LoadTriples exclusively.
	sealMu sync.RWMutex

	tick atomic.Int64 // AdvanceTo counter; continuous queries replan per tick

	closed bool
}

// New creates an engine.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	switch cfg.PlanMode {
	case "", PlanModeAuto, PlanModeInPlace, PlanModeForkJoin:
	default:
		return nil, fmt.Errorf("core: unknown PlanMode %q (want auto, inplace, or forkjoin)", cfg.PlanMode)
	}
	switch cfg.DeltaMode {
	case "", DeltaModeAuto, DeltaModeOff:
	default:
		return nil, fmt.Errorf("core: unknown DeltaMode %q (want auto or off)", cfg.DeltaMode)
	}
	fab := fabric.New(cfg.Fabric)
	e := &Engine{
		cfg:        cfg,
		fab:        fab,
		cluster:    fabric.NewCluster(fab, cfg.WorkersPerNode),
		ss:         strserver.New(),
		stored:     store.NewSharded(fab, cfg.MaxSnapshots),
		coord:      vts.NewCoordinator(fab, cfg.Nodes, 0, 1),
		streams:    make(map[string]*streamState),
		continuous: make(map[string]*ContinuousQuery),
	}
	e.ex = exec.New(e.cluster)
	e.obs = cfg.Metrics
	if e.obs == nil {
		e.obs = obs.Default
	}
	e.hBatchTuples = e.obs.Histogram("stream_batch_tuples", obs.SizeBuckets)
	e.hPrefixWait = e.obs.Histogram("vts_prefix_wait_ns", obs.LatencyBuckets)
	e.winObs = exec.NewWindowObs(e.obs)
	e.injObs = stream.NewInjectObs(e.obs)
	e.hAdvance = e.obs.Stage("advance")
	e.hTrigger = e.obs.Stage("trigger")
	e.hGC = e.obs.Stage("gc")
	e.hDispatch = e.obs.Stage("dispatch")
	e.hTriggerToEmit = e.obs.Stage("cq_trigger_to_emit")
	e.hEmit = e.obs.Stage("emit")
	e.hExecute = e.obs.Stage("execute")
	e.hOneshot = e.obs.Stage("oneshot")
	e.cExecs = e.obs.Counter("cq_executions_total")
	e.cFailedExecs = e.obs.Counter("cq_failed_executions_total")
	e.cRows = e.obs.Counter("cq_rows_total")
	e.cOneshots = e.obs.Counter("oneshot_queries_total")
	e.cOneshotDL = e.obs.Counter("oneshot_deadline_exceeded_total")
	e.cCQDL = e.obs.Counter("cq_deadline_exceeded_total")
	e.cModeInPlace = e.obs.Counter(obs.Name("plan_mode_total", "mode", "in-place"))
	e.cModeForkJoin = e.obs.Counter(obs.Name("plan_mode_total", "mode", "fork-join"))
	e.cDeltaFirings = e.obs.Counter("cq_delta_firings_total")
	e.cFullRecomp = make(map[string]*obs.Counter, len(deltaReasons))
	for _, r := range deltaReasons {
		e.cFullRecomp[r] = e.obs.Counter(obs.Name("cq_full_recompute_total", "reason", r))
	}
	e.hEstErr = e.obs.Histogram("planner_estimate_error_pct", obs.SizeBuckets)
	e.registerMetrics()
	return e, nil
}

// Metrics returns the registry the engine records into.
func (e *Engine) Metrics() *obs.Registry { return e.obs }

// registerMetrics installs scrape-time gauges for engine-wide state. The
// functions are re-registered (replacing any previous engine's) so the newest
// engine in a process owns the process-wide series.
func (e *Engine) registerMetrics() {
	r := e.obs
	// Go runtime health: allocation, GC and scheduler cost of this process.
	obs.RegisterRuntime(r)
	// Persistent store: memory and operation counters.
	r.GaugeFunc("store_entries", func() int64 { return e.stored.Memory().Entries })
	r.GaugeFunc("store_values", func() int64 { return e.stored.Memory().Values })
	r.GaugeFunc("store_value_bytes", func() int64 { return e.stored.Memory().ValueBytes })
	r.GaugeFunc("store_key_bytes", func() int64 { return e.stored.Memory().KeyBytes })
	r.GaugeFunc("store_seg_bytes", func() int64 { return e.stored.Memory().SegBytes })
	r.GaugeFunc("store_reads_total", func() int64 { return e.stored.OpStats().Reads })
	r.GaugeFunc("store_span_reads_total", func() int64 { return e.stored.OpStats().SpanReads })
	r.GaugeFunc("store_index_reads_total", func() int64 { return e.stored.OpStats().IndexReads })
	r.GaugeFunc("store_snapshot_prunes_total", func() int64 { return e.stored.OpStats().Prunes })
	r.GaugeFunc("store_prune_visited_entries_total", func() int64 { return e.stored.OpStats().PruneVisited })
	r.GaugeFunc("store_multi_boundary_keys", e.stored.MultiBoundaryKeys)
	// Consistency machinery.
	r.GaugeFunc("vts_stable_sn", func() int64 { return int64(e.coord.StableSN()) })
	r.GaugeFunc("vts_stall_waits_total", func() int64 { return e.coord.StallWaits() })
	r.GaugeFunc("vts_plans_published_total", func() int64 { return e.coord.PlansPublished() })
	r.GaugeFunc("vts_retained_plans", func() int64 { return int64(len(e.coord.RetainedPlans())) })
	// Fabric traffic.
	r.GaugeFunc("fabric_rdma_reads_total", func() int64 { return e.fab.Stats().RDMAReads })
	r.GaugeFunc("fabric_rpcs_total", func() int64 { return e.fab.Stats().RPCs })
	r.GaugeFunc("fabric_tcp_rounds_total", func() int64 { return e.fab.Stats().TCPRounds })
	r.GaugeFunc("fabric_bytes_read_total", func() int64 { return e.fab.Stats().BytesRead })
	r.GaugeFunc("fabric_bytes_rpc_total", func() int64 { return e.fab.Stats().BytesRPC })
	r.GaugeFunc("fabric_charged_ns_total", func() int64 { return int64(e.fab.Stats().ChargedTime) })
	// Per-pair traffic matrix (only for small clusters: n² series).
	if n := e.fab.Nodes(); n <= 16 {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				f, t := fabric.NodeID(from), fabric.NodeID(to)
				r.GaugeFunc(obs.Name("fabric_pair_msgs_total",
					"from", fmt.Sprint(from), "to", fmt.Sprint(to)),
					func() int64 { m, _ := e.fab.PairTraffic(f, t); return m })
				r.GaugeFunc(obs.Name("fabric_pair_bytes_total",
					"from", fmt.Sprint(from), "to", fmt.Sprint(to)),
					func() int64 { _, b := e.fab.PairTraffic(f, t); return b })
			}
		}
	}
}

// Close stops the engine's workers and flushes durable state gracefully.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	ft := e.ft
	e.mu.Unlock()
	e.cluster.Close()
	if ft != nil {
		ft.close(true)
	}
}

// Kill abruptly stops the engine, simulating a process crash: workers stop,
// the log is closed without a sync, and no final checkpoint is taken — the
// fault-tolerance directory is left exactly as the last append left it. The
// engine is unusable afterwards; Recover builds a successor from the
// directory. The chaos harness uses this to exercise §5 recovery at
// non-checkpoint boundaries.
func (e *Engine) Kill() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	ft := e.ft
	e.mu.Unlock()
	e.cluster.Close()
	if ft != nil {
		ft.close(false)
	}
}

// StringServer exposes the shared string server (clients encode query
// constants and decode results through it).
func (e *Engine) StringServer() *strserver.Server { return e.ss }

// Fabric exposes the simulated network (benchmarks reset and read traffic
// counters).
func (e *Engine) Fabric() *fabric.Fabric { return e.fab }

// Store exposes the persistent store (memory accounting experiments).
func (e *Engine) Store() *store.Sharded { return e.stored }

// Coordinator exposes the consistency coordinator.
func (e *Engine) Coordinator() *vts.Coordinator { return e.coord }

// Now returns the engine's logical clock (the highest AdvanceTo argument).
func (e *Engine) Now() rdf.Timestamp {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// LoadTriples bulk-loads stored data, all or nothing: when the triples'
// unseen predicates would not fit the predicate space it loads none of them,
// interns nothing and returns strserver.ErrPredicateSpace.
//
// Data loaded before the first batch is sealed is visible at the base
// snapshot. Later, a load takes a snapshot number as a batch does (§4.1,
// §4.3): the next one, the lowest any stream may still write at, so no key
// sees its snapshots regress, and one-shots see the whole load from the next
// stable snapshot on. With fault tolerance on, the load is logged first, and
// a load the log refuses is not applied.
func (e *Engine) LoadTriples(triples []rdf.Triple) error {
	pids := make([]rdf.ID, len(triples))
	if err := e.ss.InternPredicates(pids, func(i int) string { return triples[i].P.Value }); err != nil {
		return err
	}
	e.sealMu.Lock()
	defer e.sealMu.Unlock()
	if err := e.ftLogLoad(triples); err != nil {
		return err
	}
	sn := e.loadSN()
	for i, t := range triples {
		e.stored.Insert(e.ss.EncodeWith(t, pids[i]), sn, false, nil)
	}
	return nil
}

// loadSN is the snapshot number a load writes at. Caller holds sealMu, so no
// batch is sealed or injected meanwhile.
func (e *Engine) loadSN() uint32 {
	if e.coord.PlansPublished() == 0 {
		return store.BaseSN
	}
	e.mu.Lock()
	next := make([]tstore.BatchID, len(e.streamByID))
	for i, st := range e.streamByID {
		next[i] = st.src.SealedTo() + 1
	}
	e.mu.Unlock()
	return e.coord.NextSN(next)
}

// LoadEncoded bulk-loads pre-encoded triples (generator hot path).
func (e *Engine) LoadEncoded(triples []strserver.EncodedTriple) {
	e.stored.LoadBase(triples)
}

// LoadReader reads N-Triples data and loads it as LoadTriples does, all or
// nothing: a bad line, or predicates that do not fit, load none of it.
func (e *Engine) LoadReader(r io.Reader) (int, error) {
	rd := rdf.NewReader(r)
	var triples []rdf.Triple
	for {
		t, err := rd.ReadTriple()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		triples = append(triples, t)
	}
	if err := e.LoadTriples(triples); err != nil {
		return 0, err
	}
	return len(triples), nil
}

// RegisterStream registers a stream and returns its source handle. The
// stream's mini-batch interval determines how its batches map to snapshot
// plans (SNCadence).
func (e *Engine) RegisterStream(cfg stream.Config) (*stream.Source, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.streams[cfg.Name]; ok {
		return nil, fmt.Errorf("core: stream %q already registered", cfg.Name)
	}
	// cfg is kept for the engine's life (streamState, StreamConfigsOrdered),
	// and its strings may be slices of a request line the caller reuses.
	cfg.Name = strings.Clone(cfg.Name)
	cfg.TimingPredicates = cloneStrings(cfg.TimingPredicates)
	if cfg.MaxPending == 0 && e.cfg.Flow.MaxPending > 0 {
		// Engine-wide admission default for streams that don't choose their
		// own bound.
		cfg.MaxPending = e.cfg.Flow.MaxPending
	}
	src, err := stream.NewSource(cfg, e.ss)
	if err != nil {
		return nil, err
	}
	rate := float64(e.cfg.SNCadence) / float64(cfg.BatchInterval)
	home := fabric.NodeID(e.nextHome % e.cfg.Nodes)
	e.nextHome++
	st := &streamState{
		id:     e.coord.AddStreamRate(rate),
		src:    src,
		index:  sindex.New(home),
		trans:  make([]*tstore.Store, e.cfg.Nodes),
		inject: make([]stream.InjectScratch, e.cfg.Nodes),
		home:   home,
		timing: len(cfg.TimingPredicates) > 0,
		cfg:    cfg,
	}
	for n := range st.trans {
		st.trans[n] = tstore.New(0)
	}
	e.registerStreamMetrics(st, cfg.Name)
	e.streams[cfg.Name] = st
	e.streamByID = append(e.streamByID, st)
	if e.ft != nil {
		if err := e.ftLogStream(st); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// cloneStrings copies a string slice and the bytes of every element. An
// empty slice becomes nil, so a config reads the same whichever encoding it
// was registered from.
func cloneStrings(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.Clone(s)
	}
	return out
}

// registerStreamMetrics installs the per-stream series, labeled by stream
// IRI. Injection counts, index/transient memory, GC reclaim, and stable-VTS
// lag all surface here — the one registry view unifying InjectionStats and
// StreamIndexBytes.
func (e *Engine) registerStreamMetrics(st *streamState, name string) {
	r := e.obs
	lbl := func(base string) string { return obs.Name(base, "stream", name) }
	st.mTuples = r.Counter(lbl("stream_tuples_total"))
	st.mBatches = r.Counter(lbl("stream_batches_total"))
	// Injection cost split (Table 6), read from the accumulated InjectStats.
	r.GaugeFunc(lbl("stream_inject_ns_total"), func() int64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		return int64(st.injectStats.InjectTime)
	})
	r.GaugeFunc(lbl("stream_index_ns_total"), func() int64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		return int64(st.injectStats.IndexTime)
	})
	// Stream index: memory (Table 7), lookups, GC reclaim.
	r.GaugeFunc(lbl("sindex_bytes"), func() int64 { return st.index.MemoryBytes() })
	r.GaugeFunc(lbl("sindex_lookups_total"), func() int64 { return st.index.Counters().Lookups })
	r.GaugeFunc(lbl("sindex_vertices_total"), func() int64 { return st.index.Counters().Vertices })
	r.GaugeFunc(lbl("sindex_gc_runs_total"), func() int64 { return st.index.Counters().GCRuns })
	r.GaugeFunc(lbl("sindex_gc_bytes_total"), func() int64 { return st.index.Counters().GCBytes })
	// Transient stores, aggregated across nodes.
	r.GaugeFunc(lbl("tstore_bytes"), func() int64 {
		var n int64
		for _, ts := range st.trans {
			n += ts.Stats().Bytes
		}
		return n
	})
	r.GaugeFunc(lbl("tstore_appends_total"), func() int64 {
		var n int64
		for _, ts := range st.trans {
			n += ts.Stats().Appends
		}
		return n
	})
	r.GaugeFunc(lbl("tstore_gets_total"), func() int64 {
		var n int64
		for _, ts := range st.trans {
			n += ts.Stats().Gets
		}
		return n
	})
	r.GaugeFunc(lbl("tstore_reclaimed_bytes_total"), func() int64 {
		var n int64
		for _, ts := range st.trans {
			n += ts.Stats().Reclaimed
		}
		return n
	})
	r.GaugeFunc(lbl("tstore_forced_gcs_total"), func() int64 {
		var n int64
		for _, ts := range st.trans {
			n += ts.Stats().ForcedGCs
		}
		return n
	})
	// How many batches the stable VTS trails this stream's newest insertion.
	r.GaugeFunc(lbl("vts_stable_lag_batches"), func() int64 {
		return int64(e.coord.StableLag(st.id))
	})
	// Admission accounting (flow_queue_* series, labeled by stream).
	st.src.QueueStats().Instrument(r, name)
}

// StreamNames returns the registered stream IRIs.
func (e *Engine) StreamNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.streams))
	for name := range e.streams {
		out = append(out, name)
	}
	return out
}

// StreamConfigsOrdered returns the configs of all registered streams in
// registration order. Replaying them through RegisterStream on a fresh
// engine reproduces stream IDs, coordinator slots, and round-robin homes.
func (e *Engine) StreamConfigsOrdered() []stream.Config {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]stream.Config, 0, len(e.streamByID))
	for _, st := range e.streamByID {
		out = append(out, st.cfg)
	}
	return out
}

// PendingEmits reports the total number of emitted-but-unsealed tuples
// across all streams. A snapshot is only quiescent when this is zero —
// pending tuples live nowhere but the adaptor buffers, so a snapshot taken
// now would silently drop them on restore.
func (e *Engine) PendingEmits() int {
	e.mu.Lock()
	states := append([]*streamState(nil), e.streamByID...)
	e.mu.Unlock()
	n := 0
	for _, st := range states {
		n += st.src.PendingLen()
	}
	return n
}

// SourceOf returns the source handle of a registered stream. Applications
// normally keep the handle RegisterStream returned; recovery re-registers
// streams internally, so recovered engines hand sources back through here.
func (e *Engine) SourceOf(name string) (*stream.Source, bool) {
	st, ok := e.streamOf(name)
	if !ok {
		return nil, false
	}
	return st.src, true
}

// streamOf looks up a stream state by IRI.
func (e *Engine) streamOf(name string) (*streamState, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.streams[name]
	return st, ok
}

// AdvanceTo drives the engine's logical clock to ts: seals due mini-batches
// on every stream, dispatches and injects them (updating vector timestamps
// and snapshot numbers), fires continuous queries whose windows became
// stable, and garbage-collects expired stream state. It blocks until all
// triggered work completes, so the store is consistent up to ts on return.
func (e *Engine) AdvanceTo(ts rdf.Timestamp) {
	e.mu.Lock()
	if ts <= e.now && e.now != 0 {
		e.mu.Unlock()
		return
	}
	e.now = ts
	streams := append([]*streamState(nil), e.streamByID...)
	e.mu.Unlock()
	e.tick.Add(1)
	start := time.Now()
	defer func() { e.hAdvance.Observe(time.Since(start)) }()

	// Phase 1: seal + inject every due batch. The injectors must keep all
	// batches with one snapshot number consecutive per key (§4.3), so
	// injection proceeds SN group by SN group: within a group streams run
	// concurrently (their batches in stream order), with a barrier before
	// the next SN. A load waits for the phase, since it writes above it.
	e.sealMu.RLock()
	type job struct {
		st *streamState
		b  stream.Batch
		sn uint32
	}
	perStream := make([][]job, 0, len(streams))
	snSet := map[uint32]bool{}
	for _, st := range streams {
		var jobs []job
		for _, b := range st.src.SealUpTo(ts) {
			sn := e.coord.SNForBatch(st.id, b.ID)
			jobs = append(jobs, job{st: st, b: b, sn: sn})
			snSet[sn] = true
		}
		if len(jobs) > 0 {
			perStream = append(perStream, jobs)
		}
	}
	sns := make([]uint32, 0, len(snSet))
	for sn := range snSet {
		sns = append(sns, sn)
	}
	sort.Slice(sns, func(i, j int) bool { return sns[i] < sns[j] })

	for _, sn := range sns {
		var groupWG sync.WaitGroup
		for si := range perStream {
			jobs := perStream[si]
			groupWG.Add(1)
			go func() {
				defer groupWG.Done()
				for _, j := range jobs {
					if j.sn != sn {
						continue
					}
					e.injectBatch(j.st, j.b, j.sn)
				}
			}()
		}
		groupWG.Wait()
	}
	e.sealMu.RUnlock()

	// Phase 2: fire continuous queries whose next windows are stable.
	t0 := time.Now()
	e.fireDueQueries(ts)
	e.hTrigger.Observe(time.Since(t0))

	// Phase 3: GC expired stream state and snapshot metadata.
	t0 = time.Now()
	e.collectGarbage()
	e.hGC.Observe(time.Since(t0))
}

// injectBatch dispatches one batch and injects it on all nodes, blocking
// until the batch is fully inserted and reported to the coordinator.
func (e *Engine) injectBatch(st *streamState, b stream.Batch, sn uint32) {
	st.injectMu.Lock()
	defer st.injectMu.Unlock()
	if e.ft != nil {
		e.ftLogBatch(st, b)
	}
	t0 := time.Now()
	work := stream.Dispatch(e.fab, st.home, b)
	e.hDispatch.Observe(time.Since(t0))
	var wg sync.WaitGroup
	for n := range work {
		n := fabric.NodeID(n)
		w := work[n]
		wg.Add(1)
		err := e.cluster.Submit(n, func() {
			defer wg.Done()
			stats := stream.InjectNode(n, w, b.ID, sn, stream.InjectTarget{
				Store:     e.stored,
				Index:     st.index,
				Transient: st.trans[n],
				Scratch:   &st.inject[n],
				Obs:       e.injObs,
			})
			st.mu.Lock()
			st.injectStats.Add(stats)
			st.mu.Unlock()
			e.coord.OnBatchInserted(n, st.id, b.ID)
		})
		if err != nil {
			// The cluster closed under a running tick (fabric.ErrClusterClosed):
			// the task will never run, so release its slot here.
			wg.Done()
		}
	}
	wg.Wait()
	st.mu.Lock()
	st.tupleCount += int64(len(b.Tuples))
	st.batchCount++
	st.mu.Unlock()
	e.hBatchTuples.Record(int64(len(b.Tuples)))
	st.mTuples.Add(int64(len(b.Tuples)))
	st.mBatches.Inc()
}

// InjectionStats returns a stream's accumulated injection cost split
// (Table 6).
func (e *Engine) InjectionStats(streamName string) (stream.InjectStats, int64, error) {
	st, ok := e.streamOf(streamName)
	if !ok {
		return stream.InjectStats{}, 0, fmt.Errorf("core: unknown stream %q", streamName)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.injectStats, st.batchCount, nil
}

// StreamIndexBytes returns the memory held by a stream's index (Table 7).
func (e *Engine) StreamIndexBytes(streamName string) (int64, error) {
	st, ok := e.streamOf(streamName)
	if !ok {
		return 0, fmt.Errorf("core: unknown stream %q", streamName)
	}
	return st.index.MemoryBytes(), nil
}

// collectGarbage frees transient slices and stream-index batches no
// registered window can reach, and prunes snapshot metadata below the
// stable SN.
func (e *Engine) collectGarbage() {
	e.mu.Lock()
	// Per stream, the oldest batch any registered continuous query still
	// needs (relative to the engine clock).
	needed := make(map[*streamState]tstore.BatchID)
	for _, st := range e.streamByID {
		needed[st] = st.src.BatchOf(e.now) + 1 // default: nothing needed
	}
	for _, cq := range e.continuous {
		for _, w := range cq.windows {
			st := w.state
			// The oldest batch the query can still touch: keep the most
			// recently fired window too — a re-execution (benchmarks,
			// at-least-once redelivery) may revisit it.
			lastFire := cq.nextFire - rdf.Timestamp(cq.stepMS)
			if lastFire < 0 {
				lastFire = 0
			}
			from := w.fromBatch(lastFire)
			if from < needed[st] {
				needed[st] = from
			}
		}
	}
	e.mu.Unlock()
	for st, before := range needed {
		st.index.GC(before)
		for _, ts := range st.trans {
			ts.GC(before)
		}
	}
	if sn := e.coord.StableSN(); sn > 0 {
		e.stored.PruneSnapshots(sn)
	}
}
