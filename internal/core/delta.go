// Delta-based incremental continuous-query evaluation (DESIGN.md §14).
//
// A sliding-window firing at `at` differs from the previous firing only by
// the batches that entered and left each window — yet full evaluation
// rescans every batch. The delta evaluator decomposes an eligible plan into
// a stored prefix (steps before the first stream pattern) and one segment
// per stream pattern (that pattern plus the non-stream steps that follow
// it). Because every stream edge belongs to exactly one mini-batch, and
// every step — a Check too — counts each matching edge once, the
// full join decomposes exactly over "batch vectors" — one batch choice per
// segment — and the firing's result is the concatenation of the per-vector
// leaf tables. Vectors whose coordinates all lie in the previous window were
// already computed and are reused from a per-query cache; only vectors
// touching a new batch evaluate. Expiry is exact: cached vectors with any
// coordinate outside the new window are dropped.
//
// Correctness rests on immutability: batch contents never change after
// injection, the persistent store is append-only, and executor tables are
// never mutated in place — so a cached table stays valid until one of the
// tracked invalidation signals fires (plan change, stored-predicate count
// drift, forced transient GC). Any signal rebuilds from scratch through the
// same descent, counted in cq_full_recompute_total{reason}; ineligible shapes
// (UNION/OPTIONAL/post-filters/variable predicates) always take the classic
// full path. A crosscheck mode re-runs the full evaluation after every
// delta firing and panics on divergence.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/tstore"
)

// maxDeltaCombos bounds the batch-vector count per firing: beyond it the
// cache would dwarf the window data and full recompute is cheaper.
const maxDeltaCombos = 4096

// deltaReasons enumerates the cq_full_recompute_total reason labels.
var deltaReasons = []string{
	"cold", "replan", "stored-drift", "tstore-evict", "shape", "no-overlap",
	"window-too-wide", "out-of-order",
}

func (e *Engine) countFullRecompute(reason string) {
	if c, ok := e.cFullRecomp[reason]; ok {
		c.Inc()
		return
	}
	e.obs.Counter("cq_full_recompute_total{reason=\"" + reason + "\"}").Inc()
}

// deltaEnabled reports whether delta evaluation is on for this engine.
func (e *Engine) deltaEnabled() bool { return e.cfg.DeltaMode != DeltaModeOff }

// deltaSeg is one plan segment: a stream step plus the following steps that
// decompose over its batches (filters, stored expands and checks).
type deltaSeg struct {
	stream string
	steps  []plan.Step
}

// deltaPlan is the segmentation of a compiled plan for delta evaluation.
type deltaPlan struct {
	fp         string      // plan fingerprint (shape, not estimates)
	pre        []plan.Step // stored steps before the first stream step
	segs       []deltaSeg  // one per stream step, in plan order
	streams    []string    // every stream read, deduped
	storedPids []rdf.ID    // stored-graph predicates read anywhere
}

// planFingerprint identifies a plan's executable shape. Cardinality
// estimates are deliberately excluded: drifting estimates that don't change
// the step order must not invalidate the cache.
func planFingerprint(p *plan.Plan) string {
	b := make([]byte, 0, 32*len(p.Steps))
	num := func(v uint64) {
		b = strconv.AppendUint(b, v, 10)
		b = append(b, ':')
	}
	endpoint := func(ep plan.Endpoint) {
		if ep.IsVar() {
			b = append(append(b, '?'), ep.Var...)
		} else {
			b = strconv.AppendUint(append(b, '#'), uint64(ep.Const), 10)
		}
	}
	for _, st := range p.Steps {
		if st.Kind == plan.Filter {
			b = fmt.Appendf(b, "f:%v;", st.Expr)
			continue
		}
		num(uint64(st.Kind))
		num(uint64(st.Pid))
		b = append(append(b, st.PVar...), ':')
		endpoint(st.From)
		b = append(b, '>')
		endpoint(st.To)
		b = append(b, ':')
		num(uint64(st.Dir))
		num(uint64(st.Graph.Kind))
		b = append(append(b, st.Graph.Name...), ';')
	}
	return string(b)
}

// splitDeltaPlan segments a compiled plan, or returns the shape reason it is
// ineligible. OPTIONAL/UNION/post-filter shapes re-examine the whole table
// (negation-like semantics), and variable predicates defeat the stored-drift
// check, so both fall back to full recompute.
//
// Every stream step — seed, expand or check — starts a new segment: each
// window edge lives in exactly one mini-batch, and a step emits a row once
// per matching edge, so the window's rows are the sum of the batches'.
func splitDeltaPlan(p *plan.Plan) (*deltaPlan, string) {
	if !deltaShape(p) {
		return nil, "shape"
	}
	dp := &deltaPlan{fp: planFingerprint(p)}
	cur := -1 // -1 = the stored prefix
	for _, st := range p.Steps {
		if st.Kind != plan.Filter {
			if st.PVar != "" {
				return nil, "shape"
			}
			if st.Graph.Kind == sparql.StreamGraph {
				if !slices.Contains(dp.streams, st.Graph.Name) {
					dp.streams = append(dp.streams, st.Graph.Name)
				}
				dp.segs = append(dp.segs, deltaSeg{stream: st.Graph.Name})
				cur = len(dp.segs) - 1
			} else if !slices.Contains(dp.storedPids, st.Pid) {
				dp.storedPids = append(dp.storedPids, st.Pid)
			}
		}
		if cur < 0 {
			dp.pre = append(dp.pre, st)
		} else {
			dp.segs[cur].steps = append(dp.segs[cur].steps, st)
		}
	}
	if len(dp.segs) == 0 {
		return nil, "shape" // no stream step: nothing slides
	}
	if len(dp.segs) > maxDeltaSegs {
		return nil, "shape" // vector keys are fixed-size; see maxDeltaSegs
	}
	return dp, ""
}

// deltaShape reports whether a plan is a plain step sequence — the only
// shape the delta evaluator segments.
func deltaShape(p *plan.Plan) bool {
	return p != nil && !p.Empty && len(p.Steps) > 0 &&
		len(p.Unions) == 0 && len(p.Optionals) == 0 && len(p.PostFilters) == 0
}

// deltaPlanFor returns p's segmentation, computed once per compiled plan and
// kept across a recompile that did not change the plan's shape (the per-tick
// replan usually moves only the estimates, which the fingerprint leaves out
// and the segmentation never reads). A deltaPlan is immutable, so every
// firing that runs p shares one.
func (cq *ContinuousQuery) deltaPlanFor(p *plan.Plan) (*deltaPlan, string) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if cq.splitOf != p {
		cq.splitOf = p
		if cq.split == nil || !deltaShape(p) || cq.split.fp != planFingerprint(p) {
			cq.split, cq.splitReason = splitDeltaPlan(p)
		}
	}
	return cq.split, cq.splitReason
}

// batchRange is one segment's window, in batch IDs.
type batchRange struct{ from, to tstore.BatchID }

// maxDeltaSegs caps the segment count so batch vectors pack into a fixed
// array key (no per-probe string building on the walk's hot path). Deeper
// plans would exceed maxDeltaCombos at any realistic window anyway.
const maxDeltaSegs = 4

// vecKey is a batch-vector prefix packed for map lookup. Each level's map
// fills exactly levels 0..level, so unused trailing slots (zero) cannot
// collide across prefix lengths.
type vecKey [maxDeltaSegs]tstore.BatchID

// deltaEntry is one cached batch-vector prefix: the binding table after
// evaluating segments 0..level with the vector's batch choices.
type deltaEntry struct {
	vec vecKey
	tbl *exec.Table
}

// batchEdges is a mini-batch's edge list for one (pred, dir), sorted by the
// from-side vertex (exec.WindowAccess.BatchEdges). Batch contents are
// immutable after injection (eviction bumps a tracked invalidation signal),
// so a list built once when the batch enters the window serves every later
// firing it remains in.
type batchEdges []exec.Edge

// from returns the edges leaving vertex v: one binary search.
func (be batchEdges) from(v rdf.ID) batchEdges {
	i := sort.Search(len(be), func(i int) bool { return be[i].From >= v })
	j := i
	for j < len(be) && be[j].From == v {
		j++
	}
	return be[i:j]
}

// memoStored wraps the stored-graph access with a memo that survives across
// firings. It is sound under the same invariants that keep cached tables
// exact: the persistent store is append-only and any per-predicate count
// drift resets the whole delta state — so a remembered neighbor list equals
// what a fresh snapshot read would return. Cached slices are shared; callers
// treat Neighbors results as read-only. Never used under fork-join (delta
// evaluation is pinned in-place), so the map and the miss scratch need no
// lock beyond ds.mu.
type memoStored struct {
	inner exec.Access
	memo  map[store.Key][]rdf.ID
	miss  *memoMisses
}

// memoMisses is the scratch of one memoStored read: the distinct keys the
// memo did not hold, each one's index among them, and for every caller key
// that missed, its position in out and its miss's index.
type memoMisses struct {
	keys []store.Key
	vals [][]rdf.ID
	slot map[store.Key]int
	to   [][2]int
}

// Neighbors serves memo hits and reads the distinct misses through the inner
// access in one call, so a key that repeats in keys is read once, as it was
// when each read went through the memo on its own.
func (m memoStored) Neighbors(from fabric.NodeID, keys []store.Key, out [][]rdf.ID) {
	ms := m.miss
	ms.keys, ms.to = ms.keys[:0], ms.to[:0]
	if ms.slot == nil {
		ms.slot = make(map[store.Key]int)
	}
	clear(ms.slot)
	for i, k := range keys {
		if ns, ok := m.memo[k]; ok {
			out[i] = ns
			continue
		}
		j, ok := ms.slot[k]
		if !ok {
			j = len(ms.keys)
			ms.slot[k] = j
			ms.keys = append(ms.keys, k)
		}
		ms.to = append(ms.to, [2]int{i, j})
	}
	if len(ms.keys) == 0 {
		return
	}
	ms.vals = slices.Grow(ms.vals[:0], len(ms.keys))[:len(ms.keys)]
	m.inner.Neighbors(from, ms.keys, ms.vals)
	for j, k := range ms.keys {
		m.memo[k] = ms.vals[j]
	}
	for _, t := range ms.to {
		out[t[0]] = ms.vals[t[1]]
	}
	clear(ms.vals)
}

func (m memoStored) Candidates(from fabric.NodeID, pid rdf.ID, d store.Dir) []rdf.ID {
	return m.inner.Candidates(from, pid, d)
}

func (m memoStored) LocalCandidates(n fabric.NodeID, pid rdf.ID, d store.Dir) []rdf.ID {
	return m.inner.LocalCandidates(n, pid, d)
}

// deltaState is a continuous query's delta-evaluation cache. Its own mutex
// (not cq.mu) serializes evaluation: fireDueQueries may run two firings of
// one query concurrently, and the later-at firing must see the earlier's
// committed state or fall back.
type deltaState struct {
	mu    sync.Mutex
	valid bool

	fp           string
	forcedGCs    int64   // summed over involved streams' transient stores
	storedCounts []int64 // per dp.storedPids entry
	lastAt       rdf.Timestamp

	pre      *exec.Table
	levels   []map[vecKey]deltaEntry         // levels[i]: vector prefix of length i+1
	segEdges []map[tstore.BatchID]batchEdges // per level: batch edge lists
	stored   map[store.Key][]rdf.ID          // cross-firing stored-read memo
	misses   memoMisses                      // the memo's read scratch
}

// checkValid returns the first failing invalidation signal, or "" when every
// cached table is still exact. Caller holds ds.mu.
func (ds *deltaState) checkValid(e *Engine, dp *deltaPlan) string {
	if !ds.valid {
		return "cold"
	}
	if ds.fp != dp.fp {
		return "replan"
	}
	if len(ds.storedCounts) != len(dp.storedPids) {
		return "replan"
	}
	if ds.forcedGCs != e.forcedGCsFor(dp) {
		return "tstore-evict"
	}
	for i, pid := range dp.storedPids {
		if edges, _, _ := e.stored.Stats(pid); edges != ds.storedCounts[i] {
			// The persistent store is append-only: an equal per-predicate
			// edge count implies identical contents at any stable snapshot.
			return "stored-drift"
		}
	}
	return ""
}

// forcedGCsFor sums forced transient GCs across the plan's streams — any
// bump means a batch inside some window may have been evicted early.
func (e *Engine) forcedGCsFor(dp *deltaPlan) int64 {
	var n int64
	for _, name := range dp.streams {
		st, ok := e.streamOf(name)
		if !ok {
			continue
		}
		for _, ts := range st.trans {
			n += ts.Stats().ForcedGCs
		}
	}
	return n
}

// reset clears the cache and re-captures every invalidation signal's current
// value. Caller holds ds.mu.
func (ds *deltaState) reset(e *Engine, dp *deltaPlan) {
	ds.valid = false
	ds.fp = dp.fp
	ds.forcedGCs = e.forcedGCsFor(dp)
	ds.storedCounts = make([]int64, len(dp.storedPids))
	for i, pid := range dp.storedPids {
		ds.storedCounts[i], _, _ = e.stored.Stats(pid)
	}
	ds.pre = nil
	ds.levels = make([]map[vecKey]deltaEntry, len(dp.segs))
	ds.segEdges = make([]map[tstore.BatchID]batchEdges, len(dp.segs))
	for i := range ds.levels {
		ds.levels[i] = map[vecKey]deltaEntry{}
		ds.segEdges[i] = map[tstore.BatchID]batchEdges{}
	}
	ds.stored = map[store.Key][]rdf.ID{}
}

// expire drops cached vectors with any coordinate outside the new windows —
// the "tuples that left the window" half of the delta — along with the edge
// lists of batches that left. Caller holds ds.mu.
func (ds *deltaState) expire(wins []batchRange) {
	for lvl, m := range ds.levels {
		for k, ent := range m {
			for j := 0; j <= lvl && j < len(wins); j++ {
				if ent.vec[j] < wins[j].from || ent.vec[j] > wins[j].to {
					delete(m, k)
					break
				}
			}
		}
	}
	for lvl, m := range ds.segEdges {
		if lvl >= len(wins) {
			continue
		}
		for b := range m {
			if b < wins[lvl].from || b > wins[lvl].to {
				delete(m, b)
			}
		}
	}
}

// windowFor finds the compiled window bound to a stream name (cq.windows is
// parallel to cq.query.Windows).
func (cq *ContinuousQuery) windowFor(stream string) (queryWindow, bool) {
	for i, w := range cq.query.Windows {
		if w.Stream == stream && i < len(cq.windows) {
			return cq.windows[i], true
		}
	}
	return queryWindow{}, false
}

// batchProvider clones the firing's provider with one stream's window
// restricted to a single batch — the segment evaluator's data source.
func (e *Engine) batchProvider(base *accessProvider, stream string, b tstore.BatchID) *accessProvider {
	out := &accessProvider{stored: base.stored, memo: base.memo, byName: base.byName}
	if wa, ok := base.byName[stream]; ok {
		out.narrowName, out.narrow = stream, *wa
		out.narrow.From, out.narrow.To = b, b
	}
	return out
}

// deltaRequest builds the exec request for delta segment evaluation. It
// always runs in-place, whatever mode the cost model picked for the full
// plan: each evaluation here touches a single mini-batch, so its table is
// ~1/B of the window's and fork-join's real dispatch through the fabric
// workers costs far more than the traversal itself (profiling showed the
// dispatch dominating two-segment firings ~50x). The full path keeps the
// adaptive mode — its tables are window-sized.
func (e *Engine) deltaRequest(cq *ContinuousQuery, prov *accessProvider, ctx context.Context) exec.Request {
	return exec.Request{
		Node:          cq.Home(),
		Mode:          exec.InPlace,
		Access:        prov,
		Resolver:      e.ss,
		ForkThreshold: e.cfg.ForkThreshold,
		Ctx:           ctx,
	}
}

// walkState carries one firing's evaluation context through the batch-vector
// descent: staged (uncommitted) tables and edge lists, the per-level parent
// row estimates that drive the build-vs-probe decision, and the reuse count.
type walkState struct {
	e           *Engine
	cq          *ContinuousQuery
	ctx         context.Context
	base        *accessProvider
	dp          *deltaPlan
	ds          *deltaState
	wins        []batchRange
	staged      [][]deltaEntry                  // per level: this firing's new entries, committed on success
	stagedEdges []map[tstore.BatchID]batchEdges // lazily allocated per level
	noEdges     []map[tstore.BatchID]bool       // this firing's "too sparse to build" memo
	parentEst   []int                           // per level: cached parent-table row total
	leaves      []*exec.Table
	reused      int
}

// batchEdgeScan enumerates one mini-batch's edges for (st.Pid, st.Dir)
// through the window access's one-run path. ok is false when the stream has
// no window access (shouldn't happen for a split plan — the caller falls
// back to the per-row path).
func (ws *walkState) batchEdgeScan(stream string, b tstore.BatchID, st plan.Step) (batchEdges, bool) {
	wa, ok := ws.base.byName[stream]
	if !ok {
		return nil, false
	}
	return wa.BatchEdges(ws.cq.Home(), b, st.Pid, st.Dir), true
}

// edgesFor returns the edge list for (level, b), building and staging it on
// first use. ok is false when the per-row Neighbors path is cheaper for this
// level: building costs one span read per batch edge paid once per batch
// lifetime, per-row costs one read per probing row per firing, so sparse
// parents (an anchored prefix) skip the build.
func (ws *walkState) edgesFor(level int, b tstore.BatchID, st plan.Step, stream string, inRows int) (batchEdges, bool) {
	if be, ok := ws.ds.segEdges[level][b]; ok {
		return be, true
	}
	if be, ok := ws.stagedEdges[level][b]; ok {
		return be, true
	}
	if ws.noEdges[level][b] {
		return nil, false
	}
	// Cheap prior before paying the batch walk (its cost is proportional to
	// the batch's edges): a level whose parents are sparse against the
	// stream's mean batch size skips the build. A mis-skip costs per-row
	// reads, never correctness.
	if ss, ok := ws.e.streamOf(stream); ok {
		if est := ss.avgTuplesPerBatch(); est > float64(2*ws.parentEst[level]) && est > float64(2*inRows) {
			if ws.noEdges[level] == nil {
				ws.noEdges[level] = map[tstore.BatchID]bool{}
			}
			ws.noEdges[level][b] = true
			return nil, false
		}
	}
	be, ok := ws.batchEdgeScan(stream, b, st)
	if !ok {
		return nil, false
	}
	if ws.stagedEdges[level] == nil {
		ws.stagedEdges[level] = map[tstore.BatchID]batchEdges{}
	}
	ws.stagedEdges[level][b] = be
	return be, true
}

// segEval computes the binding table for one (vector prefix, batch) pair.
// A segment-leading index seed expands from the batch's one-run edge scan;
// a segment-leading Expand joins against the batch's sorted edge list when
// available; everything else (constant seeds, stream checks, sparse levels,
// the segment's trailing stored steps) runs through the normal step applier
// restricted to the batch.
func (ws *walkState) segEval(level int, b tstore.BatchID, in *exec.Table) (*exec.Table, error) {
	// The in-memory fast paths below never reach the step applier's deadline
	// checks, so honor cancellation here — once per (vector, batch) pair.
	if err := ws.ctx.Err(); err != nil {
		return nil, err
	}
	seg := ws.dp.segs[level]
	st := seg.steps[0]
	if st.Kind == plan.SeedIndex {
		// A seed's candidate enumeration already walks the whole batch, so
		// the one-run scan is never a loss — and it is evaluated once per
		// batch (the level table is cached), so the list is not kept.
		if be, ok := ws.batchEdgeScan(seg.stream, b, st); ok {
			return ws.segRest(level, b, seedCrossBind(st, in, be), seg.steps[1:])
		}
	}
	if st.Kind == plan.Expand && st.To.IsVar() && in.Col(st.To.Var) < 0 &&
		(!st.From.IsVar() || in.Col(st.From.Var) >= 0) {
		if be, ok := ws.edgesFor(level, b, st, seg.stream, in.Len()); ok {
			return ws.segRest(level, b, joinExpand(st, in, be), seg.steps[1:])
		}
	}
	prov := ws.e.batchProvider(ws.base, seg.stream, b)
	return ws.e.ex.ApplySteps(ws.e.deltaRequest(ws.cq, prov, ws.ctx), seg.steps, in)
}

// segRest applies a segment's remaining steps after an in-memory join.
func (ws *walkState) segRest(level int, b tstore.BatchID, tbl *exec.Table, rest []plan.Step) (*exec.Table, error) {
	if len(rest) == 0 || tbl.Len() == 0 {
		return tbl, nil
	}
	seg := ws.dp.segs[level]
	prov := ws.e.batchProvider(ws.base, seg.stream, b)
	return ws.e.ex.ApplySteps(ws.e.deltaRequest(ws.cq, prov, ws.ctx), rest, tbl)
}

// seedCrossBind mirrors the executor's index-seed expansion against a batch
// edge list, walked in vertex order: the same pair set as expandSeeds (To-const filter included) fed
// through crossBind's cartesian attach, including the ?x p ?x self-loop
// handling — the identical row multiset to the Candidates+Neighbors path.
func seedCrossBind(st plan.Step, in *exec.Table, be batchEdges) *exec.Table {
	out := &exec.Table{Vars: append(make([]string, 0, len(in.Vars)+2), in.Vars...)}
	fromCol, toCol := -1, -1
	if st.From.IsVar() {
		fromCol = len(out.Vars)
		out.Vars = append(out.Vars, st.From.Var)
	}
	if st.To.IsVar() && st.To.Var != st.From.Var {
		toCol = len(out.Vars)
		out.Vars = append(out.Vars, st.To.Var)
	}
	out.Grow(in.Len() * len(be))
	for i := 0; i < in.Len(); i++ {
		row := in.Row(i)
		for _, e := range be {
			if !st.To.IsVar() && e.To != st.To.Const {
				continue
			}
			if st.To.IsVar() && st.To.Var == st.From.Var && e.From != e.To {
				continue // ?x p ?x self-loop pattern
			}
			nr := out.AddRow()
			copy(nr, row)
			if fromCol >= 0 {
				nr[fromCol] = e.From
			}
			if toCol >= 0 {
				nr[toCol] = e.To
			}
		}
	}
	return out
}

// joinExpand mirrors the executor's Expand traversal against a batch edge
// list, probed by binary search: one output row per (input row, matching edge), the new
// var bound last — the identical row multiset to the per-row Neighbors path.
func joinExpand(st plan.Step, in *exec.Table, be batchEdges) *exec.Table {
	fromCol := -1
	if st.From.IsVar() {
		fromCol = in.Col(st.From.Var)
	}
	out := &exec.Table{Vars: exec.WithVars(in.Vars, st.To.Var)}
	origin := func(row []rdf.ID) rdf.ID {
		if fromCol >= 0 {
			return row[fromCol]
		}
		return st.From.Const
	}
	// Count the matches first (one more probe per input row) so the output
	// is one allocation of the right size, not a doubling slice.
	n := 0
	for i := 0; i < in.Len(); i++ {
		n += len(be.from(origin(in.Row(i))))
	}
	if n == 0 {
		return out
	}
	out.Grow(n)
	for i := 0; i < in.Len(); i++ {
		row := in.Row(i)
		for _, e := range be.from(origin(row)) {
			out.AppendExtended(row, e.To)
		}
	}
	return out
}

// deltaExecute evaluates one firing delta-based. handled=false means the
// firing must take the classic full path (ineligible shape, out-of-order
// firing, too-wide window); the fallback reason is already counted. With
// handled=true, rs/err carry the evaluation outcome and lat the wall time
// of the delta evaluation alone.
func (e *Engine) deltaExecute(cq *ContinuousQuery, p *plan.Plan, at rdf.Timestamp, mode exec.Mode, ctx context.Context) (rs *exec.ResultSet, lat time.Duration, err error, handled bool) {
	dp, reason := cq.deltaPlanFor(p)
	if dp == nil {
		e.countFullRecompute(reason)
		return nil, 0, nil, false
	}
	wins := make([]batchRange, len(dp.segs))
	combos := int64(1)
	for i, seg := range dp.segs {
		qw, ok := cq.windowFor(seg.stream)
		if !ok {
			e.countFullRecompute("shape")
			return nil, 0, nil, false
		}
		wins[i] = batchRange{from: qw.fromBatch(at), to: qw.toBatch(at)}
		if n := int64(wins[i].to - wins[i].from + 1); n > 0 {
			combos *= n
		}
		if combos > maxDeltaCombos {
			e.countFullRecompute("window-too-wide")
			return nil, 0, nil, false
		}
	}

	ds := &cq.delta
	ds.mu.Lock()
	start := time.Now()
	if ds.valid && at <= ds.lastAt {
		// A concurrent or re-fired earlier boundary: evaluating it against
		// state committed for a later window would corrupt the cache. Run it
		// through the classic full path without touching state.
		ds.mu.Unlock()
		e.countFullRecompute("out-of-order")
		return nil, 0, nil, false
	}
	reason = ds.checkValid(e, dp)
	if reason != "" {
		ds.reset(e, dp)
	}
	ds.expire(wins)

	// Evaluate: ensure the stored prefix and every in-window batch vector,
	// staging new entries and committing only on full success — a failed
	// evaluation (a deadline) leaves the cache exactly as the last
	// successful firing did.
	base := e.providerFor(cq.query, at)
	base.memo = memoStored{inner: base.stored, memo: ds.stored, miss: &ds.misses}
	pre := ds.pre
	if pre == nil {
		pre = exec.Unit()
		if len(dp.pre) > 0 {
			pre, err = e.ex.ApplySteps(e.deltaRequest(cq, base, ctx), dp.pre, pre)
			if err != nil {
				ds.mu.Unlock()
				return nil, time.Since(start), err, true
			}
		}
	}

	ws := &walkState{
		e: e, cq: cq, ctx: ctx, base: base, dp: dp, ds: ds, wins: wins,
		staged:      make([][]deltaEntry, len(dp.segs)),
		stagedEdges: make([]map[tstore.BatchID]batchEdges, len(dp.segs)),
		noEdges:     make([]map[tstore.BatchID]bool, len(dp.segs)),
		parentEst:   make([]int, len(dp.segs)),
	}
	ws.parentEst[0] = pre.Len()
	for l := 1; l < len(dp.segs); l++ {
		for _, ent := range ds.levels[l-1] {
			ws.parentEst[l] += ent.tbl.Len()
		}
	}
	var walk func(level int, prefix vecKey, in *exec.Table) error
	walk = func(level int, prefix vecKey, in *exec.Table) error {
		for b := wins[level].from; b <= wins[level].to; b++ {
			key := prefix
			key[level] = b
			var tbl *exec.Table
			// The descent enumerates distinct vectors, so a key not yet in
			// the cache has not been staged by this firing either.
			if ent, ok := ds.levels[level][key]; ok {
				tbl = ent.tbl
				ws.reused++
			} else {
				var werr error
				tbl, werr = ws.segEval(level, b, in)
				if werr != nil {
					return werr
				}
				ws.staged[level] = append(ws.staged[level], deltaEntry{vec: key, tbl: tbl})
			}
			if tbl.Len() == 0 {
				continue // an empty prefix joins to nothing deeper down
			}
			if level == len(dp.segs)-1 {
				ws.leaves = append(ws.leaves, tbl)
			} else if err := walk(level+1, key, tbl); err != nil {
				return err
			}
		}
		return nil
	}
	if pre.Len() > 0 {
		err = walk(0, vecKey{}, pre)
	}
	if err != nil {
		ds.mu.Unlock()
		return nil, time.Since(start), err, true
	}
	leaves, reused := ws.leaves, ws.reused

	// Commit.
	ds.pre = pre
	for i := range ws.staged {
		for _, ent := range ws.staged[i] {
			ds.levels[i][ent.vec] = ent
		}
		for b, be := range ws.stagedEdges[i] {
			ds.segEdges[i][b] = be
		}
	}
	ds.lastAt = at
	ds.valid = true

	// Assemble: concatenated leaves carry exactly the full evaluation's row
	// multiset, then Project applies DISTINCT/aggregates/ORDER/LIMIT
	// identically. A lone leaf is projected in place: cached tables are
	// never written again.
	if len(leaves) > 0 {
		rs, err = exec.Project(cq.query, exec.Concat(leaves[0].Vars, leaves), e.ss)
		if err != nil {
			ds.mu.Unlock()
			return nil, time.Since(start), err, true
		}
	} else {
		rs = exec.EmptyResult(cq.query)
	}
	lat = time.Since(start)
	ds.mu.Unlock()

	switch {
	case reason != "":
		e.countFullRecompute(reason)
	case reused == 0:
		e.countFullRecompute("no-overlap")
	default:
		e.cDeltaFirings.Inc()
	}

	if e.cfg.DeltaCrosscheck {
		e.crosscheckDelta(cq, p, at, mode, rs)
	}
	return rs, lat, nil, true
}

// crosscheckDelta re-runs the firing through the classic full evaluator and
// panics if the delta result diverges — the delta≡full assertion. Runs
// outside the state lock and outside the recorded latency. A full-path
// failure (a deadline) skips the comparison: there is nothing sound to
// compare against, and the delta evaluation itself read its data
// successfully.
func (e *Engine) crosscheckDelta(cq *ContinuousQuery, p *plan.Plan, at rdf.Timestamp, mode exec.Mode, got *exec.ResultSet) {
	full, _, err := e.ex.Execute(exec.Request{
		Node:             cq.Home(),
		Mode:             mode,
		Access:           e.providerFor(cq.query, at),
		Resolver:         e.ss,
		ForkThreshold:    e.cfg.ForkThreshold,
		SimulateParallel: true,
	}, p)
	if err != nil {
		return
	}
	g, f := canonicalResult(got), canonicalResult(full)
	if g != f {
		panic(fmt.Sprintf("core: delta/full divergence for %s at %d:\ndelta:\n%s\nfull:\n%s",
			cq.Name, at, g, f))
	}
}

// canonicalResult renders a result set order-independently (execution row
// order is nondeterministic in both evaluators), leaving rs as it was.
func canonicalResult(rs *exec.ResultSet) string {
	rows := make([]string, rs.Len())
	var b strings.Builder
	for i := range rows {
		b.Reset()
		for j := range rs.Vars {
			b.WriteString(rs.Cell(i, j).String())
			b.WriteByte(' ')
		}
		rows[i] = b.String()
	}
	sort.Strings(rows)
	return fmt.Sprintf("%v\n", rs.Vars) + strings.Join(rows, "\n")
}
