package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Mode selects the execution strategy.
type Mode uint8

const (
	// InPlace runs the whole plan on one node; remote data arrives via
	// one-sided reads.
	InPlace Mode = iota
	// ForkJoin scatters expansion steps to data home nodes and gathers.
	ForkJoin
)

func (m Mode) String() string {
	if m == InPlace {
		return "in-place"
	}
	return "fork-join"
}

// TermResolver resolves FILTER operand terms and numeric values. The string
// server implements it.
type TermResolver interface {
	LookupEntity(t rdf.Term) (rdf.ID, bool)
	Numeric(id rdf.ID) (float64, bool)
}

// Request configures one query execution.
type Request struct {
	Node     fabric.NodeID // the node the query runs on (its engine's home)
	Mode     Mode
	Access   Provider
	Resolver TermResolver
	// Ctx, when non-nil, bounds the execution: deadlines and cancellations
	// are polled between steps and inside row loops, so an overloaded engine
	// can abandon a query instead of holding a worker indefinitely. The
	// execution returns the context's error (context.DeadlineExceeded or
	// context.Canceled).
	Ctx context.Context
	// ForkThreshold is the minimum table size that triggers scatter/gather
	// in ForkJoin mode (default 32).
	ForkThreshold int
	// SimulateParallel makes fork-join stages execute their per-node
	// branches sequentially while reporting critical-path latency
	// (sequential parts + the slowest branch): on a single host this is
	// the wall time an N-node cluster would observe. The engine enables it;
	// leave false to measure raw single-host wall time.
	SimulateParallel bool

	savings *atomic.Int64 // accumulated (sum - max) branch time
}

// StepTrace records one step's contribution, for the Fig. 4-style breakdown.
// Step is the plan step itself, not its text: a reader that prints the trace
// calls Step.String(), and a query whose trace nobody prints formats nothing.
type StepTrace struct {
	Step    plan.Step
	Rows    int
	Elapsed time.Duration
}

// Trace is the per-step execution record.
type Trace struct {
	Steps []StepTrace
	// Total is the query's latency. With SimulateParallel it is the
	// critical-path time (wall minus the time parallel branches would have
	// overlapped on a real cluster); otherwise it equals Wall.
	Total time.Duration
	// Wall is the raw single-host wall time.
	Wall time.Duration
}

// ctxStride is how many rows a traversal processes between context polls:
// frequent enough that a deadline cuts a runaway expansion off quickly, rare
// enough that the check is free on the sub-millisecond fast path.
const ctxStride = 1024

// ctxErr returns the request context's error, if any.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Executor runs compiled plans on a cluster.
type Executor struct {
	cluster *fabric.Cluster
}

// New creates an executor over a cluster.
func New(c *fabric.Cluster) *Executor { return &Executor{cluster: c} }

// Cluster returns the underlying cluster.
func (ex *Executor) Cluster() *fabric.Cluster { return ex.cluster }

// Execute runs a plan and projects the query's SELECT clause.
func (ex *Executor) Execute(req Request, p *plan.Plan) (*ResultSet, *Trace, error) {
	start := time.Now()
	trace := &Trace{}
	if req.ForkThreshold <= 0 {
		req.ForkThreshold = 32
	}
	req.savings = new(atomic.Int64)
	if p.Empty {
		trace.Total = time.Since(start)
		trace.Wall = trace.Total
		return EmptyResult(p.Query), trace, nil
	}
	if len(p.Unions) > 0 {
		return ex.executeUnion(req, p, start, trace)
	}
	tbl := Unit()
	trace.Steps = make([]StepTrace, 0, len(p.Steps))
	for _, st := range p.Steps {
		if err := ctxErr(req.Ctx); err != nil {
			return nil, trace, err
		}
		stepStart := time.Now()
		var err error
		tbl, err = ex.applyStep(req, st, tbl)
		if err != nil {
			return nil, trace, err
		}
		trace.Steps = append(trace.Steps, StepTrace{
			Step:    st,
			Rows:    tbl.Len(),
			Elapsed: time.Since(stepStart),
		})
		if tbl.Len() == 0 {
			// No bindings survive: the result is empty regardless of the
			// remaining steps (which may bind the projected variables).
			trace.Wall = time.Since(start)
			trace.Total = trace.Wall - time.Duration(req.savings.Load())
			return EmptyResult(p.Query), trace, nil
		}
	}
	for _, og := range p.Optionals {
		if err := ctxErr(req.Ctx); err != nil {
			return nil, trace, err
		}
		var err error
		tbl, err = ex.applyOptional(req, og, tbl)
		if err != nil {
			return nil, trace, err
		}
	}
	for _, f := range p.PostFilters {
		var err error
		tbl, err = applyFilter(req.Resolver, f, tbl)
		if err != nil {
			return nil, trace, err
		}
	}
	rs, err := Project(p.Query, tbl, req.Resolver)
	trace.Wall = time.Since(start)
	trace.Total = trace.Wall - time.Duration(req.savings.Load())
	if trace.Total < 0 {
		trace.Total = 0
	}
	return rs, trace, err
}

// executeUnion runs each UNION branch and unions the projected rows, then
// applies the top query's DISTINCT and solution modifiers once.
func (ex *Executor) executeUnion(req Request, p *plan.Plan, start time.Time, trace *Trace) (*ResultSet, *Trace, error) {
	vars := make([]string, len(p.Query.Select))
	for i, pr := range p.Query.Select {
		vars[i] = pr.As
	}
	out := idResult(vars)
	var seen map[string]bool
	var row []rdf.ID
	var key []byte
	if p.Query.Distinct {
		seen = make(map[string]bool)
	}
	for _, bp := range p.Unions {
		if err := ctxErr(req.Ctx); err != nil {
			return nil, trace, err
		}
		rs, btr, err := ex.Execute(req, bp)
		if err != nil {
			return nil, trace, err
		}
		trace.Steps = append(trace.Steps, btr.Steps...)
		for i := 0; i < rs.Len(); i++ {
			row = row[:0]
			for j := range vars {
				row = append(row, rs.Cell(i, j).ID)
			}
			if seen != nil {
				key = appendRowKey(key[:0], row, out.cols)
				if seen[string(key)] {
					continue
				}
				seen[string(key)] = true
			}
			out.ids = append(out.ids, row...)
			out.n++
		}
	}
	out = applyModifiers(p.Query, out, req.Resolver)
	trace.Wall = time.Since(start)
	trace.Total = trace.Wall - time.Duration(req.savings.Load())
	if trace.Total < 0 {
		trace.Total = 0
	}
	return out, trace, nil
}

// Unbound is the sentinel cell value for variables an OPTIONAL group left
// unbound (entity IDs start at 1, so 0 is free).
const Unbound rdf.ID = 0

// PredTagBit marks a result cell as holding a predicate-space ID (bound by
// a variable-predicate pattern). Entity IDs are 46-bit, so the bit never
// collides.
const PredTagBit rdf.ID = 1 << 62

// TagPred marks a predicate ID for storage in a binding cell.
func TagPred(pid rdf.ID) rdf.ID { return pid | PredTagBit }

// UntagPred recovers a predicate ID from a tagged cell; ok is false if the
// cell holds an entity.
func UntagPred(id rdf.ID) (rdf.ID, bool) {
	if id&PredTagBit == 0 {
		return 0, false
	}
	return id &^ PredTagBit, true
}

// applyOptional left-joins one OPTIONAL group: each solution row either
// extends with the group's matches or keeps its bindings with the group's
// new variables unbound.
func (ex *Executor) applyOptional(req Request, og plan.OptionalSteps, tbl *Table) (*Table, error) {
	var newVars []string
	for _, v := range og.Vars {
		if tbl.Col(v) < 0 {
			newVars = append(newVars, v)
		}
	}
	out := &Table{Vars: WithVars(tbl.Vars, newVars...)}
	// A padded row's new cells stay 0 == Unbound.
	if og.Never || len(og.Steps) == 0 {
		out.Grow(tbl.Len())
		for i := 0; i < tbl.Len(); i++ {
			copy(out.AddRow(), tbl.Row(i))
		}
		return out, nil
	}
	for i := 0; i < tbl.Len(); i++ {
		row := tbl.Row(i)
		sub := &Table{Vars: tbl.Vars, Cells: row, rows: 1}
		res, err := ex.ApplySteps(req, og.Steps, sub)
		if err != nil {
			return nil, err
		}
		if res.Len() == 0 {
			copy(out.AddRow(), row)
			continue
		}
		cols := make([]int, len(newVars))
		for j, v := range newVars {
			cols[j] = res.Col(v)
		}
		for r := 0; r < res.Len(); r++ {
			rr := res.Row(r)
			nr := out.AddRow()
			copy(nr, rr[:len(tbl.Vars)])
			for j, c := range cols {
				if c >= 0 {
					nr[len(tbl.Vars)+j] = rr[c]
				}
			}
		}
	}
	return out, nil
}

// ApplySteps runs plan steps over an existing binding table and returns the
// extended table. The composite baseline uses this to hand its stream
// processor's intermediate results to the Wukong sub-component ("embedding
// all tuples into a single query", §2.3 footnote).
func (ex *Executor) ApplySteps(req Request, steps []plan.Step, tbl *Table) (*Table, error) {
	if req.ForkThreshold <= 0 {
		req.ForkThreshold = 32
	}
	for _, st := range steps {
		if err := ctxErr(req.Ctx); err != nil {
			return nil, err
		}
		var err error
		tbl, err = ex.applyStep(req, st, tbl)
		if err != nil {
			return nil, err
		}
		if tbl.Len() == 0 {
			return tbl, nil
		}
	}
	return tbl, nil
}

func (ex *Executor) applyStep(req Request, st plan.Step, tbl *Table) (*Table, error) {
	if st.Kind == plan.Filter {
		return applyFilter(req.Resolver, st.Expr, tbl)
	}
	acc, err := req.Access.Access(st.Graph)
	if err != nil {
		return nil, err
	}
	switch st.Kind {
	case plan.SeedConst, plan.SeedIndex:
		return ex.applySeed(req, acc, st, tbl)
	case plan.Expand, plan.Check:
		return ex.applyTraversal(req, acc, st, tbl)
	default:
		return nil, fmt.Errorf("exec: unknown step kind %v", st.Kind)
	}
}

// applySeed seeds bindings from a constant or an index vertex and expands
// the seeding pattern. A non-empty incoming table (disconnected pattern
// groups) gets the cartesian product.
func (ex *Executor) applySeed(req Request, acc Access, st plan.Step, tbl *Table) (*Table, error) {
	var seeds []rdf.ID
	switch st.Kind {
	case plan.SeedConst:
		seeds = []rdf.ID{st.From.Const}
	case plan.SeedIndex:
		if req.Mode == ForkJoin {
			return ex.forkJoinIndexSeed(req, acc, st, tbl)
		}
		seeds = acc.Candidates(req.Node, st.Pid, st.Dir)
	}
	return crossBind(tbl, expandSeeds(acc, req.Node, seeds, st)), nil
}

// seedVars returns the variables a seeding pattern binds: its origin's,
// then its target's.
func seedVars(st plan.Step) []string {
	var vars []string
	if st.From.IsVar() {
		vars = append(vars, st.From.Var)
	}
	if st.To.IsVar() && st.To.Var != st.From.Var {
		vars = append(vars, st.To.Var)
	}
	return vars
}

// expandSeeds follows the seeding pattern's edges for every seed, reading
// ctxStride seeds per Neighbors call, and returns the bindings they make:
// a table over seedVars(st).
func expandSeeds(acc Access, node fabric.NodeID, seeds []rdf.ID, st plan.Step) *Table {
	out := &Table{Vars: seedVars(st)}
	fromVar := st.From.IsVar()
	toVar := st.To.IsVar() && st.To.Var != st.From.Var
	selfLoop := st.To.IsVar() && st.To.Var == st.From.Var // ?x p ?x
	fr := getFrontier()
	defer fr.release()
	for lo := 0; lo < len(seeds); lo += ctxStride {
		chunk := seeds[lo:min(lo+ctxStride, len(seeds))]
		fr.size(len(chunk))
		for i, s := range chunk {
			fr.keys[i] = store.EdgeKey(s, st.Pid, st.Dir)
		}
		acc.Neighbors(node, fr.keys, fr.vals)
		n := 0
		for _, ns := range fr.vals {
			n += len(ns)
		}
		out.Grow(n)
		for i, s := range chunk {
			for _, n := range fr.vals[i] {
				if !st.To.IsVar() && n != st.To.Const || selfLoop && s != n {
					continue
				}
				if fromVar {
					out.Cells = append(out.Cells, s)
				}
				if toVar {
					out.Cells = append(out.Cells, n)
				}
				out.rows++
			}
		}
	}
	return out
}

// crossBind attaches a seed's bindings to the incoming table: the cartesian
// product, which is the seed table itself when the incoming table is the
// unit seed (the common case).
func crossBind(tbl, seed *Table) *Table {
	if tbl.Len() == 1 && len(tbl.Vars) == 0 {
		return seed
	}
	out := &Table{Vars: WithVars(tbl.Vars, seed.Vars...)}
	out.Cells = make([]rdf.ID, 0, tbl.Len()*seed.Len()*len(out.Vars))
	for i := 0; i < tbl.Len(); i++ {
		row := tbl.Row(i)
		for j := 0; j < seed.Len(); j++ {
			out.Cells = append(append(out.Cells, row...), seed.Row(j)...)
		}
	}
	out.rows = tbl.Len() * seed.Len()
	return out
}

// forkJoinIndexSeed runs an index seed fork-join style: the candidate set
// is read once (index vertices / stream index), partitioned by home node,
// and each node expands its own partition in parallel against local data.
// Sub-tasks run on their own goroutines rather than cluster worker queues:
// a worker executing the query must not block waiting for siblings that
// cannot be scheduled (the fork-join charges the scatter and gather
// messages explicitly instead).
func (ex *Executor) forkJoinIndexSeed(req Request, acc Access, st plan.Step, tbl *Table) (*Table, error) {
	fab := ex.cluster.Fabric()
	seeds := acc.Candidates(req.Node, st.Pid, st.Dir)
	parts := make([][]rdf.ID, ex.cluster.Nodes())
	for _, s := range seeds {
		home := fab.HomeOf(uint64(s))
		parts[home] = append(parts[home], s)
	}
	results := make([]*Table, ex.cluster.Nodes())
	runBranches(req, ex.cluster.Nodes(), func(i int) bool { return len(parts[i]) > 0 },
		func(i int) {
			n := fabric.NodeID(i)
			results[n] = expandSeeds(acc, n, parts[n], st)
			fab.RPC(req.Node, n, 8*len(parts[n]), 16*results[n].Len())
		})
	return crossBind(tbl, Concat(seedVars(st), results)), nil
}

// runBranches executes per-node fork-join branches: concurrently by
// default, or sequentially-measured under SimulateParallel, crediting the
// overlap (sum - max) to the request's savings so reported latency is the
// critical path.
func runBranches(req Request, n int, active func(i int) bool, branch func(i int)) {
	if req.SimulateParallel {
		var sum, max time.Duration
		for i := 0; i < n; i++ {
			if !active(i) {
				continue
			}
			t0 := time.Now()
			branch(i)
			d := time.Since(t0)
			sum += d
			if d > max {
				max = d
			}
		}
		if req.savings != nil {
			req.savings.Add(int64(sum - max))
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if !active(i) {
			continue
		}
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			branch(i)
		}()
	}
	wg.Wait()
}

// applyTraversal handles Expand and Check steps, scattering in ForkJoin mode
// when the table is large enough to amortize the round trips.
func (ex *Executor) applyTraversal(req Request, acc Access, st plan.Step, tbl *Table) (*Table, error) {
	if req.Mode == ForkJoin && tbl.Len() >= req.ForkThreshold && st.From.IsVar() {
		return ex.forkJoinTraversal(req, acc, st, tbl)
	}
	return traverse(req.Ctx, acc, req.Node, st, tbl)
}

// traverse applies an Expand/Check step to the whole table on one node.
func traverse(ctx context.Context, acc Access, node fabric.NodeID, st plan.Step, tbl *Table) (*Table, error) {
	if st.PVar != "" {
		return traverseVarPred(ctx, acc, node, st, tbl)
	}
	fromCol := -1
	if st.From.IsVar() {
		fromCol = tbl.Col(st.From.Var)
		if fromCol < 0 {
			return nil, fmt.Errorf("exec: step %s references unbound ?%s", st, st.From.Var)
		}
	}
	toCol := -1
	newVar := false
	if st.To.IsVar() {
		toCol = tbl.Col(st.To.Var)
		newVar = toCol < 0
	}
	var out *Table // an Expand's output
	if newVar {
		out = &Table{Vars: stepVars(st, tbl.Vars)}
	}
	kept := NewSubset(tbl) // a Check's surviving rows
	fr := getFrontier()
	defer fr.release()
	// One Neighbors call per chunk of ctxStride rows, with a context poll
	// between chunks.
	for lo := 0; lo < tbl.Len(); lo += ctxStride {
		if lo > 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		hi := min(lo+ctxStride, tbl.Len())
		fr.size(hi - lo)
		for i := lo; i < hi; i++ {
			from := st.From.Const
			if fromCol >= 0 {
				from = tbl.Row(i)[fromCol]
			}
			fr.keys[i-lo] = store.EdgeKey(from, st.Pid, st.Dir)
		}
		acc.Neighbors(node, fr.keys, fr.vals)
		if !newVar { // Check against bound var or constant
			// A row is kept once per matching edge, as an Expand would emit
			// it once per edge: a repeated triple counts every time.
			for i := lo; i < hi; i++ {
				want := st.To.Const
				if toCol >= 0 {
					want = tbl.Row(i)[toCol]
				}
				for _, n := range fr.vals[i-lo] {
					if n == want {
						kept.Keep(i)
					}
				}
			}
			continue
		}
		// Expand. The chunk's output size is known: room for it all at once.
		n := 0
		for _, ns := range fr.vals {
			n += len(ns)
		}
		out.Grow(n)
		for i := lo; i < hi; i++ {
			row := tbl.Row(i)
			for _, n := range fr.vals[i-lo] {
				out.AppendExtended(row, n)
			}
		}
	}
	if !newVar {
		return kept.Table(), nil
	}
	return out, nil
}

// traverseVarPred applies a variable-predicate step: for each row it reads
// the origin's predicate index ([vid|0|dir], Wukong's per-vertex predicate
// list), then expands each predicate, binding the predicate variable to a
// tagged predicate ID.
func traverseVarPred(ctx context.Context, acc Access, node fabric.NodeID, st plan.Step, tbl *Table) (*Table, error) {
	fromCol := -1
	if st.From.IsVar() {
		fromCol = tbl.Col(st.From.Var)
		if fromCol < 0 {
			return nil, fmt.Errorf("exec: step %s references unbound ?%s", st, st.From.Var)
		}
	}
	pvCol := tbl.Col(st.PVar)
	toCol := -1
	newTo := false
	if st.To.IsVar() {
		toCol = tbl.Col(st.To.Var)
		newTo = toCol < 0
	}
	out := &Table{Vars: stepVars(st, tbl.Vars)}
	newPV := pvCol < 0
	outPVCol := out.Col(st.PVar)
	outToCol := toCol
	if newTo {
		outToCol = len(out.Vars) - 1
	}
	fr := getFrontier()
	defer fr.release()
	for i := 0; i < tbl.Len(); i++ {
		row := tbl.Row(i)
		if i%ctxStride == ctxStride-1 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		from := st.From.Const
		if fromCol >= 0 {
			from = row[fromCol]
		}
		var preds []rdf.ID
		if pvCol >= 0 {
			// The predicate variable is already bound: restrict to it.
			if pid, ok := UntagPred(row[pvCol]); ok {
				preds = []rdf.ID{pid}
			}
		} else {
			fr.size(1)
			fr.keys[0] = store.PredIndexKey(from, st.Dir)
			acc.Neighbors(node, fr.keys, fr.vals)
			preds = fr.vals[0]
		}
		// The row's predicate list, read in one call.
		fr.size(len(preds))
		for j, pid := range preds {
			fr.keys[j] = store.EdgeKey(from, pid, st.Dir)
		}
		acc.Neighbors(node, fr.keys, fr.vals)
		for j, pid := range preds {
			for _, n := range fr.vals[j] {
				switch {
				case newTo:
					// fall through to emit
				case st.To.IsVar():
					if n != row[toCol] {
						continue
					}
				default:
					if n != st.To.Const {
						continue
					}
				}
				nr := out.AddRow()
				copy(nr, row)
				if newPV {
					nr[outPVCol] = TagPred(pid)
				}
				if newTo {
					nr[outToCol] = n
				}
			}
		}
	}
	return out, nil
}

// forkJoinTraversal partitions rows by the home node of their traversal
// origin, ships each partition to its node, applies the step locally in
// parallel, and gathers the partial tables.
func (ex *Executor) forkJoinTraversal(req Request, acc Access, st plan.Step, tbl *Table) (*Table, error) {
	fromCol := tbl.Col(st.From.Var)
	if fromCol < 0 {
		return nil, fmt.Errorf("exec: step %s references unbound ?%s", st, st.From.Var)
	}
	fab := ex.cluster.Fabric()
	// Count each node's share first, so the partitions are carved from one
	// cell slice.
	w := len(tbl.Vars)
	home := func(i int) fabric.NodeID { return fab.HomeOf(uint64(tbl.Row(i)[fromCol])) }
	counts := make([]int, ex.cluster.Nodes())
	for i := 0; i < tbl.Len(); i++ {
		counts[home(i)]++
	}
	parts := make([]Table, ex.cluster.Nodes())
	cells := make([]rdf.ID, len(tbl.Cells))
	for n := range parts {
		size := counts[n] * w
		parts[n] = Table{Vars: tbl.Vars, Cells: cells[:0:size]}
		cells = cells[size:]
	}
	for i := 0; i < tbl.Len(); i++ {
		parts[home(i)].AppendRow(tbl.Row(i))
	}
	results := make([]*Table, ex.cluster.Nodes())
	errs := make([]error, ex.cluster.Nodes())
	runBranches(req, ex.cluster.Nodes(),
		func(i int) bool { return parts[i].Len() > 0 },
		func(i int) {
			n := fabric.NodeID(i)
			res, err := traverse(req.Ctx, acc, n, st, &parts[n])
			results[n], errs[n] = res, err
			// Scatter (rows out) and gather (rows back) messages.
			if err == nil {
				fab.RPC(req.Node, n, parts[n].ByteSize(), res.ByteSize())
			}
		})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return Concat(stepVars(st, tbl.Vars), results), nil
}

// stepVars returns the columns an Expand/Check step's output has over input
// columns vars: vars, then the predicate variable and the target variable
// where the step binds them. Every way of applying a step names its output
// by it.
func stepVars(st plan.Step, vars []string) []string {
	out := append(make([]string, 0, len(vars)+2), vars...)
	if st.PVar != "" && !slices.Contains(vars, st.PVar) {
		out = append(out, st.PVar)
	}
	if st.To.IsVar() && !slices.Contains(vars, st.To.Var) {
		out = append(out, st.To.Var)
	}
	return out
}

// applyFilter keeps rows satisfying the expression.
func applyFilter(res TermResolver, expr sparql.Expr, tbl *Table) (*Table, error) {
	kept := NewSubset(tbl)
	for i := 0; i < tbl.Len(); i++ {
		ok, err := evalExpr(res, expr, tbl, tbl.Row(i))
		if err != nil {
			return nil, err
		}
		if ok {
			kept.Keep(i)
		}
	}
	return kept.Table(), nil
}

// EvalFilterExpr evaluates a FILTER expression against one row of a binding
// table. Exported for the baseline engines, which share SPARQL filter
// semantics with the executor.
func EvalFilterExpr(res TermResolver, expr sparql.Expr, tbl *Table, row []rdf.ID) (bool, error) {
	return evalExpr(res, expr, tbl, row)
}

func evalExpr(res TermResolver, expr sparql.Expr, tbl *Table, row []rdf.ID) (bool, error) {
	switch e := expr.(type) {
	case sparql.Cmp:
		return evalCmp(res, e, tbl, row)
	case sparql.And:
		for _, sub := range e.Exprs {
			ok, err := evalExpr(res, sub, tbl, row)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case sparql.Or:
		for _, sub := range e.Exprs {
			ok, err := evalExpr(res, sub, tbl, row)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case sparql.Not:
		ok, err := evalExpr(res, e.Expr, tbl, row)
		return !ok, err
	default:
		return false, fmt.Errorf("exec: unsupported filter expression %T", expr)
	}
}

// operandValue resolves an operand against a row: an optional entity ID and
// an optional numeric value. A variable holding the Unbound sentinel (an
// OPTIONAL group that did not match) resolves to nothing, so comparisons
// involving it evaluate false (SPARQL's type-error semantics).
func operandValue(res TermResolver, o sparql.Operand, tbl *Table, row []rdf.ID) (id rdf.ID, hasID bool, num float64, hasNum bool) {
	if o.IsVar {
		col := tbl.Col(o.Var)
		if col < 0 {
			return 0, false, 0, false
		}
		id = row[col]
		if id == Unbound {
			return 0, false, 0, false
		}
		num, hasNum = res.Numeric(id)
		return id, true, num, hasNum
	}
	if v, ok := o.Term.Numeric(); ok {
		num, hasNum = v, true
	}
	id, hasID = res.LookupEntity(o.Term)
	if !hasID && o.Term.IsIRI() {
		// The constant may denote a predicate (comparisons against
		// variable-predicate bindings).
		if pl, ok := res.(interface {
			LookupPredicate(string) (rdf.ID, bool)
		}); ok {
			if pid, ok := pl.LookupPredicate(o.Term.Value); ok {
				return TagPred(pid), true, num, hasNum
			}
		}
	}
	return id, hasID, num, hasNum
}

func evalCmp(res TermResolver, e sparql.Cmp, tbl *Table, row []rdf.ID) (bool, error) {
	// A comparison over an unbound variable is a SPARQL type error: the
	// filter rejects the row regardless of the operator.
	for _, o := range []sparql.Operand{e.LHS, e.RHS} {
		if o.IsVar {
			if col := tbl.Col(o.Var); col >= 0 && row[col] == Unbound {
				return false, nil
			}
		}
	}
	lid, lok, lnum, lnumOK := operandValue(res, e.LHS, tbl, row)
	rid, rok, rnum, rnumOK := operandValue(res, e.RHS, tbl, row)
	switch e.Op {
	case sparql.OpEQ, sparql.OpNE:
		var eq bool
		switch {
		case lnumOK && rnumOK:
			eq = lnum == rnum
		case lok && rok:
			eq = lid == rid
		default:
			eq = false // an unknown constant denotes a term equal to nothing here
		}
		if e.Op == sparql.OpNE {
			return !eq, nil
		}
		return eq, nil
	default:
		if !lnumOK || !rnumOK {
			return false, nil // SPARQL type error → filter rejects the row
		}
		switch e.Op {
		case sparql.OpLT:
			return lnum < rnum, nil
		case sparql.OpLE:
			return lnum <= rnum, nil
		case sparql.OpGT:
			return lnum > rnum, nil
		case sparql.OpGE:
			return lnum >= rnum, nil
		}
	}
	return false, fmt.Errorf("exec: unknown comparison op %v", e.Op)
}
