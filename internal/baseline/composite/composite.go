// Package composite implements the paper's conventional alternative
// (§2.3, Fig. 3a): a relational stream processor (the storm package's
// Storm/Heron topology engine) combined with a separate Wukong store for
// stored data.
//
// A continuous query is split at the GRAPH boundary: stream patterns run as
// select/join bolts over window buffers inside the stream processor; stored
// patterns run on the Wukong sub-component via proxy bolts. Every boundary
// crossing pays the cross-system cost the paper measures in Fig. 4 — the
// binding table is transformed between the systems' formats (IDs are
// re-serialized to strings and re-parsed, exactly what a Storm bolt calling
// an external store does) and transmitted.
//
// Two query plans reproduce Fig. 4:
//
//   - Interleaved (plan a): patterns run in dependency order, crossing the
//     boundary whenever the next pattern lives in the other system.
//   - StreamFirst (plan b): all stream patterns run (and join) first, then
//     one Wukong call handles the stored patterns. Fewer crossings, but
//     insufficient pruning inflates the intermediate results.
//
// One-shot queries go directly to the Wukong store and never observe
// streaming data — the composite design is "not completely stateful".
package composite

import (
	"fmt"
	"time"

	"repro/internal/baseline/rel"
	"repro/internal/baseline/storm"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/strserver"
)

// PlanMode selects the composite query plan (Fig. 4).
type PlanMode int

const (
	// Interleaved is Fig. 4(a): follow the textual dependency order,
	// crossing systems as needed.
	Interleaved PlanMode = iota
	// StreamFirst is Fig. 4(b): run and join all stream patterns first.
	StreamFirst
)

func (m PlanMode) String() string {
	if m == Interleaved {
		return "interleaved"
	}
	return "stream-first"
}

// Config configures the composite system.
type Config struct {
	Variant        storm.Variant
	PlanMode       PlanMode
	WorkersPerNode int // Wukong sub-component workers (default 2)
	// PerTuple is the stream processor's per-tuple transfer cost; nil means
	// the variant's calibrated default (storm.DefaultPerTuple); point at a
	// zero to disable (functional tests).
	PerTuple *time.Duration
}

// Breakdown is the Fig. 4 cost split of one execution.
type Breakdown struct {
	Stream      time.Duration // time inside the stream processor
	Stored      time.Duration // time inside the Wukong sub-component
	Cross       time.Duration // transformation + transmission
	CrossTuples int           // binding rows shipped across the boundary
	Crossings   int           // number of boundary crossings
}

// Total returns the end-to-end execution time.
func (b Breakdown) Total() time.Duration { return b.Stream + b.Stored + b.Cross }

// System is a runnable composite instance.
type System struct {
	cfg     Config
	ss      *strserver.Server
	fab     *fabric.Fabric
	stored  *store.Sharded
	cluster *fabric.Cluster
	ex      *exec.Executor
}

// NewSystem creates a composite system over a fabric. The Wukong
// sub-component shards the stored data across the fabric's nodes; the
// stream processor runs co-located on node 0 (the paper co-locates them and
// runs Storm on a single node, §2.3).
func NewSystem(fab *fabric.Fabric, ss *strserver.Server, cfg Config) *System {
	if cfg.WorkersPerNode <= 0 {
		cfg.WorkersPerNode = 2
	}
	cluster := fabric.NewCluster(fab, cfg.WorkersPerNode)
	return &System{
		cfg:     cfg,
		ss:      ss,
		fab:     fab,
		stored:  store.NewSharded(fab, 0),
		cluster: cluster,
		ex:      exec.New(cluster),
	}
}

// Close stops the Wukong sub-component's workers.
func (s *System) Close() { s.cluster.Close() }

// LoadBase loads the initial dataset into the Wukong sub-component.
func (s *System) LoadBase(triples []strserver.EncodedTriple) {
	s.stored.LoadBase(triples)
}

// Store exposes the Wukong sub-component's store.
func (s *System) Store() *store.Sharded { return s.stored }

// Windows carries one execution's stream window contents, as buffered by
// the stream processor (composite systems duplicate streaming data into
// their own window buffers; §2.3 Issue#3).
type Windows = rel.Windows

// stage is a maximal run of same-system patterns.
type stage struct {
	stream bool
	pats   []sparql.Pattern
}

func splitStages(q *sparql.Query, mode PlanMode) []stage {
	var stages []stage
	add := func(isStream bool, p sparql.Pattern) {
		if n := len(stages); n > 0 && stages[n-1].stream == isStream {
			stages[n-1].pats = append(stages[n-1].pats, p)
			return
		}
		stages = append(stages, stage{stream: isStream, pats: []sparql.Pattern{p}})
	}
	switch mode {
	case StreamFirst:
		for _, p := range q.Patterns {
			if p.Graph.Kind == sparql.StreamGraph {
				add(true, p)
			}
		}
		for _, p := range q.Patterns {
			if p.Graph.Kind != sparql.StreamGraph {
				add(false, p)
			}
		}
	default:
		for _, p := range q.Patterns {
			add(p.Graph.Kind == sparql.StreamGraph, p)
		}
	}
	return stages
}

// ExecuteContinuous runs one window execution ending at `at` over the given
// window buffers and returns the projected result with its cost breakdown.
func (s *System) ExecuteContinuous(q *sparql.Query, w Windows, at rdf.Timestamp) (*exec.ResultSet, *Breakdown, error) {
	if len(q.Optionals) > 0 || len(q.Unions) > 0 {
		return nil, nil, fmt.Errorf("composite: OPTIONAL/UNION are not supported by this baseline")
	}
	bd := &Breakdown{}
	stages := splitStages(q, s.cfg.PlanMode)
	carried := exec.Unit()
	for _, st := range stages {
		if st.stream {
			start := time.Now()
			out, err := s.runStreamStage(q, st.pats, w, at, carried)
			bd.Stream += time.Since(start)
			if err != nil {
				return nil, bd, err
			}
			carried = out
			continue
		}
		// Cross into the Wukong sub-component and back.
		var err error
		carried, err = s.runStoredStage(q, st.pats, carried, bd)
		if err != nil {
			return nil, bd, err
		}
	}
	// Final filters and projection happen in the stream processor.
	start := time.Now()
	for _, f := range q.Filters {
		var err error
		carried, err = rel.Filter(carried, f, s.ss)
		if err != nil {
			return nil, bd, err
		}
	}
	rs, err := exec.Project(q, carried, s.ss)
	bd.Stream += time.Since(start)
	return rs, bd, err
}

// runStreamStage evaluates stream patterns as a select/join bolt topology.
func (s *System) runStreamStage(q *sparql.Query, pats []sparql.Pattern, w Windows, at rdf.Timestamp, carried *exec.Table) (*exec.Table, error) {
	nodes := make([]*storm.Node, 0, len(pats)+1)
	if len(carried.Vars) > 0 {
		nodes = append(nodes, storm.Spout("carried", carried))
	}
	for i, p := range pats {
		win, ok := q.Window(p.Graph.Name)
		if !ok {
			return nil, fmt.Errorf("composite: no window for stream %q", p.Graph.Name)
		}
		cp, ok, err := rel.CompilePattern(p, s.ss)
		if err != nil {
			return nil, err
		}
		first, last := rel.WindowBounds(at, win.Range)
		tuples := w[p.Graph.Name]
		p := p
		sel := &storm.Node{
			Name: fmt.Sprintf("select-%d", i),
			Op: func([]*exec.Table) (*exec.Table, error) {
				if !ok {
					return &exec.Table{Vars: patternVars(p)}, nil
				}
				return rel.MatchTuples(tuples, cp, first, last), nil
			},
		}
		nodes = append(nodes, sel)
	}
	// Left-deep join tree, one join bolt per pair.
	sink := nodes[0]
	for i := 1; i < len(nodes); i++ {
		sink = &storm.Node{
			Name:   fmt.Sprintf("join-%d", i),
			Inputs: []*storm.Node{sink, nodes[i]},
			Op: func(in []*exec.Table) (*exec.Table, error) {
				return rel.Join(in[0], in[1]), nil
			},
		}
	}
	perTuple := storm.DefaultPerTuple(s.cfg.Variant)
	if s.cfg.PerTuple != nil {
		perTuple = *s.cfg.PerTuple
	}
	out, err := storm.RunCost(s.cfg.Variant, perTuple, sink)
	if err != nil {
		return nil, err
	}
	if len(carried.Vars) == 0 && carried.Len() > 0 && len(out.Vars) > 0 {
		// carried was the unit seed; out already stands alone.
		return out, nil
	}
	return out, nil
}

// runStoredStage ships the carried table to the Wukong sub-component,
// applies the stored patterns there, and ships the result back.
func (s *System) runStoredStage(q *sparql.Query, pats []sparql.Pattern, carried *exec.Table, bd *Breakdown) (*exec.Table, error) {
	if carried.Len() == 0 {
		return carried, nil
	}
	// Cross-system: transform the binding table into the store's query
	// format — serialize every cell to its string form and re-intern, which
	// is what a proxy bolt POSTing bindings to an external store does.
	start := time.Now()
	bytes := s.transform(carried)
	// Co-located processes still cross an IPC/loopback boundary.
	s.fab.ChargeCompute(s.fab.Config().Latency.TCPRoundTrip + perKB(s.fab.Config().Latency.TCPPerKB, bytes))
	bd.Cross += time.Since(start)
	bd.CrossTuples += carried.Len()
	bd.Crossings++

	storedStart := time.Now()
	steps, empty, err := plan.CompileGroup(pats, carried.Vars, s.ss)
	if err != nil {
		return nil, err
	}
	var out *exec.Table
	if empty {
		out = &exec.Table{Vars: carried.Vars}
	} else {
		out, err = s.ex.ApplySteps(exec.Request{
			Node:     0,
			Mode:     s.wukongMode(steps),
			Access:   storedProvider{s.stored},
			Resolver: s.ss,
		}, steps, carried)
		if err != nil {
			return nil, err
		}
	}
	bd.Stored += time.Since(storedStart)

	// Transform the results back into the stream processor's tuple format.
	start = time.Now()
	bytes = s.transform(out)
	s.fab.ChargeCompute(s.fab.Config().Latency.TCPRoundTrip + perKB(s.fab.Config().Latency.TCPPerKB, bytes))
	bd.Cross += time.Since(start)
	bd.CrossTuples += out.Len()
	bd.Crossings++
	return out, nil
}

// transform round-trips a table through its serialized text form, returning
// the byte count. This is the composite design's transformation cost: the
// stream processor renders each binding to the store's query syntax and the
// store parses it back (and vice versa for results) — real encode/parse
// work proportional to the data shipped, exactly the 22–57%% share the
// paper measures (§6.2).
func (s *System) transform(t *exec.Table) int {
	n := 0
	for _, id := range t.Cells {
		term, ok := s.ss.Entity(id)
		if !ok {
			continue
		}
		// Serialize to N-Triples term syntax...
		text := term.String()
		n += len(text)
		// ...and parse + re-intern on the receiving side.
		parsed, err := rdf.ParseTerm(text)
		if err != nil {
			parsed = term
		}
		s.ss.InternEntity(parsed)
	}
	return n
}

func (s *System) wukongMode(steps []plan.Step) exec.Mode {
	if s.fab.Nodes() > 1 && len(steps) > 0 && steps[0].Kind == plan.SeedIndex {
		return exec.ForkJoin
	}
	return exec.InPlace
}

// storedProvider serves every graph scope from the Wukong store (stream
// patterns never reach the sub-component).
type storedProvider struct{ st *store.Sharded }

func (p storedProvider) Access(sparql.GraphRef) (exec.Access, error) {
	return exec.StoredAccess{Store: p.st, SN: ^uint32(0)}, nil
}

// QueryOneShot answers a one-shot query directly from the static store.
func (s *System) QueryOneShot(q *sparql.Query) (*exec.ResultSet, time.Duration, error) {
	start := time.Now()
	p, err := plan.Compile(q, s.ss, storedStats{s.stored})
	if err != nil {
		return nil, 0, err
	}
	rs, _, err := s.ex.Execute(exec.Request{
		Node:     0,
		Mode:     s.wukongMode(p.Steps),
		Access:   storedProvider{s.stored},
		Resolver: s.ss,
	}, p)
	return rs, time.Since(start), err
}

type storedStats struct{ st *store.Sharded }

func (s storedStats) PredStats(pid rdf.ID) (int64, int64, int64) { return s.st.Stats(pid) }
func (s storedStats) WindowFraction(sparql.GraphRef) float64     { return 1 }

func patternVars(p sparql.Pattern) []string { return p.Vars() }

// perKB mirrors the fabric's payload pricing for the IPC boundary.
func perKB(rate time.Duration, n int) time.Duration {
	return time.Duration(int64(rate) * int64(n) / 1024)
}
