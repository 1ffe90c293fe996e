package wukongext

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline/rel"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// System is the runnable Wukong/Ext baseline: the timestamped store plus a
// query executor. It shares the graph-exploration machinery with Wukong+S —
// the paper's comparison isolates exactly the storage-strategy difference
// (stream index + transient store vs timestamps-in-values).
type System struct {
	store   *Store
	ss      *strserver.Server
	cluster *fabric.Cluster
	ex      *exec.Executor

	mu      sync.Mutex
	streams map[string]uint32 // stream name -> the tag its tuples carry
}

// NewSystem creates a Wukong/Ext instance over a fabric.
func NewSystem(fab *fabric.Fabric, ss *strserver.Server, workersPerNode int) *System {
	cluster := fabric.NewCluster(fab, workersPerNode)
	return &System{
		store:   New(fab),
		ss:      ss,
		cluster: cluster,
		ex:      exec.New(cluster),
		streams: make(map[string]uint32),
	}
}

// Close stops the workers.
func (s *System) Close() { s.cluster.Close() }

// Store returns the underlying timestamped store.
func (s *System) Store() *Store { return s.store }

// LoadBase loads the initial dataset.
func (s *System) LoadBase(triples []strserver.EncodedTriple) { s.store.LoadBase(triples) }

// Inject absorbs a stream's tuples (data and timestamps both enter the KV
// store; there is no timing/timeless distinction and no GC).
func (s *System) Inject(stream string, tuples []strserver.EncodedTuple) {
	tag := s.streamTag(stream)
	for _, t := range tuples {
		s.store.Insert(t.EncodedTriple, t.TS, tag)
	}
}

// streamTag returns the tag a stream's tuples carry; a stream nothing was
// injected into gets one no tuple carries.
func (s *System) streamTag(stream string) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	tag, ok := s.streams[stream]
	if !ok {
		tag = uint32(len(s.streams) + 1)
		s.streams[stream] = tag
	}
	return tag
}

// provider scopes stream patterns to their windows ending at `at`.
type provider struct {
	s  *System
	q  *sparql.Query
	at rdf.Timestamp
}

func (p provider) Access(g sparql.GraphRef) (exec.Access, error) {
	if g.Kind != sparql.StreamGraph {
		return FullRange(p.s.store), nil
	}
	w, ok := p.q.Window(g.Name)
	if !ok {
		return nil, fmt.Errorf("wukongext: no window for stream %q", g.Name)
	}
	first, last := rel.WindowBounds(p.at, w.Range)
	return Access{Store: p.s.store, From: first, To: last, Stream: p.s.streamTag(g.Name)}, nil
}

// ExecuteContinuous runs one window execution ending at `at` and returns the
// result with its latency.
func (s *System) ExecuteContinuous(q *sparql.Query, at rdf.Timestamp) (*exec.ResultSet, time.Duration, error) {
	start := time.Now()
	p, err := plan.Compile(q, s.ss, s.store)
	if err != nil {
		return nil, 0, err
	}
	mode := exec.InPlace
	if len(p.Steps) > 0 && p.Steps[0].Kind == plan.SeedIndex && s.store.fab.Nodes() > 1 {
		mode = exec.ForkJoin
	}
	rs, _, err := s.ex.Execute(exec.Request{
		Node:     0,
		Mode:     mode,
		Access:   provider{s: s, q: q, at: at},
		Resolver: s.ss,
	}, p)
	return rs, time.Since(start), err
}

// QueryOneShot runs a one-shot query over all absorbed data.
func (s *System) QueryOneShot(q *sparql.Query) (*exec.ResultSet, time.Duration, error) {
	return s.ExecuteContinuous(q, rdf.Timestamp(1<<62-1))
}
