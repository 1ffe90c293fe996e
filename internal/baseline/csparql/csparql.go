// Package csparql implements a CSPARQL-engine-like baseline: the de-facto
// reference implementation of C-SPARQL, which combines the Esper stream
// processor with the Apache Jena triple store on a single node (§2.3, §6.1).
//
// The structural properties that make it slow on linked data, reproduced
// here:
//
//   - Single node, sequential execution: queries cannot share work or scale.
//   - Relational evaluation throughout: every triple pattern — stored or
//     streaming — produces a full binding table by scanning, and patterns
//     combine by pairwise joins in textual order (no cost-based optimizer
//     across the Esper/Jena boundary).
//   - Jena-style storage: triples sit in predicate-keyed tables; a pattern
//     with a constant subject still scans its whole predicate table, where
//     Wukong answers the same pattern with one key lookup.
//   - The Esper/Jena boundary is a real serialization boundary: bindings
//     shipped between the window processor and the store are re-serialized
//     both ways, like the composite design's cross-system cost.
//
// One-shot queries run on the static stored data only (the engine is not
// stateful: stream data never reaches the store).
package csparql

import (
	"fmt"
	"time"

	"repro/internal/baseline/rel"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// Config models the engine's interpretive overheads. The paper attributes
// CSPARQL-engine's latency to "both its composite design and slow building
// blocks (e.g., Apache Jena)" (§6.2); the structural part is reproduced by
// the scan/join evaluation below, and the building-block part is modeled as
// a per-triple-scanned and per-intermediate-row charge (Jena and Esper are
// interpretive Java engines that materialize binding objects per row).
// Zero values disable the charges (functional tests).
type Config struct {
	PerTriple time.Duration // charge per triple scanned (default off)
	PerRow    time.Duration // charge per intermediate row materialized
}

// DefaultConfig returns the calibrated overhead model used by experiments:
// roughly 1 µs per triple visited and 2 µs per binding row materialized,
// the ballpark of an interpretive Java store (Jena scans a few hundred
// thousand to a million triples per second per thread; Esper materializes
// event-bean objects per row).
func DefaultConfig() Config {
	return Config{PerTriple: 1 * time.Microsecond, PerRow: 2 * time.Microsecond}
}

// System is a single-node CSPARQL-engine-like instance.
type System struct {
	cfg    Config
	ss     *strserver.Server
	byPred map[rdf.ID][]strserver.EncodedTriple // Jena-ish predicate tables
	total  int
}

// NewSystem creates an empty instance with no overhead model.
func NewSystem(ss *strserver.Server) *System {
	return NewSystemWithConfig(ss, Config{})
}

// NewSystemWithConfig creates an instance with an overhead model.
func NewSystemWithConfig(ss *strserver.Server, cfg Config) *System {
	return &System{cfg: cfg, ss: ss, byPred: make(map[rdf.ID][]strserver.EncodedTriple)}
}

// LoadBase loads the initial dataset into the Jena-like store.
func (s *System) LoadBase(triples []strserver.EncodedTriple) {
	for _, t := range triples {
		s.byPred[t.P] = append(s.byPred[t.P], t)
		s.total++
	}
}

// StoredTriples returns the stored-data size.
func (s *System) StoredTriples() int { return s.total }

// matchStored evaluates a stored pattern by scanning its predicate table.
func (s *System) matchStored(p rel.Pattern) *exec.Table {
	return rel.Match(s.byPred[p.Pid], p)
}

// serialize models the Esper/Jena boundary: bindings cross as strings.
func (s *System) serialize(t *exec.Table) {
	for _, id := range t.Cells {
		if term, ok := s.ss.Entity(id); ok {
			s.ss.InternEntity(rdf.TermFromKey(term.Key()))
		}
	}
}

// evaluate runs the patterns in textual order with pairwise joins.
func (s *System) evaluate(q *sparql.Query, w rel.Windows, at rdf.Timestamp) (*exec.Table, error) {
	if len(q.Optionals) > 0 || len(q.Unions) > 0 {
		return nil, fmt.Errorf("csparql: OPTIONAL/UNION are not supported by this baseline")
	}
	var result *exec.Table
	var scanned, rows int64
	prevStream := false
	for i, p := range q.Patterns {
		cp, ok, err := rel.CompilePattern(p, s.ss)
		if err != nil {
			return nil, err
		}
		var t *exec.Table
		isStream := p.Graph.Kind == sparql.StreamGraph
		switch {
		case !ok:
			t = &exec.Table{Vars: p.Vars()}
		case isStream:
			win, found := q.Window(p.Graph.Name)
			if !found {
				t = &exec.Table{Vars: p.Vars()}
				break
			}
			from := int64(at) - win.Range.Milliseconds()
			if from < 0 {
				from = 0
			}
			t = rel.MatchTuples(w[p.Graph.Name], cp, rdf.Timestamp(from+1), at)
			scanned += int64(len(w[p.Graph.Name]))
		default:
			t = s.matchStored(cp)
			scanned += int64(len(s.byPred[cp.Pid]))
		}
		rows += int64(t.Len())
		if result == nil {
			result = t
		} else {
			if i > 0 && prevStream != isStream {
				// Crossing the Esper/Jena boundary: serialize both sides.
				s.serialize(result)
				s.serialize(t)
			}
			result = rel.Join(result, t)
			rows += int64(result.Len())
		}
		prevStream = isStream
	}
	if result == nil {
		return &exec.Table{}, nil
	}
	for _, f := range q.Filters {
		var err error
		result, err = rel.Filter(result, f, s.ss)
		if err != nil {
			return nil, err
		}
	}
	// Interpretive building-block overhead (see Config).
	if charge := time.Duration(scanned)*s.cfg.PerTriple + time.Duration(rows)*s.cfg.PerRow; charge > 0 {
		fabric.BusyWait(charge)
	}
	return result, nil
}

// ExecuteContinuous runs one window execution ending at `at`.
func (s *System) ExecuteContinuous(q *sparql.Query, w rel.Windows, at rdf.Timestamp) (*exec.ResultSet, time.Duration, error) {
	start := time.Now()
	t, err := s.evaluate(q, w, at)
	if err != nil {
		return nil, 0, err
	}
	rs, err := exec.Project(q, t, s.ss)
	return rs, time.Since(start), err
}

// QueryOneShot runs a one-shot query over the static stored data.
func (s *System) QueryOneShot(q *sparql.Query) (*exec.ResultSet, time.Duration, error) {
	start := time.Now()
	t, err := s.evaluate(q, nil, 0)
	if err != nil {
		return nil, 0, err
	}
	rs, err := exec.Project(q, t, s.ss)
	return rs, time.Since(start), err
}
