// Package relstream implements Spark-Streaming-like and
// Structured-Streaming-like baselines (§6.1, Tables 3 and 4): micro-batch
// relational engines that represent both streaming and stored data as
// DataFrames and evaluate C-SPARQL queries with SQL-style scans and joins.
//
// Structural cost model, mirroring the real systems:
//
//   - Every trigger launches a job: a fixed per-stage scheduling overhead is
//     charged through the fabric's compute charge (Spark's scheduler floor
//     is tens of milliseconds; configurable).
//   - DataFrames have no adjacency index: every triple pattern scans the
//     whole relevant DataFrame — the full stored table for stored patterns —
//     and patterns combine by pairwise (shuffle) hash joins.
//   - Spark Streaming scopes stream patterns to the window's RDDs.
//     Structured Streaming instead maintains the stream as an unbounded
//     input table: each execution scans the whole accumulated history and
//     filters to the window, the "additional cost of processing unbounded
//     table" the paper observes; and it rejects joins between two streaming
//     datasets, so queries touching two or more streams are unsupported
//     (Table 4's "x" entries for L4–L6).
package relstream

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/baseline/rel"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// Mode selects the engine variant.
type Mode int

const (
	// SparkStreaming evaluates windows as micro-batch RDD joins.
	SparkStreaming Mode = iota
	// StructuredStreaming evaluates over unbounded input tables.
	StructuredStreaming
)

func (m Mode) String() string {
	if m == SparkStreaming {
		return "spark-streaming"
	}
	return "structured-streaming"
}

// ErrUnsupported reports an operation outside the engine's supported
// surface (stream-stream joins under Structured Streaming).
var ErrUnsupported = errors.New("relstream: unsupported operation (stream-stream join)")

// Config configures the baseline.
type Config struct {
	Mode Mode
	// StageOverhead is the per-stage job-scheduling floor (default 5 ms;
	// the real systems' trigger-to-launch latency is 10–100 ms).
	StageOverhead time.Duration
}

// System is a runnable Spark-like engine.
type System struct {
	cfg    Config
	ss     *strserver.Server
	fab    *fabric.Fabric
	stored []strserver.EncodedTriple // the stored DataFrame

	// history accumulates all stream data ever received (the unbounded
	// input table; only consulted by Structured Streaming).
	history map[string][]strserver.EncodedTuple
}

// NewSystem creates an instance over a fabric (used for overhead charging).
func NewSystem(fab *fabric.Fabric, ss *strserver.Server, cfg Config) *System {
	if cfg.StageOverhead <= 0 {
		cfg.StageOverhead = 5 * time.Millisecond
	}
	return &System{
		cfg:     cfg,
		ss:      ss,
		fab:     fab,
		history: make(map[string][]strserver.EncodedTuple),
	}
}

// LoadBase loads the stored DataFrame.
func (s *System) LoadBase(triples []strserver.EncodedTriple) {
	s.stored = append(s.stored, triples...)
}

// Absorb appends stream tuples to the unbounded input table (Structured
// Streaming's state; Spark Streaming's window RDDs arrive per execution).
func (s *System) Absorb(stream string, tuples []strserver.EncodedTuple) {
	s.history[stream] = append(s.history[stream], tuples...)
}

// streamGraphCount counts distinct stream scopes among the query patterns.
func streamGraphCount(q *sparql.Query) int {
	seen := map[string]bool{}
	for _, p := range q.Patterns {
		if p.Graph.Kind == sparql.StreamGraph {
			seen[p.Graph.Name] = true
		}
	}
	return len(seen)
}

// ExecuteContinuous runs one trigger ending at `at` over the given window
// RDDs (ignored by Structured Streaming, which reads its own state).
func (s *System) ExecuteContinuous(q *sparql.Query, w rel.Windows, at rdf.Timestamp) (*exec.ResultSet, time.Duration, error) {
	if s.cfg.Mode == StructuredStreaming && streamGraphCount(q) >= 2 {
		return nil, 0, ErrUnsupported
	}
	if len(q.Optionals) > 0 || len(q.Unions) > 0 {
		return nil, 0, fmt.Errorf("relstream: OPTIONAL/UNION are not supported by this baseline")
	}
	start := time.Now()
	var result *exec.Table
	stages := 0
	for _, p := range q.Patterns {
		stages++
		cp, ok, err := rel.CompilePattern(p, s.ss)
		if err != nil {
			return nil, 0, err
		}
		var t *exec.Table
		switch {
		case !ok:
			t = &exec.Table{Vars: p.Vars()}
		case p.Graph.Kind == sparql.StreamGraph:
			win, found := q.Window(p.Graph.Name)
			if !found {
				t = &exec.Table{Vars: p.Vars()}
				break
			}
			src := w[p.Graph.Name]
			if s.cfg.Mode == StructuredStreaming {
				// Unbounded table: scan all history, filter to the window.
				src = s.history[p.Graph.Name]
			}
			first, last := rel.WindowBounds(at, win.Range)
			t = rel.MatchTuples(src, cp, first, last)
		default:
			t = rel.Match(s.stored, cp) // full DataFrame scan
		}
		if result == nil {
			result = t
		} else {
			stages++ // each join is a shuffle stage
			result = rel.Join(result, t)
		}
	}
	if result == nil {
		result = &exec.Table{}
	}
	for _, f := range q.Filters {
		var err error
		result, err = rel.Filter(result, f, s.ss)
		if err != nil {
			return nil, 0, err
		}
	}
	rs, err := exec.Project(q, result, s.ss)
	if err != nil {
		return nil, 0, err
	}
	// Job scheduling floor: one charge per stage.
	s.fab.ChargeCompute(time.Duration(stages) * s.cfg.StageOverhead)
	return rs, time.Since(start), nil
}
