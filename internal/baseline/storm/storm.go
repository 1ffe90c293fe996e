// Package storm implements a small stream-processing topology engine in the
// style of Apache Storm and Twitter Heron: a DAG of operators (spouts and
// bolts) connected by queues, each operator running on its own goroutine.
//
// The engine deliberately reproduces the cost structure that matters for
// the paper's composite-design comparison:
//
//   - Storm hands tuples between operators one at a time (its at-least-once
//     acking works per tuple); Heron batches transfers, which is the main
//     reason the paper finds Heron slightly faster on stream-only queries
//     (Table 4) while changing nothing for cross-system queries.
//   - Every operator boundary is a real goroutine/queue handoff, so deep
//     relational pipelines pay real scheduling and copy costs.
package storm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/fabric"
)

// Variant selects the transfer discipline.
type Variant int

const (
	// Storm transfers tuples one by one.
	Storm Variant = iota
	// Heron transfers tuples in batches.
	Heron
)

func (v Variant) String() string {
	if v == Storm {
		return "storm"
	}
	return "heron"
}

// heronBatch is Heron's transfer batch size.
const heronBatch = 256

// Per-tuple transfer costs, calibrated to the real systems: Storm moves and
// acks tuples individually through inter-executor queues with Kryo
// serialization (≈ hundreds of thousands of tuples/s/core); Heron's batched
// stream manager amortizes that by roughly 5x. Run applies no cost; RunCost
// applies these (or caller-supplied) charges per transferred row.
const (
	DefaultStormPerTuple = 500 * time.Nanosecond
	DefaultHeronPerTuple = 100 * time.Nanosecond
)

// DefaultPerTuple returns the variant's calibrated per-tuple transfer cost.
func DefaultPerTuple(v Variant) time.Duration {
	if v == Storm {
		return DefaultStormPerTuple
	}
	return DefaultHeronPerTuple
}

// Node is one operator in a topology: it consumes the tables produced by
// its inputs and emits one table. A node without inputs is a spout.
type Node struct {
	Name   string
	Inputs []*Node
	// Op computes the node's output from its inputs' outputs (same order).
	Op func(inputs []*exec.Table) (*exec.Table, error)
}

// Spout returns a source node emitting a fixed table.
func Spout(name string, t *exec.Table) *Node {
	return &Node{Name: name, Op: func([]*exec.Table) (*exec.Table, error) { return t, nil }}
}

// edge carries rows between operators with the variant's discipline: each
// message is a table of one row (Storm) or of up to heronBatch rows (Heron).
type edge struct {
	vars chan []string
	rows chan *exec.Table
}

func newEdge() edge {
	return edge{vars: make(chan []string, 1), rows: make(chan *exec.Table, 64)}
}

// send transmits a table over the edge: per-row for Storm, batched for
// Heron. Rows are copied — operators on either side own their memory, as in
// a real serialization boundary — and each transferred row is charged the
// per-tuple cost.
func (e edge) send(v Variant, perTuple time.Duration, t *exec.Table) {
	e.vars <- t.Vars
	if perTuple > 0 && t.Len() > 0 {
		fabric.BusyWait(time.Duration(t.Len()) * perTuple)
	}
	batch := 1
	if v != Storm {
		batch = heronBatch
	}
	for i := 0; i < t.Len(); i += batch {
		end := min(i+batch, t.Len())
		msg := &exec.Table{Vars: t.Vars}
		msg.Grow(end - i)
		for j := i; j < end; j++ {
			msg.AppendRow(t.Row(j))
		}
		e.rows <- msg
	}
	close(e.rows)
}

// recv reassembles a table from the edge.
func (e edge) recv() *exec.Table {
	t := &exec.Table{Vars: <-e.vars}
	for msg := range e.rows {
		for i := 0; i < msg.Len(); i++ {
			t.AppendRow(msg.Row(i))
		}
	}
	return t
}

// Run executes the topology rooted at sink with no per-tuple transfer cost
// (functional use). Benchmarked runs use RunCost.
func Run(v Variant, sink *Node) (*exec.Table, error) {
	return RunCost(v, 0, sink)
}

// RunCost executes the topology rooted at sink and returns its output table.
// Each node runs on its own goroutine; edges apply the variant's transfer
// discipline and charge perTuple for every transferred row. A node's error
// cancels the run.
func RunCost(v Variant, perTuple time.Duration, sink *Node) (*exec.Table, error) {
	// Collect nodes reachable from the sink.
	var nodes []*Node
	seen := map[*Node]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, in := range n.Inputs {
			visit(in)
		}
		nodes = append(nodes, n) // post-order: inputs first
	}
	visit(sink)

	// One edge per (producer, consumer) pair.
	type key struct{ from, to *Node }
	edges := map[key]edge{}
	for _, n := range nodes {
		for _, in := range n.Inputs {
			edges[key{in, n}] = newEdge()
		}
	}
	consumers := map[*Node][]*Node{}
	for _, n := range nodes {
		for _, in := range n.Inputs {
			consumers[in] = append(consumers[in], n)
		}
	}

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	sinkOut := newEdge()
	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			inputs := make([]*exec.Table, len(n.Inputs))
			for i, in := range n.Inputs {
				inputs[i] = edges[key{in, n}].recv()
			}
			out, err := n.Op(inputs)
			if err != nil {
				fail(fmt.Errorf("storm: operator %s: %w", n.Name, err))
				out = &exec.Table{}
			}
			for _, c := range consumers[n] {
				edges[key{n, c}].send(v, perTuple, out)
			}
			if n == sink {
				// Delivery to the client is not an inter-executor hop.
				sinkOut.send(v, 0, out)
			}
		}()
	}
	result := sinkOut.recv()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return result, nil
}
