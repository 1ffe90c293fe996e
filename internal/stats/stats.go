// Package stats implements the cost-based execution-mode model that replaces
// the engine's static in-place/fork-join choice (Table 5 of the paper shows
// the crossover; Strider shows live-statistics-driven adaptation winning on
// RDF streams).
//
// The planner (internal/plan) already orders patterns by selectivity and
// annotates every step with an estimated output cardinality. This package
// walks those annotated steps twice — once pricing the in-place strategy
// (one worker, one-sided reads for remote data) and once pricing fork-join
// (scatter/gather RPCs, parallel local work) — using the fabric's latency
// model as the constants. The cheaper strategy wins. As stream rates drift,
// the step estimates change, the two totals cross, and the decision flips:
// re-costing is cheap enough to run on every continuous-query firing.
package stats

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/plan"
)

// CostInputs parameterizes the mode cost model. All latencies are
// nanoseconds; zero fields take defaults matching fabric.DefaultLatency.
type CostInputs struct {
	// Nodes is the cluster size; 1 makes every read local.
	Nodes int
	// ForkThreshold is the table size below which fork-join executes a step
	// in place anyway (exec.Request.ForkThreshold).
	ForkThreshold int
	// OneSidedReadNS is the base latency of one one-sided (RDMA) read.
	OneSidedReadNS float64
	// RPCNS is the base latency of one two-sided RPC.
	RPCNS float64
	// RPCPerByteNS is the per-byte payload cost of an RPC.
	RPCPerByteNS float64
	// RowCPUNS is the per-row local processing cost of a traversal.
	RowCPUNS float64
}

func (in CostInputs) withDefaults() CostInputs {
	if in.Nodes <= 0 {
		in.Nodes = 1
	}
	if in.ForkThreshold <= 0 {
		in.ForkThreshold = 32
	}
	if in.OneSidedReadNS <= 0 {
		in.OneSidedReadNS = 2000 // fabric.DefaultLatency RDMARead
	}
	if in.RPCNS <= 0 {
		in.RPCNS = 18000 // fabric.DefaultLatency RPC
	}
	if in.RPCPerByteNS <= 0 {
		in.RPCPerByteNS = 0.5 // fabric.DefaultLatency RPCPerKB / 1024
	}
	if in.RowCPUNS <= 0 {
		in.RowCPUNS = 100
	}
	return in
}

// Decision is the outcome of one mode choice, with the cost inputs kept for
// EXPLAIN and the estimator-error metric.
type Decision struct {
	Mode exec.Mode
	// Forced names the rule that preempted the cost model ("flag",
	// "no-rdma", "single-node"); empty for a cost-based decision.
	Forced string
	// InPlaceNS / ForkJoinNS are the model's estimated latencies. Zero when
	// the decision was forced.
	InPlaceNS  float64
	ForkJoinNS float64
}

// String renders the decision for EXPLAIN output.
func (d Decision) String() string {
	if d.Forced != "" {
		return fmt.Sprintf("%s (forced: %s)", d.Mode, d.Forced)
	}
	return fmt.Sprintf("%s (cost: in-place %.0fµs vs fork-join %.0fµs)",
		d.Mode, d.InPlaceNS/1e3, d.ForkJoinNS/1e3)
}

// ChooseMode prices both execution strategies over a compiled plan (or its
// union branches) and picks the cheaper. Ties go to in-place — the paper's
// default for selective queries, and the strategy with no scatter overhead.
func ChooseMode(p *plan.Plan, in CostInputs) Decision {
	in = in.withDefaults()
	var d Decision
	if len(p.Unions) > 0 {
		for _, bp := range p.Unions {
			ip, fj := CostSteps(bp.Steps, in)
			d.InPlaceNS += ip
			d.ForkJoinNS += fj
		}
	} else {
		d.InPlaceNS, d.ForkJoinNS = CostSteps(p.Steps, in)
	}
	if d.ForkJoinNS < d.InPlaceNS {
		d.Mode = exec.ForkJoin
	} else {
		d.Mode = exec.InPlace
	}
	return d
}

// CostSteps prices one step sequence under both strategies. Estimates walk
// the planner's per-step cardinality annotations; a zero-cardinality
// predicate yields an (clamped) empty table and near-zero cost for both
// strategies, never a NaN.
func CostSteps(steps []plan.Step, in CostInputs) (inPlaceNS, forkJoinNS float64) {
	in = in.withDefaults()
	nodes := float64(in.Nodes)
	pRemote := (nodes - 1) / nodes // chance a uniformly-placed vertex is remote
	rows := 1.0                    // current estimated table size
	for _, st := range steps {
		if st.Kind == plan.Filter {
			inPlaceNS += rows * in.RowCPUNS
			forkJoinNS += rows * in.RowCPUNS
			continue
		}
		out := st.EstRows
		if out < 1 {
			out = 1
		}
		switch st.Kind {
		case plan.SeedConst:
			// One neighbor-list read (possibly remote) plus materialization.
			c := pRemote*in.OneSidedReadNS + out*in.RowCPUNS
			inPlaceNS += c
			forkJoinNS += c
		case plan.SeedIndex:
			// In-place gathers every partition's candidates to one worker,
			// then expands each candidate with a (probably remote) read.
			inPlaceNS += (nodes - 1) * in.OneSidedReadNS
			inPlaceNS += out * (pRemote*in.OneSidedReadNS + in.RowCPUNS)
			// Fork-join scatters to the data's homes: one RPC per active
			// branch, local expansion in parallel, rows shipped back.
			branches := math.Min(nodes, out)
			forkJoinNS += branches*in.RPCNS + out*16*in.RPCPerByteNS + out*in.RowCPUNS/nodes
		case plan.Expand, plan.Check:
			// In-place: one neighbor read per input row.
			inPlaceNS += rows * (pRemote*in.OneSidedReadNS + in.RowCPUNS)
			if rows >= float64(in.ForkThreshold) && st.From.IsVar() {
				// Fork-join forks this step: scatter the table, traverse
				// locally in parallel, gather the result.
				branches := math.Min(nodes, rows)
				forkJoinNS += branches * in.RPCNS
				forkJoinNS += (rows + out) * 16 * in.RPCPerByteNS
				forkJoinNS += rows * in.RowCPUNS / nodes
			} else {
				// Below the fork threshold the step runs in place either way.
				forkJoinNS += rows * (pRemote*in.OneSidedReadNS + in.RowCPUNS)
			}
		}
		rows = out
	}
	return inPlaceNS, forkJoinNS
}
