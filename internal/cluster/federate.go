// Cluster-wide observability federation (DESIGN.md §13). Any daemon can
// answer CLUSTER STATS / CLUSTER METRICS / CLUSTER TRACES by fanning the
// matching FED* verb out to every live member over the same transport the
// data plane uses, then merging what comes back. The fan-out degrades
// instead of failing: a member this daemon's detector has declared dead is
// annotated and never probed (no timeout stall), and a member that errors
// mid-call contributes an explicit per-node error instead of poisoning the
// merge. Snapshots are taken at different instants on different nodes —
// the merged view is monitoring-consistent, not transactional.
package cluster

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/internal/fabric"
	"repro/internal/member"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Federation verbs served by HandleCall on every daemon.
const (
	verbFedStats   = "FEDSTATS"
	verbFedMetrics = "FEDMETRICS"
	verbFedTraces  = "FEDTRACES"
)

// MemberReport is one member's slice of a federated answer: identity, this
// daemon's liveness view of it, and either its payload or why it is absent.
type MemberReport struct {
	Rank  int    `json:"rank"`
	Addr  string `json:"addr,omitempty"`
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
	Stats string `json:"stats,omitempty"`
}

// localStatsLine renders this daemon's one-line stats contribution.
func (n *Node) localStatsLine() string {
	if n.cfg.LocalStats != nil {
		return n.cfg.LocalStats()
	}
	return fmt.Sprintf("rank=%d applied=%d", int(n.self), n.Applied())
}

// localMetricsJSON renders this daemon's registry snapshot.
func (n *Node) localMetricsJSON() ([]byte, error) {
	if n.cfg.Metrics == nil {
		return []byte("{}"), nil
	}
	return json.Marshal(n.cfg.Metrics.SnapshotJSON())
}

// localTracesJSON renders this daemon's recorded spans.
func (n *Node) localTracesJSON() ([]byte, error) {
	spans := n.tracer.Spans()
	if spans == nil {
		spans = []trace.Span{}
	}
	return json.Marshal(spans)
}

// serveFed answers one federation verb from local state.
func (n *Node) serveFed(verb string) ([]byte, error) {
	switch verb {
	case verbFedStats:
		return []byte(n.localStatsLine()), nil
	case verbFedMetrics:
		return n.localMetricsJSON()
	case verbFedTraces:
		return n.localTracesJSON()
	}
	return nil, fmt.Errorf("cluster: unknown federation verb %q", verb)
}

type fedResult struct {
	report  MemberReport
	payload []byte
}

// federate collects one verb's payload from every reachable member,
// concurrently. Self is served in-process; a member declared dead is
// reported but not probed, so a partitioned cluster answers in call-latency
// time, not dead-member-timeout time.
func (n *Node) federate(verb, op string) []fedResult {
	members := n.membersCopy()
	out := make([]fedResult, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		st := n.det.State(m.rank)
		out[i].report = MemberReport{Rank: int(m.rank), Addr: m.addr, State: st.String()}
		switch {
		case m.rank == n.self:
			out[i].report.State = "self"
			payload, err := n.serveFed(verb)
			if err != nil {
				out[i].report.Err = err.Error()
			}
			out[i].payload = payload
		case st == member.Dead:
			out[i].report.Err = "declared dead; not probed"
		default:
			wg.Add(1)
			go func(slot *fedResult, rank fabric.NodeID) {
				defer wg.Done()
				resp, err := n.call(rank, verb, "", op)
				if err != nil {
					slot.report.Err = err.Error()
					return
				}
				slot.payload = []byte(resp)
			}(&out[i], m.rank)
		}
	}
	wg.Wait()
	return out
}

// ClusterStats returns every reachable member's one-line stats, with
// explicit per-node errors for members that are dead or failed mid-call.
func (n *Node) ClusterStats() []MemberReport {
	res := n.federate(verbFedStats, "cluster stats")
	reports := make([]MemberReport, len(res))
	for i, r := range res {
		reports[i] = r.report
		if reports[i].Err == "" {
			reports[i].Stats = strings.TrimRight(string(r.payload), "\n")
		}
	}
	return reports
}

// ClusterMetrics merges every reachable member's registry snapshot into one
// cluster-wide view (counters/gauges sum, histograms merge and recompute
// quantiles) and reports per-node outcomes alongside it.
func (n *Node) ClusterMetrics() (map[string]obs.JSONMetric, []MemberReport) {
	res := n.federate(verbFedMetrics, "cluster metrics")
	merged := make(map[string]obs.JSONMetric)
	reports := make([]MemberReport, len(res))
	for i, r := range res {
		reports[i] = r.report
		if reports[i].Err != "" {
			continue
		}
		var snap map[string]obs.JSONMetric
		if err := json.Unmarshal(r.payload, &snap); err != nil {
			reports[i].Err = "bad metrics payload: " + err.Error()
			continue
		}
		obs.MergeSnapshots(merged, snap)
	}
	return merged, reports
}

// ClusterTraces gathers every reachable member's recorded spans. Spans from
// one distributed request share a trace id regardless of which node
// recorded them, so the caller (trace.Assemble) stitches cross-process
// trees from this pool.
func (n *Node) ClusterTraces() ([]trace.Span, []MemberReport) {
	res := n.federate(verbFedTraces, "cluster traces")
	var spans []trace.Span
	reports := make([]MemberReport, len(res))
	for i, r := range res {
		reports[i] = r.report
		if reports[i].Err != "" {
			continue
		}
		var part []trace.Span
		if err := json.Unmarshal(r.payload, &part); err != nil {
			reports[i].Err = "bad traces payload: " + err.Error()
			continue
		}
		spans = append(spans, part...)
	}
	return spans, reports
}
