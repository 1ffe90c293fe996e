// Cluster mode: when a ClusterBackend is installed, every write verb (STREAM,
// LOAD, EMIT, ADVANCE, REGISTER) goes through the cluster's replicated op log
// instead of hitting the local engine directly (cmdWrite). Read-side commands
// (QUERY, POLL, STATS, METRICS, EXPLAIN) stay local: every daemon holds a
// full replica, so a one-shot query runs on the local engine exactly as it
// does standalone, and continuous-query firings are buffered on whichever
// daemon the client polls.
//
// Failure rendering is typed at the protocol layer: a cluster operation that
// could not reach its peer answers "-ERR unavailable: ..." — clients match
// the prefix instead of parsing socket errors.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ClusterBackend is everything the server needs from a cluster daemon.
// *cluster.Node implements it; the indirection keeps the server testable
// with a fake and free of the cluster package's construction details.
type ClusterBackend interface {
	// ForwardTraced runs one write verb cluster-wide and returns the
	// interpreter's reply from the write authority (e.g. "loaded 42"). args
	// may end with the client's id= token. A valid tc joins the downstream
	// hops to the request's trace; the zero Context means untraced.
	ForwardTraced(tc trace.Context, kind string, args []string, body string) (string, error)
	// Home is a placement diagnostic: the engine partition HomeOf assigns
	// an entity, the state of the member rank with that number ("alive",
	// "dead", or "unknown" when no member has it), and whether the entity is
	// known at all.
	Home(entity string) (home fabric.NodeID, state string, known bool)
	// Info renders this daemon's membership view, one line per member.
	Info() []string
	// ClusterStats, ClusterMetrics and ClusterTraces are the cluster-wide
	// observability views behind CLUSTER STATS/METRICS/TRACES: per-member
	// stats lines, merged metrics, and the pooled span records.
	ClusterStats() []cluster.MemberReport
	ClusterMetrics() (map[string]obs.JSONMetric, []cluster.MemberReport)
	ClusterTraces() ([]trace.Span, []cluster.MemberReport)
}

// SetCluster installs the cluster backend. Call before Serve.
func (s *Server) SetCluster(c ClusterBackend) {
	s.mu.Lock()
	s.cluster = c
	s.mu.Unlock()
}

func (s *Server) clusterBackend() ClusterBackend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cluster
}

// renderError writes one "-ERR ..." line with the typed prefixes clients
// parse: overload (an admission edge shed the request; back off by the hint
// instead of tight-looping) and unavailable (a cluster peer could not be
// reached). Everything else renders as plain text.
func renderError(w *bufio.Writer, err error) {
	msg := strings.ReplaceAll(err.Error(), "\n", " ")
	var shed *flow.ShedError
	switch {
	case errors.As(err, &shed):
		fmt.Fprintf(w, "-ERR overload retry-after=%s: %s\n", max(shed.RetryAfter, time.Millisecond), shed.Reason)
	case errors.Is(err, cluster.ErrUnavailable),
		cluster.IsNotAuthority(err),
		errors.Is(err, wire.ErrPeerDown),
		errors.Is(err, flow.ErrBreakerOpen),
		errors.Is(err, fabric.ErrClusterClosed):
		// retry-after carries the failover hint: the write authority moved
		// (or died) and a short backoff beats tight-looping while the
		// successor fences in.
		fmt.Fprintf(w, "-ERR unavailable retry-after=%s: %s\n", cluster.RetryAfterHint, msg)
	default:
		fmt.Fprintf(w, "-ERR %s\n", msg)
	}
}

// cmdCluster serves CLUSTER [STATS|METRICS|TRACES]: bare CLUSTER is this
// daemon's membership view; the subcommands fan out over the wire and merge
// every live member's observability state, annotating unreachable members
// instead of failing (partial results beat none during an outage).
func (s *Server) cmdCluster(w *bufio.Writer, args []string) error {
	c := s.clusterBackend()
	if c == nil {
		return fmt.Errorf("not clustered (single-process daemon)")
	}
	if len(args) == 0 {
		fmt.Fprintf(w, "+OK cluster\n")
		for _, line := range c.Info() {
			fmt.Fprintf(w, "%s\n", line)
		}
		fmt.Fprintf(w, ".\n")
		return nil
	}
	switch strings.ToUpper(args[0]) {
	case "STATS":
		reports := c.ClusterStats()
		fmt.Fprintf(w, "+OK cluster stats %d members\n", len(reports))
		for _, r := range reports {
			writeMemberLine(w, r)
		}
		fmt.Fprintf(w, ".\n")
		return nil
	case "METRICS":
		merged, reports := c.ClusterMetrics()
		doc := struct {
			Metrics map[string]obs.JSONMetric `json:"metrics"`
			Members []cluster.MemberReport    `json:"members"`
		}{merged, reports}
		return writeJSONBlock(w, "cluster metrics", doc)
	case "TRACES":
		spans, reports := c.ClusterTraces()
		doc := trace.TracesDoc{Traces: trace.Assemble(spans), Errors: memberErrors(reports)}
		return writeJSONBlock(w, "cluster traces", doc)
	default:
		return fmt.Errorf("usage: CLUSTER [STATS|METRICS|TRACES]")
	}
}

// writeMemberLine renders one member's federated stats row.
func writeMemberLine(w *bufio.Writer, r cluster.MemberReport) {
	fmt.Fprintf(w, "rank=%d state=%s", r.Rank, r.State)
	if r.Err != "" {
		fmt.Fprintf(w, " err=%q", r.Err)
	} else if r.Stats != "" {
		fmt.Fprintf(w, " %s", r.Stats)
	}
	fmt.Fprintf(w, "\n")
}

// writeJSONBlock renders a "+OK <label>" header, an indented JSON document,
// and the "." terminator. Indented JSON never emits a bare "." line, so the
// protocol framing survives.
func writeJSONBlock(w *bufio.Writer, label string, doc any) error {
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "+OK %s\n%s\n.\n", label, out)
	return nil
}

// memberErrors reshapes failed member reports for trace.TracesDoc.
func memberErrors(reports []cluster.MemberReport) map[string]string {
	var errs map[string]string
	for _, r := range reports {
		if r.Err == "" {
			continue
		}
		if errs == nil {
			errs = make(map[string]string)
		}
		errs[fmt.Sprintf("rank %d", r.Rank)] = r.Err
	}
	return errs
}

// cmdHome serves HOME <entity>: which engine partition the fabric's
// placement assigns the entity, and the state of the member rank with that
// number in this daemon's view. A diagnostic only — QUERY never consults it.
func (s *Server) cmdHome(w *bufio.Writer, args []string) error {
	c := s.clusterBackend()
	if c == nil {
		return fmt.Errorf("not clustered (single-process daemon)")
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: HOME <entity>")
	}
	home, state, known := c.Home(args[0])
	if !known {
		fmt.Fprintf(w, "+OK home=-1 state=unknown known=false\n")
		return nil
	}
	fmt.Fprintf(w, "+OK home=%d state=%s known=true\n", home, state)
	return nil
}
