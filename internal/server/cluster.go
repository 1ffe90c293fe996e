// Cluster mode: when a ClusterBackend is installed, every state-mutating
// command (STREAM, LOAD, EMIT, ADVANCE, REGISTER) is forwarded through the
// cluster's replicated op log instead of hitting the local engine directly.
// Read-side commands (QUERY, POLL, STATS, METRICS, EXPLAIN) stay local:
// every daemon holds a full replica, so a one-shot query runs on the local
// engine exactly as it does standalone, and continuous-query firings are
// buffered on whichever daemon the client polls.
//
// Failure rendering is typed at the protocol layer: a cluster operation that
// could not reach its peer answers "-ERR unavailable: ...", and an engine
// whose in-process fabric lost a node's partition answers
// "-ERR partition-down node=<n>: ..." — clients match the prefixes instead
// of parsing socket errors.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ClusterBackend is what the server needs from a cluster daemon.
// cluster.Node implements it; the indirection keeps the server testable
// with fakes and free of the cluster package's construction details.
type ClusterBackend interface {
	// Forward runs one replicated state-mutating op cluster-wide and
	// returns the seed's apply reply (e.g. "loaded 42").
	Forward(kind string, args []string, body string) (string, error)
	// Home is a placement diagnostic: the rank HomeOf assigns an entity,
	// that rank's liveness, and whether the entity is known at all.
	Home(entity string) (rank fabric.NodeID, alive, known bool)
	// Info renders this daemon's membership view, one line per rank.
	Info() []string
}

// TracedBackend is the optional trace-propagating face of a backend. When
// the backend implements it and the server has a valid root context, the
// context is threaded through so downstream hops join the request's trace.
type TracedBackend interface {
	ForwardTraced(tc trace.Context, kind string, args []string, body string) (string, error)
}

// FederatedBackend is the optional cluster-wide observability face of a
// backend: merged metrics, per-member stats lines, and the pooled span
// records behind CLUSTER STATS/METRICS/TRACES and the obs-mux endpoints.
type FederatedBackend interface {
	ClusterStats() []cluster.MemberReport
	ClusterMetrics() (map[string]obs.JSONMetric, []cluster.MemberReport)
	ClusterTraces() ([]trace.Span, []cluster.MemberReport)
}

// forward routes a replicated op through the traced path when available.
func forward(c ClusterBackend, tc trace.Context, kind string, args []string, body string) (string, error) {
	if tb, ok := c.(TracedBackend); ok && tc.Valid() {
		return tb.ForwardTraced(tc, kind, args, body)
	}
	return c.Forward(kind, args, body)
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
// parse: partition-down (the engine's in-process fabric lost the node a
// query needed) and unavailable (a cluster peer could not be reached).
// Everything else renders as before.
func renderError(w *bufio.Writer, err error) {
	msg := strings.ReplaceAll(err.Error(), "\n", " ")
	var down *core.PartitionDownError
	switch {
	case errors.As(err, &down):
		fmt.Fprintf(w, "-ERR partition-down node=%d: %s\n", down.Node, msg)
	case errors.Is(err, core.ErrPartitionDown):
		fmt.Fprintf(w, "-ERR partition-down node=-1: %s\n", msg)
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

// The cluster-mode twins of the write-path commands. Replies are printed
// from the seed's apply result, which matches the local command output
// formats exactly.

func (s *Server) cmdStreamCluster(w *bufio.Writer, c ClusterBackend, args []string, tc trace.Context) error {
	// Validate the bare command; the full args (with any trailing id= token,
	// the client's exactly-once handle) go to the cluster untouched.
	bare := stripIDToken(args)
	if len(bare) < 2 {
		return fmt.Errorf("usage: STREAM <name> <interval_ms> [timingPred ...]")
	}
	if ms, err := strconv.ParseInt(bare[1], 10, 64); err != nil || ms <= 0 {
		return fmt.Errorf("bad interval %q", bare[1])
	}
	reply, err := forward(c, tc, "STREAM", args, "")
	if err != nil {
		return mapShed(err)
	}
	// Keep the local source map warm for EMIT fallbacks and tests: the op
	// has been applied to the local replica by the time Forward returns on
	// the seed; on members it lands asynchronously, so tolerate absence.
	if src, ok := s.eng.SourceOf(bare[0]); ok {
		s.mu.Lock()
		s.sources[bare[0]] = src
		s.mu.Unlock()
	}
	fmt.Fprintf(w, "+OK %s\n", reply)
	return nil
}

func (s *Server) cmdLoadCluster(w *bufio.Writer, c ClusterBackend, r *bufio.Scanner, args []string, tc trace.Context) error {
	block, err := readBlock(r)
	if err != nil {
		return err
	}
	reply, err := forward(c, tc, "LOAD", args, block)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "+OK %s\n", reply)
	return nil
}

func (s *Server) cmdEmitCluster(w *bufio.Writer, c ClusterBackend, r *bufio.Scanner, args []string, tc trace.Context) error {
	block, err := readBlock(r)
	if err != nil {
		return err
	}
	bare := stripIDToken(args)
	if len(bare) != 1 {
		return fmt.Errorf("usage: EMIT <stream>")
	}
	// Validate and count tuples here so the ingest-edge rate limiter keeps
	// protecting the cluster write path exactly as it protects the local
	// engine: the whole EMIT is admitted or shed before anything is
	// replicated.
	rd := rdf.NewReader(strings.NewReader(block))
	n := 0
	for {
		if _, err := rd.ReadTuple(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		n++
	}
	if lim := s.emitLimiter(); lim != nil && n > 0 {
		if !lim.WaitMax(float64(n), s.EmitWait) {
			s.cEmitShed.Inc()
			return overloadError(lim.RetryAfter(float64(n)),
				fmt.Sprintf("EMIT rate limit (%d tuples)", n))
		}
	}
	reply, err := forward(c, tc, "EMIT", args, block)
	if err != nil {
		if errors.Is(err, flow.ErrShed) || strings.HasPrefix(err.Error(), "flow: ") {
			s.cEmitShed.Inc()
		}
		return mapShed(err)
	}
	fmt.Fprintf(w, "+OK %s\n", reply)
	return nil
}

func (s *Server) cmdAdvanceCluster(w *bufio.Writer, c ClusterBackend, args []string, tc trace.Context) error {
	bare := stripIDToken(args)
	if len(bare) != 1 {
		return fmt.Errorf("usage: ADVANCE <ts_ms>")
	}
	if _, err := strconv.ParseInt(bare[0], 10, 64); err != nil {
		return fmt.Errorf("bad timestamp %q", bare[0])
	}
	reply, err := forward(c, tc, "ADVANCE", args, "")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "+OK %s\n", reply)
	return nil
}

func (s *Server) cmdRegisterCluster(w *bufio.Writer, c ClusterBackend, r *bufio.Scanner, args []string, tc trace.Context) error {
	text, err := readBlock(r)
	if err != nil {
		return err
	}
	reply, err := forward(c, tc, "REGISTER", args, text)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "+OK %s\n", reply)
	return nil
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
	fb, ok := c.(FederatedBackend)
	if !ok {
		return fmt.Errorf("backend does not support CLUSTER %s", strings.ToUpper(args[0]))
	}
	switch strings.ToUpper(args[0]) {
	case "STATS":
		reports := fb.ClusterStats()
		fmt.Fprintf(w, "+OK cluster stats %d members\n", len(reports))
		for _, r := range reports {
			writeMemberLine(w, r)
		}
		fmt.Fprintf(w, ".\n")
		return nil
	case "METRICS":
		merged, reports := fb.ClusterMetrics()
		doc := struct {
			Metrics map[string]obs.JSONMetric `json:"metrics"`
			Members []cluster.MemberReport    `json:"members"`
		}{merged, reports}
		return writeJSONBlock(w, "cluster metrics", doc)
	case "TRACES":
		spans, reports := fb.ClusterTraces()
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

// cmdHome serves HOME <entity>: which rank the fabric's placement assigns the
// entity and whether that rank is currently alive in this daemon's view. A
// diagnostic only — QUERY never consults it.
func (s *Server) cmdHome(w *bufio.Writer, args []string) error {
	c := s.clusterBackend()
	if c == nil {
		return fmt.Errorf("not clustered (single-process daemon)")
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: HOME <entity>")
	}
	rank, alive, known := c.Home(args[0])
	if !known {
		fmt.Fprintf(w, "+OK home=-1 state=unknown known=false\n")
		return nil
	}
	state := "alive"
	if !alive {
		state = "dead"
	}
	fmt.Fprintf(w, "+OK home=%d state=%s known=true\n", rank, state)
	return nil
}
