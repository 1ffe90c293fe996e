package server

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trace"
)

// fakeBackend implements ClusterBackend, recording what the server hands it.
type fakeBackend struct {
	lastTC   trace.Context
	lastKind string
	stats    []cluster.MemberReport
	metrics  map[string]obs.JSONMetric
	spans    []trace.Span
}

func (f *fakeBackend) ForwardTraced(tc trace.Context, kind string, args []string, body string) (string, error) {
	f.lastKind, f.lastTC = kind, tc
	return "ok " + kind, nil
}

func (f *fakeBackend) Home(string) (fabric.NodeID, bool, bool) { return 0, true, true }
func (f *fakeBackend) Info() []string                          { return []string{"0 self"} }

func (f *fakeBackend) ClusterStats() []cluster.MemberReport { return f.stats }
func (f *fakeBackend) ClusterMetrics() (map[string]obs.JSONMetric, []cluster.MemberReport) {
	return f.metrics, f.stats
}
func (f *fakeBackend) ClusterTraces() ([]trace.Span, []cluster.MemberReport) {
	return f.spans, f.stats
}

func startTracedClusterServer(t *testing.T) (*Server, *fakeBackend, *trace.Tracer, string) {
	t.Helper()
	srv, addr := startServer(t)
	fb := &fakeBackend{
		stats: []cluster.MemberReport{
			{Rank: 0, State: "self", Stats: "applied=3"},
			{Rank: 1, State: "dead", Err: "declared dead; not probed"},
		},
		metrics: map[string]obs.JSONMetric{},
		spans: []trace.Span{
			{TraceID: 9, SpanID: 9, Node: 0, Name: "server.query", Start: 100, Dur: 50},
			{TraceID: 9, SpanID: 10, Parent: 9, Node: 1, Name: "serve.query", Start: 110, Dur: 20},
		},
	}
	tr := trace.New(trace.Config{SampleEvery: 1})
	srv.Tracer = tr
	srv.SetCluster(fb)
	return srv, fb, tr, addr
}

func TestServerRootSpanReachesBackend(t *testing.T) {
	srv, fb, tr, addr := startTracedClusterServer(t)
	c := dial(t, addr)

	// A cluster-mode QUERY is answered by the local engine, not the backend.
	srv.eng.LoadTriples([]rdf.Triple{rdf.T("a", "p", "b")})
	c.send("QUERY", "SELECT ?X WHERE { ?X p ?Y }", ".")
	expectOK(t, c.status())
	if rows := c.rows(); len(rows) != 1 || rows[0] != "a" {
		t.Fatalf("cluster-mode QUERY rows = %v, want the local engine's [a]", rows)
	}
	if fb.lastKind != "" {
		t.Fatalf("QUERY reached the cluster backend as %q", fb.lastKind)
	}
	c.send("ADVANCE 100")
	expectOK(t, c.status())
	if fb.lastKind != "ADVANCE" || !fb.lastTC.Valid() || !fb.lastTC.Sampled() {
		t.Fatalf("ADVANCE not traced: kind=%q tc=%+v", fb.lastKind, fb.lastTC)
	}

	// The server recorded the matching roots.
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "server.query") || !strings.Contains(joined, "server.advance") {
		t.Fatalf("root spans missing: %v", names)
	}
}

func TestStatsScopedLocalInClusterMode(t *testing.T) {
	_, _, _, addr := startTracedClusterServer(t)
	c := dial(t, addr)
	c.send("STATS")
	st := c.status()
	if !strings.Contains(st, "scope=local") || !strings.Contains(st, "see=CLUSTER-STATS") {
		t.Fatalf("cluster-mode STATS not labeled local: %q", st)
	}
}

func TestStatsUnscopedSingleProcess(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	c.send("STATS")
	if st := c.status(); strings.Contains(st, "scope=local") {
		t.Fatalf("single-process STATS should not carry scope label: %q", st)
	}
}

func TestClusterStatsCommand(t *testing.T) {
	_, _, _, addr := startTracedClusterServer(t)
	c := dial(t, addr)
	c.send("CLUSTER STATS")
	st := c.status()
	expectOK(t, st)
	if !strings.Contains(st, "2 members") {
		t.Fatalf("header %q", st)
	}
	lines := c.rows()
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[0], "rank=0 state=self applied=3") {
		t.Fatalf("live line %q", lines[0])
	}
	if !strings.Contains(lines[1], `rank=1 state=dead err="declared dead; not probed"`) {
		t.Fatalf("dead line %q", lines[1])
	}
}

func TestClusterMetricsCommand(t *testing.T) {
	_, fb, _, addr := startTracedClusterServer(t)
	v := int64(7)
	fb.metrics["wukongs_ops_total"] = obs.JSONMetric{Type: "counter", Value: &v}
	c := dial(t, addr)
	c.send("CLUSTER METRICS")
	expectOK(t, c.status())
	var doc struct {
		Metrics map[string]obs.JSONMetric `json:"metrics"`
		Members []cluster.MemberReport    `json:"members"`
	}
	if err := json.Unmarshal([]byte(strings.Join(c.rows(), "\n")), &doc); err != nil {
		t.Fatalf("bad CLUSTER METRICS JSON: %v", err)
	}
	if m := doc.Metrics["wukongs_ops_total"]; m.Value == nil || *m.Value != 7 {
		t.Fatalf("metrics lost: %+v", doc.Metrics)
	}
	if len(doc.Members) != 2 || doc.Members[1].Err == "" {
		t.Fatalf("member annotations lost: %+v", doc.Members)
	}
}

func TestClusterTracesCommand(t *testing.T) {
	_, _, _, addr := startTracedClusterServer(t)
	c := dial(t, addr)
	c.send("CLUSTER TRACES")
	expectOK(t, c.status())
	var doc trace.TracesDoc
	if err := json.Unmarshal([]byte(strings.Join(c.rows(), "\n")), &doc); err != nil {
		t.Fatalf("bad CLUSTER TRACES JSON: %v", err)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].Spans != 2 {
		t.Fatalf("traces = %+v", doc.Traces)
	}
	if doc.Errors["rank 1"] != "declared dead; not probed" {
		t.Fatalf("errors = %v", doc.Errors)
	}
}
