package trace

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"
)

func TestContextRoundTrip(t *testing.T) {
	c := Context{TraceID: 0xdeadbeefcafe, SpanID: 42, Flags: FlagSampled}
	b := AppendContext(nil, c)
	if len(b) != ContextSize {
		t.Fatalf("encoded %d bytes, want %d", len(b), ContextSize)
	}
	got, err := DecodeContext(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("roundtrip: got %+v want %+v", got, c)
	}
	if !got.Valid() || !got.Sampled() {
		t.Fatalf("flags lost: %+v", got)
	}
	if _, err := DecodeContext(b[:ContextSize-1]); !errors.Is(err, ErrShortContext) {
		t.Fatalf("short decode: got %v", err)
	}
}

func TestZeroContextIsNoTrace(t *testing.T) {
	var c Context
	if c.Valid() || c.Sampled() {
		t.Fatal("zero context must be invalid")
	}
	got, err := DecodeContext(AppendContext(nil, c))
	if err != nil || got.Valid() {
		t.Fatalf("zero roundtrip: %+v %v", got, err)
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 4, Node: 3})
	sampled := 0
	for i := 0; i < 100; i++ {
		a := tr.StartRoot("req")
		if a.Context().Sampled() {
			sampled++
		}
		a.End()
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100, want 25", sampled)
	}
	spans := tr.Spans()
	if len(spans) != 25 {
		t.Fatalf("kept %d spans, want 25", len(spans))
	}
	for _, sp := range spans {
		if sp.Node != 3 || sp.Name != "req" {
			t.Fatalf("bad span %+v", sp)
		}
	}
	st := tr.Stats()
	if st.Started != 100 || st.Kept != 25 {
		t.Fatalf("stats %+v", st)
	}
}

func TestChildInheritsSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	root := tr.StartRoot("root")
	child := tr.Start(root.Context(), "child")
	if !child.Context().Sampled() {
		t.Fatal("child lost sampled bit")
	}
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child left the trace")
	}
	if child.Context().SpanID == root.Context().SpanID {
		t.Fatal("child reused parent span id")
	}
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("kept %d spans, want 2", len(spans))
	}
	// Child ended first, so it lands first in the ring.
	if spans[0].Parent != root.Context().SpanID {
		t.Fatalf("child parent = %d, want %d", spans[0].Parent, root.Context().SpanID)
	}
	if spans[1].Parent != 0 {
		t.Fatalf("root has parent %d", spans[1].Parent)
	}
}

func TestSlowThresholdKeepsUnsampled(t *testing.T) {
	tr := New(Config{SampleEvery: 0, SlowThreshold: time.Millisecond})
	fast := tr.StartRoot("fast")
	fast.End()
	slow := tr.StartRoot("slow")
	time.Sleep(3 * time.Millisecond)
	slow.EndErr(errors.New("deadline"))
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "slow" {
		t.Fatalf("spans = %+v, want only the slow one", spans)
	}
	if spans[0].Err != "deadline" {
		t.Fatalf("err not recorded: %+v", spans[0])
	}
	if spans[0].Dur < (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("implausible duration %d", spans[0].Dur)
	}
}

func TestRingWrapEvictsOldest(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Capacity: 8})
	for i := 0; i < 20; i++ {
		tr.StartRoot("r").End()
	}
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("ring holds %d, want 8", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("spans not oldest-first after wrap")
		}
	}
	if ev := tr.Stats().Evicted; ev != 12 {
		t.Fatalf("evicted %d, want 12", ev)
	}
}

func TestNilAndDisabledTracerAreNoops(t *testing.T) {
	var nilT *Tracer
	a := nilT.StartRoot("x")
	a.End()
	if c := a.Context(); c.Valid() {
		t.Fatal("nil tracer produced a context")
	}
	nilT.SetNode(1)
	if got := nilT.Spans(); got != nil {
		t.Fatal("nil tracer has spans")
	}

	// With head sampling and the slow path both off, a tracer keeps nothing.
	tr := New(Config{})
	b := tr.StartRoot("x")
	tr.Start(b.Context(), "y").End()
	b.End()
	if len(tr.Spans()) != 0 || tr.Stats().Kept != 0 {
		t.Fatal("disabled tracer recorded")
	}
}

// mkSpan builds a deterministic span for assembly tests.
func mkSpan(tid, sid, parent uint64, node int, name string, start, dur int64) Span {
	return Span{TraceID: tid, SpanID: sid, Parent: parent, Node: node, Name: name, Start: start, Dur: dur}
}

func TestAssembleLinksTree(t *testing.T) {
	spans := []Span{
		mkSpan(1, 10, 0, 1, "server.query", 100, 900),
		mkSpan(1, 11, 10, 1, "cluster.forward", 150, 700),
		mkSpan(1, 12, 11, 0, "serve.query", 200, 500),
		mkSpan(1, 13, 12, 0, "exec.local", 250, 300),
	}
	trees := Assemble(spans)
	if len(trees) != 1 {
		t.Fatalf("%d trees", len(trees))
	}
	tr := trees[0]
	if tr.Spans != 4 || tr.Orphans != 0 || tr.Dups != 0 {
		t.Fatalf("tree %+v", tr)
	}
	if len(tr.Nodes) != 2 || tr.Nodes[0] != 0 || tr.Nodes[1] != 1 {
		t.Fatalf("nodes %v", tr.Nodes)
	}
	if tr.Root.Name != "server.query" {
		t.Fatalf("root %q", tr.Root.Name)
	}
	// Walk the chain down.
	n := tr.Root
	for _, want := range []string{"cluster.forward", "serve.query", "exec.local"} {
		if len(n.Children) != 1 {
			t.Fatalf("%q has %d children", n.Name, len(n.Children))
		}
		n = n.Children[0]
		if n.Name != want {
			t.Fatalf("got %q want %q", n.Name, want)
		}
	}
	if tr.Start != 100 || tr.Dur != 900 {
		t.Fatalf("extent %d+%d", tr.Start, tr.Dur)
	}
}

func TestAssembleToleratesDropsAndDups(t *testing.T) {
	spans := []Span{
		mkSpan(7, 70, 0, 0, "root", 100, 400),
		// Parent span 99 was never recorded (dropped frame): orphan.
		mkSpan(7, 71, 99, 1, "orphan-child", 150, 100),
		// Duplicated frame -> same span recorded twice on the far side.
		mkSpan(7, 72, 70, 1, "dup", 200, 50),
		mkSpan(7, 72, 70, 1, "dup", 200, 50),
	}
	trees := Assemble(spans)
	if len(trees) != 1 {
		t.Fatalf("%d trees", len(trees))
	}
	tr := trees[0]
	if tr.Spans != 3 || tr.Orphans != 1 || tr.Dups != 1 {
		t.Fatalf("tree %+v", tr)
	}
	if len(tr.Root.Children) != 2 {
		t.Fatalf("root children %d", len(tr.Root.Children))
	}
}

func TestAssembleSynthesizesMissingRoot(t *testing.T) {
	spans := []Span{
		mkSpan(9, 91, 90, 2, "late", 300, 100),
		mkSpan(9, 92, 90, 1, "early", 100, 100),
	}
	trees := Assemble(spans)
	if len(trees) != 1 {
		t.Fatalf("%d trees", len(trees))
	}
	tr := trees[0]
	if tr.Root.Name != "early" {
		t.Fatalf("synthesized root %q, want earliest span", tr.Root.Name)
	}
	if tr.Spans != 2 || tr.Orphans != 1 {
		t.Fatalf("tree %+v", tr)
	}
}

func TestAssembleOrdersTreesNewestFirst(t *testing.T) {
	spans := []Span{
		mkSpan(1, 1, 0, 0, "old", 100, 10),
		mkSpan(2, 2, 0, 0, "new", 900, 10),
	}
	trees := Assemble(spans)
	if len(trees) != 2 || trees[0].Root.Name != "new" {
		t.Fatalf("order wrong: %+v", trees)
	}
}

func TestHandlerFiltersAndLimits(t *testing.T) {
	spans := []Span{
		mkSpan(1, 1, 0, 0, "fast", 100, 10),
		mkSpan(2, 2, 0, 0, "slow", 200, 5_000_000),
	}
	h := Handler(func() ([]Span, map[string]string) {
		return spans, map[string]string{"2": "dead"}
	})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_ns=1000000", nil))
	var doc TracesDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].Root.Name != "slow" {
		t.Fatalf("slow filter: %+v", doc.Traces)
	}
	if doc.Errors["2"] != "dead" {
		t.Fatalf("errors lost: %+v", doc.Errors)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=1", nil))
	doc = TracesDoc{}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("n=1 returned %d", len(doc.Traces))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_ns=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad min_ns: code %d", rec.Code)
	}
}

// BenchmarkSpanUnsampled is the hot-path cost when head sampling skips the
// request: three atomic adds and two clock reads, no ring write.
func BenchmarkSpanUnsampled(b *testing.B) {
	tr := New(Config{SampleEvery: 1 << 30})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := tr.StartRoot("bench")
		a.End()
	}
}

// BenchmarkSpanSampled includes the ring write.
func BenchmarkSpanSampled(b *testing.B) {
	tr := New(Config{SampleEvery: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := tr.StartRoot("bench")
		a.End()
	}
}

// BenchmarkSpanDisabled is the cost with tracing off entirely (a nil
// tracer, as -trace-sample 0 leaves it).
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := tr.StartRoot("bench")
		a.End()
	}
}
