package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/stream"
)

// counterValue reads a registry counter by name suffix (registries prepend
// their prefix).
func counterValue(t *testing.T, r *obs.Registry, suffix string) int64 {
	t.Helper()
	var out int64
	found := false
	r.Each(func(name string, m obs.Metric) {
		if strings.HasSuffix(name, suffix) {
			if v, ok := m.(interface{ Value() int64 }); ok {
				out = v.Value()
				found = true
			}
		}
	})
	if !found {
		t.Fatalf("no metric with suffix %q", suffix)
	}
	return out
}

// TestOneShotDeadline: a one-shot query past its deadline aborts with
// context.DeadlineExceeded and is counted; an explicit context deadline
// overrides the engine default; cancellation aborts too.
func TestOneShotDeadline(t *testing.T) {
	r := obs.NewRegistry("test")
	e, err := New(Config{
		Nodes:   1,
		Metrics: r,
		Flow:    FlowConfig{QueryDeadline: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var triples []rdf.Triple
	for i := 0; i < 8; i++ {
		triples = append(triples, rdf.T(string(rune('a'+i))+"s", "po", string(rune('a'+i))+"o"))
	}
	e.LoadTriples(triples)

	const q = `SELECT ?X ?Y WHERE { ?X po ?Y }`
	if _, err := e.Query(q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query under a 1ns engine deadline = %v, want DeadlineExceeded", err)
	}
	if got := counterValue(t, r, "oneshot_deadline_exceeded_total"); got != 1 {
		t.Fatalf("oneshot_deadline_exceeded_total = %d, want 1", got)
	}

	// An explicit context deadline takes precedence over the engine default.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := e.QueryCtx(ctx, q)
	if err != nil {
		t.Fatalf("query with a generous explicit deadline failed: %v", err)
	}
	if res.Len() != len(triples) {
		t.Fatalf("rows = %d, want %d", res.Len(), len(triples))
	}

	// Cancellation aborts mid-execution paths the same way.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := e.QueryCtx(cctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("query with a cancelled context = %v, want Canceled", err)
	}
}

// TestCQDeadlineShedsFirings: a continuous firing past Flow.CQDeadline is
// abandoned — counted, not delivered, never panicking — and the scheduler
// keeps stepping.
// flowTestQuery is a 1-batch-window continuous query over the scripted
// stream F.
const flowTestQuery = `
REGISTER QUERY QF AS
SELECT ?X ?Y FROM F [RANGE 100ms STEP 100ms]
WHERE { GRAPH F { ?X po ?Y } }`

// flowTestTuples builds batch b's tuples for the scripted stream F.
func flowTestTuples(b int) []rdf.Tuple {
	base := rdf.Timestamp((b - 1) * 100)
	out := make([]rdf.Tuple, 0, 8)
	for i := 0; i < 8; i++ {
		out = append(out, rdf.Tuple{
			Triple: rdf.T(
				string(rune('a'+i))+"s",
				"po",
				string(rune('a'+i))+"o",
			),
			TS: base + rdf.Timestamp(i),
		})
	}
	return out
}

func TestCQDeadlineShedsFirings(t *testing.T) {
	r := obs.NewRegistry("test")
	e, err := New(Config{
		Nodes:   1,
		Metrics: r,
		Flow:    FlowConfig{CQDeadline: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	src, err := e.RegisterStream(stream.Config{Name: "F", BatchInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	cq, err := e.RegisterContinuous(flowTestQuery, func(*Result, FireInfo) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 3; b++ {
		for _, tu := range flowTestTuples(b) {
			if err := src.Emit(tu); err != nil {
				t.Fatal(err)
			}
		}
		e.AdvanceTo(rdf.Timestamp(b * 100))
	}
	st := cq.Stats()
	if st.DeadlineExceeded == 0 {
		t.Fatalf("stats = %+v, want deadline-exceeded firings", st)
	}
	if st.Executions != 0 || delivered != 0 {
		t.Fatalf("deadline-exceeded windows were delivered: stats=%+v delivered=%d", st, delivered)
	}
	if got := counterValue(t, r, "cq_deadline_exceeded_total"); got != st.DeadlineExceeded {
		t.Fatalf("cq_deadline_exceeded_total = %d, stats say %d", got, st.DeadlineExceeded)
	}
}
