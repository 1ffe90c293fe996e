package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/stream"
)

// firingLog renders a query's firings as one string: one line per firing in
// window order, its rows in the order the engine delivered them.
type firingLog struct {
	mu    sync.Mutex
	fires map[rdf.Timestamp]string
}

func (l *firingLog) cb(r *Result, f FireInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fires[f.At] = strings.Join(r.Strings(), "|")
}

func (l *firingLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ats := make([]rdf.Timestamp, 0, len(l.fires))
	for at := range l.fires {
		ats = append(ats, at)
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	var b strings.Builder
	for _, at := range ats {
		fmt.Fprintf(&b, "%d: %s\n", at, l.fires[at])
	}
	return b.String()
}

// runFiringScript feeds one engine the fixed script — eight subjects per
// 100 ms batch, each posting one fresh item — under `?X po ?Y` in a sliding
// window, and returns its firing log.
func runFiringScript(t *testing.T, cfg Config) string {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	src, err := e.RegisterStream(stream.Config{Name: "S", BatchInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	log := &firingLog{fires: map[rdf.Timestamp]string{}}
	if _, err := e.RegisterContinuous(`
REGISTER QUERY det AS
SELECT ?X ?Y
FROM S [RANGE 300ms STEP 100ms]
WHERE { GRAPH S { ?X po ?Y } }`, log.cb); err != nil {
		t.Fatal(err)
	}
	for ts := rdf.Timestamp(100); ts <= 1200; ts += 100 {
		for i := 0; i < 8; i++ {
			emit(t, src, ts-50+rdf.Timestamp(i), fmt.Sprintf("user%d", (i*5)%8), "po", fmt.Sprintf("post%d_%d", ts, i))
		}
		e.AdvanceTo(ts)
	}
	return log.String()
}

// TestFiringOrderIsDeterministic: two engines with the same configuration,
// fed the same script, deliver byte-identical firing sequences — the same
// rows in the same order. Row order used to follow which node's injector
// reached the stream index first, and a Go map's iteration order in delta
// seeding.
func TestFiringOrderIsDeterministic(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		for _, delta := range []string{DeltaModeAuto, DeltaModeOff} {
			for _, mode := range []string{PlanModeAuto, PlanModeInPlace, PlanModeForkJoin} {
				cfg := Config{Nodes: nodes, WorkersPerNode: 2, DeltaMode: delta, PlanMode: mode}
				t.Run(fmt.Sprintf("nodes=%d/delta=%s/plan=%s", nodes, delta, mode), func(t *testing.T) {
					first := runFiringScript(t, cfg)
					if strings.Count(first, "\n") < 10 {
						t.Fatalf("too few firings to compare:\n%s", first)
					}
					for run := 0; run < 3; run++ {
						if again := runFiringScript(t, cfg); again != first {
							t.Fatalf("run %d delivered a different firing sequence:\nfirst:\n%s\nagain:\n%s", run+2, first, again)
						}
					}
				})
			}
		}
	}
}
