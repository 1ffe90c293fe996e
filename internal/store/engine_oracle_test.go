package store_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/stream"
)

// Two engines are fed the same seeded ticks. One is left to its own
// collectGarbage; on the other every tick is followed by the oracle's
// every-key walk at the same stable SN. The walk applies the same per-entry
// collapse to a superset of what the list drain visits, so walk∘drain = walk:
// the second engine's store is exactly what a walk-pruned engine would hold,
// and if the drain ever misses an entry the two diverge. They must end every
// tick with equal memory statistics and answer every one-shot alike.
//
// The test lives here rather than in internal/core because the walk exists
// only in this package's _test.go files, which are linked only into this
// package's test binary.
func TestEnginePrunesLikeTheWalk(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			drain, walk := newOracleEngine(t), newOracleEngine(t)
			engines := []*oracleEngine{drain, walk}
			rng := rand.New(rand.NewSource(seed))
			ent := func(i int) string { return fmt.Sprintf("e%d", i) }

			var initial []rdf.Triple
			for i := 0; i < 300; i++ {
				initial = append(initial, rdf.T(ent(rng.Intn(150)), []string{"p", "q"}[i%2], ent(rng.Intn(150))))
			}
			for _, e := range engines {
				e.eng.LoadTriples(initial)
			}

			now, emitTS := rdf.Timestamp(0), rdf.Timestamp(0)
			for tick := 0; tick < 60; tick++ {
				emitTS = max(emitTS, now) // batches up to now are sealed
				for i, burst := 0, rng.Intn(25); i < burst; i++ {
					emitTS += rdf.Timestamp(1 + rng.Intn(12))
					// A few hot subjects are appended to on most ticks; the
					// rest are touched once or twice.
					s := ent(rng.Intn(6))
					if rng.Intn(3) > 0 {
						s = ent(rng.Intn(400))
					}
					tu := rdf.Tuple{Triple: rdf.T(s, []string{"p", "q"}[rng.Intn(2)], ent(rng.Intn(400))), TS: emitTS}
					which := rng.Intn(2)
					for _, e := range engines {
						if err := e.src[which].Emit(tu); err != nil {
							t.Fatal(err)
						}
					}
				}
				now += rdf.Timestamp(100 * (1 + rng.Intn(2)))
				if emitTS >= now {
					now = (emitTS/100 + 1) * 100
				}
				for _, e := range engines {
					e.eng.AdvanceTo(now)
				}
				walk.eng.Store().PruneSnapshotsWalk(walk.eng.Coordinator().StableSN())

				if got, want := drain.eng.Store().Memory(), walk.eng.Store().Memory(); got != want {
					t.Fatalf("tick %d @%d: Memory() = %+v, walk-pruned engine's = %+v", tick, now, got, want)
				}
				if got, want := drain.eng.Store().MultiBoundaryKeys(), walk.eng.Store().MultiBoundaryKeys(); got != want {
					t.Fatalf("tick %d @%d: %d keys listed, the walk leaves %d", tick, now, got, want)
				}
				if tick%10 == 9 {
					for _, q := range []string{
						`SELECT ?x ?y WHERE { ?x p ?y }`,
						`SELECT ?x ?z WHERE { ?x p ?y . ?y q ?z }`,
						`SELECT ?y WHERE { e1 q ?y }`,
					} {
						if got, want := drain.rows(t, q), walk.rows(t, q); got != want {
							t.Fatalf("tick %d @%d: %s\ngot:  %s\nwant: %s", tick, now, q, got, want)
						}
					}
				}
			}
			if got, want := drain.fired.Load(), walk.fired.Load(); got == 0 || got != want {
				t.Errorf("continuous query delivered %d rows, walk-pruned engine %d", got, want)
			}
			if v := drain.eng.Store().OpStats().PruneVisited; v == 0 {
				t.Error("the engine's prunes visited nothing: the schedule exercised no multi-boundary key")
			}
		})
	}
}

type oracleEngine struct {
	eng   *core.Engine
	src   [2]*stream.Source
	fired atomic.Int64 // windows fire on worker goroutines
}

func newOracleEngine(t *testing.T) *oracleEngine {
	t.Helper()
	eng, err := core.New(core.Config{Nodes: 2, WorkersPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	e := &oracleEngine{eng: eng}
	for i, name := range []string{"A", "B"} {
		if e.src[i], err = eng.RegisterStream(stream.Config{Name: name, BatchInterval: 100 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = eng.RegisterContinuous(`
REGISTER QUERY joined AS
SELECT ?x ?y ?z
FROM A [RANGE 500ms STEP 100ms]
WHERE { GRAPH A { ?x p ?y } . ?y q ?z }`,
		func(r *core.Result, _ core.FireInfo) { e.fired.Add(int64(r.Len())) })
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func (e *oracleEngine) rows(t *testing.T, query string) string {
	t.Helper()
	res, err := e.eng.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Strings()
	sort.Strings(rows)
	return strings.Join(rows, "|")
}
