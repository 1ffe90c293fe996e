package repro

// BenchmarkObsOverhead times the instrumented tick: a marketfeed-style
// workload (examples/marketfeed) with every engine metric recording into the
// process-wide registry. The registry has no off-switch; the instrumentation
// tax was measured once against one (~2–3% of tick throughput, DESIGN.md
// §9), and this benchmark tracks the instrumented tick's cost and
// allocations from there:
//
//	go test -bench BenchmarkObsOverhead -benchtime 10x -run '^$' .

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/stream"
)

// obsWorkloadFixture is a small marketfeed-like engine: stored reference
// data, a timing stream (quotes) and a timeless stream (trades), and two
// continuous queries (a join against stored data and a window aggregate).
type obsWorkloadFixture struct {
	e       *core.Engine
	quotes  *stream.Source
	trades  *stream.Source
	symbols []string
}

func newObsWorkload(b *testing.B) *obsWorkloadFixture {
	b.Helper()
	eng, err := core.New(benchEngineConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	sectors := []string{"tech", "energy", "health"}
	var symbols []string
	var initial []rdf.Triple
	for i := 0; i < 30; i++ {
		sym := fmt.Sprintf("SYM%02d", i)
		symbols = append(symbols, sym)
		initial = append(initial,
			rdf.T(sym, "sector", sectors[i%len(sectors)]),
			rdf.T(sym, "venue", fmt.Sprintf("venue%d", i%4)),
		)
	}
	eng.LoadTriples(initial)
	quotes, err := eng.RegisterStream(stream.Config{
		Name:             "Quotes",
		BatchInterval:    100 * time.Millisecond,
		TimingPredicates: []string{"bid"},
	})
	if err != nil {
		b.Fatal(err)
	}
	trades, err := eng.RegisterStream(stream.Config{
		Name:          "Trades",
		BatchInterval: 100 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	_, err = eng.RegisterContinuous(`
REGISTER QUERY tech_trades AS
SELECT ?sym ?px
FROM Trades [RANGE 1s STEP 1s]
WHERE { GRAPH Trades { ?sym trade ?px } . ?sym sector tech }`,
		func(*core.Result, core.FireInfo) {})
	if err != nil {
		b.Fatal(err)
	}
	_, err = eng.RegisterContinuous(`
REGISTER QUERY avg_bid AS
SELECT ?sym (AVG(?px) AS ?avg)
FROM Quotes [RANGE 1s STEP 1s]
WHERE { GRAPH Quotes { ?sym bid ?px } }
GROUP BY ?sym`,
		func(*core.Result, core.FireInfo) {})
	if err != nil {
		b.Fatal(err)
	}
	return &obsWorkloadFixture{e: eng, quotes: quotes, trades: trades, symbols: symbols}
}

// step drives one 100ms tick of feed: 20 quotes + 5 trades, each stream's
// timestamps spread evenly and in order over the tick, then AdvanceTo.
func (f *obsWorkloadFixture) step(b *testing.B, rng *rand.Rand, now rdf.Timestamp) {
	b.Helper()
	price := func() rdf.Term { return rdf.NewIntLiteral(int64(90 + rng.Intn(20))) }
	for i := 0; i < 20; i++ {
		sym := f.symbols[rng.Intn(len(f.symbols))]
		if err := f.quotes.Emit(rdf.Tuple{
			Triple: rdf.Triple{S: rdf.NewIRI(sym), P: rdf.NewIRI("bid"), O: price()},
			TS:     now - 99 + rdf.Timestamp(i*5),
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		sym := f.symbols[rng.Intn(len(f.symbols))]
		if err := f.trades.Emit(rdf.Tuple{
			Triple: rdf.Triple{S: rdf.NewIRI(sym), P: rdf.NewIRI("trade"), O: price()},
			TS:     now - 99 + rdf.Timestamp(i*20),
		}); err != nil {
			b.Fatal(err)
		}
	}
	f.e.AdvanceTo(now)
}

func BenchmarkObsOverhead(b *testing.B) {
	b.ReportAllocs()
	f := newObsWorkload(b)
	rng := rand.New(rand.NewSource(7))
	// Warm up past the first window so every timed tick fires both queries.
	now := rdf.Timestamp(0)
	for i := 0; i < 10; i++ {
		now += 100
		f.step(b, rng, now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100
		f.step(b, rng, now)
	}
}
