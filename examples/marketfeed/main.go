// Marketfeed: the paper's introductory motivation — market data feeds (the
// OPRA example: millions of quote/trade messages per second) demand stateful
// stream queries: alerts join live ticks against stored reference data, and
// trades must be absorbed into the knowledge base for later analysis.
//
// This example streams synthetic quotes (timing data: a quote is meaningless
// outside its window) and trades (timeless facts) over stored instrument
// metadata, and runs:
//
//   - a continuous alert: trades in the last second on instruments of a
//     watched sector, joined with stored metadata;
//
//   - a continuous aggregate: per-instrument average quoted price;
//
//   - one-shot analysis over the absorbed trade history.
//
//     go run ./examples/marketfeed
package main

import (
	"cmp"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/stream"
)

func main() {
	eng, err := core.New(core.Config{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Stored reference data: instruments with sector and listing venue.
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
		TimingPredicates: []string{"bid"}, // quotes expire with their windows
	})
	if err != nil {
		log.Fatal(err)
	}
	trades, err := eng.RegisterStream(stream.Config{
		Name:          "Trades",
		BatchInterval: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Alert: tech-sector trades in the last second.
	alerts := 0
	_, err = eng.RegisterContinuous(`
REGISTER QUERY tech_trades AS
SELECT ?sym ?px
FROM Trades [RANGE 1s STEP 1s]
WHERE { GRAPH Trades { ?sym trade ?px } . ?sym sector tech }`,
		func(r *core.Result, f core.FireInfo) {
			alerts += r.Len()
			if f.At%5000 == 0 {
				fmt.Printf("[alert @%2ds] %d tech trades this window\n", f.At/1000, r.Len())
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	// Aggregate: average quoted bid per instrument (quotes are timing data —
	// they only ever exist in this window).
	_, err = eng.RegisterContinuous(`
REGISTER QUERY avg_bid AS
SELECT ?sym (AVG(?px) AS ?avg) (COUNT(?px) AS ?n)
FROM Quotes [RANGE 1s STEP 1s]
WHERE { GRAPH Quotes { ?sym bid ?px } }
GROUP BY ?sym
ORDER BY DESC(?n)
LIMIT 3`,
		func(r *core.Result, f core.FireInfo) {
			if f.At%5000 != 0 {
				return
			}
			fmt.Printf("[quote @%2ds] most-quoted instruments:\n", f.At/1000)
			for i := 0; i < r.Len(); i++ {
				row := r.Row(i)
				fmt.Printf("          %s avg bid %s (%s quotes)\n", row[0].Value, row[1].Value, row[2].Value)
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	// Drive 15 seconds of feed: ~200 quotes/s, ~50 trades/s. Feed handlers
	// deliver a tick's messages slightly out of order, and a stream takes its
	// tuples in timestamp order (C-SPARQL's time model), so each 100 ms tick
	// of a feed is ordered before it is emitted.
	rng := rand.New(rand.NewSource(7))
	tick := func(now rdf.Timestamp, n int, pred string) []rdf.Tuple {
		out := make([]rdf.Tuple, n)
		for i := range out {
			sym := symbols[rng.Intn(len(symbols))]
			px := rdf.NewIntLiteral(int64(90 + rng.Intn(20)))
			out[i] = rdf.Tuple{
				Triple: rdf.Triple{S: rdf.NewIRI(sym), P: rdf.NewIRI(pred), O: px},
				TS:     now - rdf.Timestamp(rng.Intn(100)),
			}
		}
		slices.SortStableFunc(out, func(a, b rdf.Tuple) int { return cmp.Compare(a.TS, b.TS) })
		return out
	}
	for now := rdf.Timestamp(100); now <= 15_000; now += 100 {
		for _, tu := range tick(now, 20, "bid") {
			if err := quotes.Emit(tu); err != nil {
				log.Fatal(err)
			}
		}
		for _, tu := range tick(now, 5, "trade") {
			if err := trades.Emit(tu); err != nil {
				log.Fatal(err)
			}
		}
		eng.AdvanceTo(now)
	}

	fmt.Printf("\ntotal tech-trade alerts: %d\n", alerts)

	// Trades were absorbed; quotes were not (timing data).
	res, err := eng.Query(`
SELECT ?sym (COUNT(?px) AS ?n) WHERE { ?sym trade ?px . ?sym sector energy }
GROUP BY ?sym ORDER BY DESC(?n) LIMIT 3`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("one-shot: most-traded energy instruments (absorbed history):")
	for i := 0; i < res.Len(); i++ {
		row := res.Row(i)
		fmt.Printf("  %s: %s trades\n", row[0].Value, row[1].Value)
	}
	leaked, err := eng.Query(`SELECT ?sym ?px WHERE { ?sym bid ?px }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quotes in the persistent store: %d (timing data expires with its windows)\n", leaked.Len())
}
