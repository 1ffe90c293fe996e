package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline/relstream"
	"repro/internal/baseline/storm"
	"repro/internal/bench/citybench"
	"repro/internal/bench/harness"
	"repro/internal/rdf"
)

// cityWarm fills the 3s windows (plus one step).
const cityWarm rdf.Timestamp = 6000

// newCityEnv builds the CityBench env on a single node: C1–C11, run to
// cityWarm.
func newCityEnv(o Options) (*env, error) {
	e, d, w, err := harness.CityBenchEngine(engineConfig(o, 1), citybench.Config{RateScale: scaleInt(10, o.Scale, 2)})
	if err != nil {
		return nil, err
	}
	var texts []string
	for n := 1; n <= 11; n++ {
		texts = append(texts, w.QueryC(n, 1))
	}
	return newEnv(o, e, d, w.Initial, texts, harness.CityBenchStep, cityWarm)
}

// Table9 reproduces the CityBench comparison (§6.10) on a single node:
// Wukong+S vs Storm+Wukong (with component breakdown) vs Spark Streaming,
// over C1–C11.
func Table9(o Options) (*Report, error) {
	o = o.withDefaults()
	env, err := newCityEnv(o)
	if err != nil {
		return nil, err
	}
	ws := env.wukongS()
	comp, bds, err := env.compositeLatencies(storm.Storm, 1)
	if err != nil {
		return nil, err
	}
	spark := env.relstreamLatencies(relstream.SparkStreaming)

	r := &Report{ID: "table9", Title: "CityBench query latency (ms) on a single node"}
	r.Table = &harness.Table{Header: []string{"Query", "Wukong+S", "Storm+Wukong", "(Storm)", "(Wukong)", "SparkStreaming"}}
	var wsAll, compAll, sparkAll []time.Duration
	for n := 1; n <= 11; n++ {
		wukongCol := harness.Ms(bds[n].Stored)
		if bds[n].Crossings == 0 {
			wukongCol = "-" // stream-only queries never reach the store
		}
		r.Table.Add(fmt.Sprintf("C%d", n), harness.Ms(ws[n]), harness.Ms(comp[n]),
			harness.Ms(bds[n].Stream), wukongCol, harness.Ms(spark[n]))
		wsAll = append(wsAll, ws[n])
		compAll = append(compAll, comp[n])
		sparkAll = append(sparkAll, spark[n])
	}
	r.Table.Add("Geo.M", harness.Ms(harness.GeoMean(wsAll)), harness.Ms(harness.GeoMean(compAll)),
		"-", "-", harness.Ms(harness.GeoMean(sparkAll)))
	r.Notes = append(r.Notes,
		"shape target: Wukong+S < Storm+Wukong (2.7-18x on store-touching queries) << Spark Streaming")
	return r, nil
}
