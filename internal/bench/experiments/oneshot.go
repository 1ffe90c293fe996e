package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench/harness"
	"repro/internal/bench/lsbench"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Table8 reproduces the one-shot query study (§6.9): S1–S6 on
//
//   - Wukong: the static store, no streams at all;
//   - Wukong+S/Off: all five streams injecting, no continuous queries;
//   - Wukong+S/On: streams injecting and continuous queries executing.
func Table8(o Options) (*Report, error) {
	o = o.withDefaults()
	cfg := LSConfig(o)

	// Wukong: plain store. One-shot queries over the loaded data only.
	measureStatic := func() (map[int]time.Duration, error) {
		e, err := core.New(engineConfig(o, o.Nodes))
		if err != nil {
			return nil, err
		}
		defer e.Close()
		w := lsbench.Generate(cfg, e.StringServer())
		e.LoadEncoded(w.Initial)
		return measureOneShots(o, e, w, nil)
	}

	// Wukong+S with streams; withLoad additionally registers continuous
	// queries so both engines run concurrently (§6.9's dedicated cores are
	// the worker pools here).
	measureStreaming := func(withLoad bool) (map[int]time.Duration, error) {
		e, d, w, err := harness.LSBenchEngine(engineConfig(o, o.Nodes), cfg)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		if withLoad {
			for n := 1; n <= 6; n++ {
				if _, err := e.RegisterContinuous(w.QueryL(n, 1), nil); err != nil {
					return nil, err
				}
			}
		}
		if err := d.Run(harness.LSBenchStep, warmTime); err != nil {
			return nil, err
		}
		return measureOneShots(o, e, w, d)
	}

	static, err := measureStatic()
	if err != nil {
		return nil, err
	}
	off, err := measureStreaming(false)
	if err != nil {
		return nil, err
	}
	on, err := measureStreaming(true)
	if err != nil {
		return nil, err
	}

	r := &Report{ID: "table8", Title: "One-shot query latency (ms): S1-S6"}
	r.Table = &harness.Table{Header: []string{"Query", "Wukong", "Wukong+S/Off", "Wukong+S/On"}}
	geo := func(m map[int]time.Duration) time.Duration {
		var all []time.Duration
		for n := 1; n <= 6; n++ {
			all = append(all, m[n])
		}
		return harness.GeoMean(all)
	}
	for n := 1; n <= 6; n++ {
		r.Table.Add(fmt.Sprintf("S%d", n), harness.Ms(static[n]), harness.Ms(off[n]), harness.Ms(on[n]))
	}
	r.Table.Add("Geo.M", harness.Ms(geo(static)), harness.Ms(geo(off)), harness.Ms(geo(on)))
	r.Notes = append(r.Notes,
		"shape target: Wukong+S inherits Wukong's one-shot performance; enabling streams and continuous load costs only a few percent")
	return r, nil
}

// measureOneShots runs S1–S6; when a driver is given, injection continues
// between runs (the dynamic-store configurations).
func measureOneShots(o Options, e *core.Engine, w *lsbench.Workload, d *harness.Driver) (map[int]time.Duration, error) {
	out := make(map[int]time.Duration)
	now := e.Now()
	for n := 1; n <= 6; n++ {
		q, err := sparql.Parse(w.QueryS(n, 1))
		if err != nil {
			return nil, err
		}
		var lats []time.Duration
		for i := 0; i < o.Runs; i++ {
			if d != nil {
				// Keep the store evolving while measuring.
				now += 100
				if err := d.StepTo(rdf.Timestamp(now)); err != nil {
					return nil, err
				}
			}
			res, err := e.QueryParsed(q)
			if err != nil {
				return nil, err
			}
			lats = append(lats, res.Latency)
		}
		out[n] = harness.Median(lats)
	}
	return out, nil
}
