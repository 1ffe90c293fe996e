package experiments

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/baseline/composite"
	"repro/internal/baseline/csparql"
	"repro/internal/baseline/rel"
	"repro/internal/baseline/relstream"
	"repro/internal/baseline/storm"
	"repro/internal/baseline/wukongext"
	"repro/internal/bench/harness"
	"repro/internal/bench/lsbench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// env is one experiment's workload, generated once: a Wukong+S engine
// loaded with the initial graph, the experiment's continuous queries
// registered on it, and the Driver that emitted its streams up to the
// time every system is measured at, d.Now().
// Every baseline is built over the engine's string server, the same initial
// graph and the Driver's record, so all systems answer the same windows
// from the same tuples. Each baseline keeps its own store, as the real
// systems do.
type env struct {
	o       Options
	e       *core.Engine
	d       *harness.Driver
	initial []strserver.EncodedTriple
	qs      []*sparql.Query         // qs[n-1] is query n
	cqs     []*core.ContinuousQuery // the same queries on Wukong+S
}

// newEnv registers texts on e and drives d to `at` in steps of step. It
// closes e if it fails.
func newEnv(o Options, e *core.Engine, d *harness.Driver, initial []strserver.EncodedTriple,
	texts []string, step time.Duration, at rdf.Timestamp) (*env, error) {
	env := &env{o: o, e: e, d: d, initial: initial}
	for _, text := range texts {
		cq, err := e.RegisterContinuous(text, nil)
		if err != nil {
			e.Close()
			return nil, err
		}
		env.cqs = append(env.cqs, cq)
		env.qs = append(env.qs, sparql.MustParse(text))
	}
	if err := d.Run(step, at); err != nil {
		e.Close()
		return nil, err
	}
	return env, nil
}

// newLSEnv builds an LSBench experiment's env: L1–L6 from lsStart, run to
// warmTime.
func newLSEnv(o Options, cfg core.Config, lsCfg lsbench.Config) (*env, error) {
	e, d, w, err := harness.LSBenchEngine(cfg, lsCfg)
	if err != nil {
		return nil, err
	}
	var texts []string
	for n := 1; n <= 6; n++ {
		texts = append(texts, w.QueryL(n, lsStart))
	}
	return newEnv(o, e, d, w.Initial, texts, harness.LSBenchStep, warmTime)
}

// wukongS measures each query's median execution latency on Wukong+S, then
// closes the engine; its string server stays readable for the baselines.
func (env *env) wukongS() map[int]time.Duration {
	defer env.e.Close()
	out := make(map[int]time.Duration)
	runtime.GC() // measure from a clean heap
	for i, cq := range env.cqs {
		out[i+1] = harness.MedianOfRuns(env.o.Runs, func() time.Duration {
			_, lat, err := cq.ExecuteNow()
			if err != nil {
				panic(err)
			}
			return lat
		})
	}
	return out
}

// wukongSLatencies measures L1–L6 on a Wukong+S instance of its own.
func wukongSLatencies(o Options, cfg core.Config, lsCfg lsbench.Config) (map[int]time.Duration, error) {
	env, err := newLSEnv(o, cfg, lsCfg)
	if err != nil {
		return nil, err
	}
	return env.wukongS(), nil
}

// newFabric builds a baseline fabric with the experiment's latency mode.
func (env *env) newFabric(nodes int) *fabric.Fabric {
	return fabric.New(fabric.Config{Nodes: nodes, Mode: env.o.LatencyMode, RDMA: true,
		Latency: fabric.DefaultLatency()})
}

// newComposite builds a loaded Storm/Heron+Wukong system.
func (env *env) newComposite(cfg composite.Config, nodes int) *composite.System {
	sys := composite.NewSystem(env.newFabric(nodes), env.e.StringServer(), cfg)
	sys.LoadBase(env.initial)
	return sys
}

// newCSPARQL builds a loaded CSPARQL-engine (single node).
func (env *env) newCSPARQL() *csparql.System {
	cfg := csparql.Config{}
	if env.o.LatencyMode != fabric.Off {
		cfg = csparql.DefaultConfig()
	}
	sys := csparql.NewSystemWithConfig(env.e.StringServer(), cfg)
	sys.LoadBase(env.initial)
	return sys
}

// newRelstream builds a loaded Spark-like system holding every stream's
// history.
func (env *env) newRelstream(mode relstream.Mode) *relstream.System {
	sys := relstream.NewSystem(env.newFabric(1), env.e.StringServer(), relstream.Config{Mode: mode})
	sys.LoadBase(env.initial)
	for _, s := range env.d.Streams() {
		sys.Absorb(s, env.d.All(s))
	}
	return sys
}

// newWukongExt builds a loaded Wukong/Ext system holding every stream's
// history.
func (env *env) newWukongExt(nodes int) *wukongext.System {
	sys := wukongext.NewSystem(env.newFabric(nodes), env.e.StringServer(), 4)
	sys.LoadBase(env.initial)
	for _, s := range env.d.Streams() {
		sys.Inject(s, env.d.All(s))
	}
	return sys
}

// windows returns q's window contents at the time every system is
// measured at.
func (env *env) windows(q *sparql.Query) rel.Windows { return env.d.Windows(q, env.d.Now()) }

// compositeLatencies measures Storm/Heron+Wukong per query: the breakdown
// of the median run, and its total.
func (env *env) compositeLatencies(variant storm.Variant, nodes int) (map[int]time.Duration, map[int]*composite.Breakdown, error) {
	sys := env.newComposite(composite.Config{Variant: variant, PlanMode: composite.Interleaved}, nodes)
	defer sys.Close()
	lats := make(map[int]time.Duration)
	bds := make(map[int]*composite.Breakdown)
	for i, q := range env.qs {
		bd, err := env.compositeMedian(sys, q)
		if err != nil {
			return nil, nil, fmt.Errorf("composite query %d: %w", i+1, err)
		}
		lats[i+1], bds[i+1] = bd.Total(), bd
	}
	return lats, bds, nil
}

// compositeMedian runs q Runs times on sys and returns the breakdown of the
// median run by total.
func (env *env) compositeMedian(sys *composite.System, q *sparql.Query) (*composite.Breakdown, error) {
	var bds []*composite.Breakdown
	for r := 0; r < env.o.Runs; r++ {
		_, bd, err := sys.ExecuteContinuous(q, env.windows(q), env.d.Now())
		if err != nil {
			return nil, err
		}
		bds = append(bds, bd)
	}
	slices.SortFunc(bds, func(a, b *composite.Breakdown) int { return cmp.Compare(a.Total(), b.Total()) })
	return bds[len(bds)/2], nil
}

// csparqlLatencies measures the CSPARQL-engine baseline (single node).
func (env *env) csparqlLatencies() map[int]time.Duration {
	sys := env.newCSPARQL()
	lats := make(map[int]time.Duration)
	for i, q := range env.qs {
		lats[i+1] = harness.MedianOfRuns(env.o.Runs, func() time.Duration {
			_, lat, err := sys.ExecuteContinuous(q, env.windows(q), env.d.Now())
			if err != nil {
				panic(err)
			}
			return lat
		})
	}
	return lats
}

// relstreamLatencies measures the Spark-like baselines. Unsupported queries
// (stream-stream joins under Structured Streaming) report 0.
func (env *env) relstreamLatencies(mode relstream.Mode) map[int]time.Duration {
	sys := env.newRelstream(mode)
	lats := make(map[int]time.Duration)
	for i, q := range env.qs {
		lats[i+1] = harness.MedianOfRuns(env.o.Runs, func() time.Duration {
			w := env.windows(q)
			start := time.Now()
			_, _, err := sys.ExecuteContinuous(q, w, env.d.Now())
			if err == relstream.ErrUnsupported {
				return 0
			}
			if err != nil {
				panic(err)
			}
			return time.Since(start)
		})
	}
	return lats
}

// wukongExtLatencies measures the Wukong/Ext baseline.
func (env *env) wukongExtLatencies(nodes int) map[int]time.Duration {
	sys := env.newWukongExt(nodes)
	defer sys.Close()
	lats := make(map[int]time.Duration)
	for i, q := range env.qs {
		lats[i+1] = harness.MedianOfRuns(env.o.Runs, func() time.Duration {
			_, lat, err := sys.ExecuteContinuous(q, env.d.Now())
			if err != nil {
				panic(err)
			}
			return lat
		})
	}
	return lats
}

// Fig4 reproduces the breakdown of the composite design's execution under
// its two query plans (paper Fig. 4): L5 (the QC shape) on Storm+Wukong.
func Fig4(o Options) (*Report, error) {
	o = o.withDefaults()
	env, err := newLSEnv(o, engineConfig(o, 1), lsConfig(o))
	if err != nil {
		return nil, err
	}
	env.e.Close() // only the composite design is measured
	r := &Report{ID: "fig4", Title: "Execution breakdown of L5 on Storm+Wukong (two query plans)"}
	r.Table = &harness.Table{Header: []string{"Plan", "Total(ms)", "Storm(ms)", "Wukong(ms)", "Cross(ms)", "CC%", "Crossings"}}
	q := env.qs[4]
	for _, mode := range []composite.PlanMode{composite.Interleaved, composite.StreamFirst} {
		sys := env.newComposite(composite.Config{PlanMode: mode}, 1)
		med, err := env.compositeMedian(sys, q)
		sys.Close()
		if err != nil {
			return nil, err
		}
		cc := float64(med.Cross) / float64(med.Total()) * 100
		r.Table.Add(mode.String(), harness.Ms(med.Total()), harness.Ms(med.Stream),
			harness.Ms(med.Stored), harness.Ms(med.Cross),
			fmt.Sprintf("%.1f", cc), fmt.Sprintf("%d", med.Crossings))
	}
	r.Notes = append(r.Notes,
		"shape target: cross-system cost a large share of total; stream-first plan slower than interleaved")
	return r, nil
}

// Table2 reproduces the single-node latency comparison: Wukong+S vs
// Storm+Wukong vs CSPARQL-engine on LSBench.
func Table2(o Options) (*Report, error) {
	o = o.withDefaults()
	env, err := newLSEnv(o, engineConfig(o, 1), lsConfig(o))
	if err != nil {
		return nil, err
	}
	ws := env.wukongS()
	comp, bds, err := env.compositeLatencies(storm.Storm, 1)
	if err != nil {
		return nil, err
	}
	csq := env.csparqlLatencies()

	r := &Report{ID: "table2", Title: "Query latency (ms) on a single node (LSBench)"}
	r.Table = &harness.Table{Header: []string{"Query", "Wukong+S", "Storm+Wukong", "(Storm)", "(Wukong)", "CSPARQL-engine"}}
	for n := 1; n <= 6; n++ {
		r.Table.Add(fmt.Sprintf("L%d", n), harness.Ms(ws[n]), harness.Ms(comp[n]),
			harness.Ms(bds[n].Stream), harness.Ms(bds[n].Stored), harness.Ms(csq[n]))
	}
	r.Table.Add("Geo.M", harness.Ms(geoMeanOf(ws)), harness.Ms(geoMeanOf(comp)), "-", "-", harness.Ms(geoMeanOf(csq)))
	r.Notes = append(r.Notes,
		"shape target: Wukong+S < Storm+Wukong (up to ~30x) << CSPARQL-engine (orders of magnitude)")
	return r, nil
}

// Table3 reproduces the distributed latency comparison: Wukong+S vs
// Storm+Wukong vs Spark Streaming on the cluster.
func Table3(o Options) (*Report, error) {
	o = o.withDefaults()
	env, err := newLSEnv(o, engineConfig(o, o.Nodes), lsConfig(o))
	if err != nil {
		return nil, err
	}
	ws := env.wukongS()
	comp, bds, err := env.compositeLatencies(storm.Storm, o.Nodes)
	if err != nil {
		return nil, err
	}
	spark := env.relstreamLatencies(relstream.SparkStreaming)

	r := &Report{ID: "table3", Title: fmt.Sprintf("Query latency (ms) on %d nodes (LSBench)", o.Nodes)}
	r.Table = &harness.Table{Header: []string{"Query", "Wukong+S", "Storm+Wukong", "(Storm)", "(Wukong)", "SparkStreaming"}}
	for n := 1; n <= 6; n++ {
		r.Table.Add(fmt.Sprintf("L%d", n), harness.Ms(ws[n]), harness.Ms(comp[n]),
			harness.Ms(bds[n].Stream), harness.Ms(bds[n].Stored), harness.Ms(spark[n]))
	}
	r.Table.Add("Geo.M", harness.Ms(geoMeanOf(ws)), harness.Ms(geoMeanOf(comp)), "-", "-", harness.Ms(geoMeanOf(spark)))
	r.Notes = append(r.Notes,
		"shape target: Wukong+S < Storm+Wukong (2-30x) << Spark Streaming")
	return r, nil
}

// Table4 reproduces the further comparison: Heron+Wukong, Structured
// Streaming (unsupported queries marked x), and Wukong/Ext.
func Table4(o Options) (*Report, error) {
	o = o.withDefaults()
	env, err := newLSEnv(o, engineConfig(o, o.Nodes), lsConfig(o))
	if err != nil {
		return nil, err
	}
	env.e.Close() // Table 4 measures only the baselines
	heron, bds, err := env.compositeLatencies(storm.Heron, o.Nodes)
	if err != nil {
		return nil, err
	}
	structured := env.relstreamLatencies(relstream.StructuredStreaming)
	wext := env.wukongExtLatencies(o.Nodes)

	r := &Report{ID: "table4", Title: fmt.Sprintf("Further comparison (ms) on %d nodes (LSBench)", o.Nodes)}
	r.Table = &harness.Table{Header: []string{"Query", "Heron+Wukong", "(Heron)", "(Wukong)", "StructuredStreaming", "Wukong/Ext"}}
	for n := 1; n <= 6; n++ {
		ss := harness.Ms(structured[n])
		if structured[n] == 0 {
			ss = "x"
		}
		r.Table.Add(fmt.Sprintf("L%d", n), harness.Ms(heron[n]),
			harness.Ms(bds[n].Stream), harness.Ms(bds[n].Stored), ss, harness.Ms(wext[n]))
	}
	r.Table.Add("Geo.M", harness.Ms(geoMeanOf(heron)), "-", "-", "-", harness.Ms(geoMeanOf(wext)))
	r.Notes = append(r.Notes,
		"shape target: Structured Streaming cannot run L3-L6 (stream-stream joins); Wukong+S beats Wukong/Ext, more on large queries")
	return r, nil
}

// Table5 reproduces the RDMA impact study: Wukong+S with one-sided reads vs
// the purely fork-join non-RDMA configuration.
func Table5(o Options) (*Report, error) {
	o = o.withDefaults()
	cfg := lsConfig(o)

	rdma, err := wukongSLatencies(o, engineConfig(o, o.Nodes), cfg)
	if err != nil {
		return nil, err
	}
	nonCfg := engineConfig(o, o.Nodes)
	// Set the latency model explicitly: a zero model would make the engine
	// treat the fabric config as unset and default RDMA back on.
	nonCfg.Fabric.Latency = fabric.DefaultLatency()
	nonCfg.Fabric.RDMA = false
	non, err := wukongSLatencies(o, nonCfg, cfg)
	if err != nil {
		return nil, err
	}

	r := &Report{ID: "table5", Title: "Performance impact of RDMA on Wukong+S (ms)"}
	r.Table = &harness.Table{Header: []string{"Query", "Wukong+S", "Non-RDMA", "Slowdown"}}
	for n := 1; n <= 6; n++ {
		slow := float64(non[n]) / float64(rdma[n])
		r.Table.Add(fmt.Sprintf("L%d", n), harness.Ms(rdma[n]), harness.Ms(non[n]),
			fmt.Sprintf("%.1fX", slow))
	}
	r.Table.Add("Geo.M", harness.Ms(geoMeanOf(rdma)), harness.Ms(geoMeanOf(non)),
		fmt.Sprintf("%.1fX", float64(geoMeanOf(non))/float64(geoMeanOf(rdma))))
	r.Notes = append(r.Notes,
		"shape target: L1-L3 insensitive (~1x); L4-L6 slow down without RDMA")
	return r, nil
}

// Fig12 reproduces the node-scalability study: L1–L6 latency on 2–8 nodes.
func Fig12(o Options) (*Report, error) {
	o = o.withDefaults()
	// Group II queries need enough per-window work to parallelize; run the
	// sweep at 4x the default stream rate (the paper's cluster runs 3.75 B
	// stored triples and full LSBench rates).
	cfg := rateScaled(lsConfig(o), 4)
	nodeCounts := []int{2, 4, 6, 8}
	results := make(map[int]map[int]time.Duration)
	for _, nodes := range nodeCounts {
		runtime.GC() // isolate configurations from each other's garbage
		lats, err := wukongSLatencies(o, engineConfig(o, nodes), cfg)
		if err != nil {
			return nil, err
		}
		results[nodes] = lats
	}
	r := &Report{ID: "fig12", Title: "Latency (ms) vs cluster size (LSBench)"}
	header := []string{"Query"}
	for _, nc := range nodeCounts {
		header = append(header, fmt.Sprintf("%d nodes", nc))
	}
	r.Table = &harness.Table{Header: header}
	for n := 1; n <= 6; n++ {
		row := []string{fmt.Sprintf("L%d", n)}
		for _, nc := range nodeCounts {
			row = append(row, harness.Ms(results[nc][n]))
		}
		r.Table.Add(row...)
	}
	r.Notes = append(r.Notes,
		"shape target: group I (L1-L3) flat; group II (L4-L6) speeds up ~3x from 2 to 8 nodes")
	return r, nil
}

// Fig13 reproduces the stream-rate scalability study: L1–L6 latency as the
// aggregate stream rate grows from 1/4x to 4x.
func Fig13(o Options) (*Report, error) {
	o = o.withDefaults()
	mults := []float64{0.25, 0.5, 1, 2, 4}
	results := make(map[float64]map[int]time.Duration)
	for _, m := range mults {
		runtime.GC()
		lats, err := wukongSLatencies(o, engineConfig(o, o.Nodes), rateScaled(lsConfig(o), m))
		if err != nil {
			return nil, err
		}
		results[m] = lats
	}
	r := &Report{ID: "fig13", Title: "Latency (ms) vs stream rate (LSBench)"}
	header := []string{"Query"}
	for _, m := range mults {
		header = append(header, fmt.Sprintf("%gx", m))
	}
	r.Table = &harness.Table{Header: header}
	for n := 1; n <= 6; n++ {
		row := []string{fmt.Sprintf("L%d", n)}
		for _, m := range mults {
			row = append(row, harness.Ms(results[m][n]))
		}
		r.Table.Add(row...)
	}
	r.Notes = append(r.Notes,
		"shape target: group I flat regardless of rate; group II grows with rate but stays low")
	return r, nil
}
