package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline/composite"
	"repro/internal/baseline/csparql"
	"repro/internal/baseline/rel"
	"repro/internal/baseline/relstream"
	"repro/internal/baseline/storm"
	"repro/internal/baseline/wukongext"
	"repro/internal/bench/harness"
	"repro/internal/bench/lsbench"
	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// lsEnv is the shared baseline environment: one workload generation feeding
// every baseline system (each keeps its own store, as the real systems do).
type lsEnv struct {
	o      Options
	ss     *strserver.Server
	w      *lsbench.Workload
	feeder *harness.Feeder
}

func newLSEnv(o Options, cfg lsbench.Config) *lsEnv {
	ss := strserver.New()
	w := lsbench.Generate(cfg, ss)
	f := harness.NewFeeder(lsbench.Streams(), w.StreamTuples)
	f.AdvanceTo(warmTime)
	return &lsEnv{o: o, ss: ss, w: w, feeder: f}
}

// windowsFor extracts the window buffers a query needs at time `at`.
func (env *lsEnv) windowsFor(q *sparql.Query, at rdf.Timestamp) rel.Windows {
	out := rel.Windows{}
	for _, win := range q.Windows {
		from := at - rdf.Timestamp(win.Range.Milliseconds())
		if from < 0 {
			from = 0
		}
		out[win.Stream] = env.feeder.Window(win.Stream, from, at)
	}
	return out
}

// newFabric builds a baseline fabric with the experiment's latency mode.
func (env *lsEnv) newFabric(nodes int) *fabric.Fabric {
	return fabric.New(fabric.Config{Nodes: nodes, Mode: env.o.LatencyMode, RDMA: true,
		Latency: fabric.DefaultLatency()})
}

// compositeLatencies measures Storm/Heron+Wukong per query: total median
// plus the component breakdown of the median run.
func (env *lsEnv) compositeLatencies(variant storm.Variant, nodes int) (map[int]time.Duration, map[int]*composite.Breakdown, error) {
	sys := composite.NewSystem(env.newFabric(nodes), env.ss, composite.Config{
		Variant: variant, PlanMode: composite.Interleaved,
	})
	defer sys.Close()
	sys.LoadBase(env.w.Initial)
	lats := make(map[int]time.Duration)
	bds := make(map[int]*composite.Breakdown)
	for n := 1; n <= 6; n++ {
		q := parsedL(env.w, n)
		type run struct {
			lat time.Duration
			bd  *composite.Breakdown
		}
		var runs []run
		for i := 0; i < env.o.Runs; i++ {
			w := env.windowsFor(q, warmTime)
			start := time.Now()
			_, bd, err := sys.ExecuteContinuous(q, w, warmTime)
			if err != nil {
				return nil, nil, fmt.Errorf("composite L%d: %w", n, err)
			}
			runs = append(runs, run{lat: time.Since(start), bd: bd})
		}
		// Median by total latency.
		med := runs[0]
		var all []time.Duration
		for _, r := range runs {
			all = append(all, r.lat)
		}
		target := harness.Median(all)
		for _, r := range runs {
			if r.lat == target {
				med = r
			}
		}
		lats[n] = target
		bds[n] = med.bd
	}
	return lats, bds, nil
}

// csparqlLatencies measures the CSPARQL-engine baseline (single node).
func (env *lsEnv) csparqlLatencies() (map[int]time.Duration, error) {
	cfg := csparql.Config{}
	if env.o.LatencyMode != fabric.Off {
		cfg = csparql.DefaultConfig()
	}
	sys := csparql.NewSystemWithConfig(env.ss, cfg)
	sys.LoadBase(env.w.Initial)
	lats := make(map[int]time.Duration)
	for n := 1; n <= 6; n++ {
		q := parsedL(env.w, n)
		lats[n] = harness.MedianOfRuns(env.o.Runs, func() time.Duration {
			w := env.windowsFor(q, warmTime)
			_, lat, err := sys.ExecuteContinuous(q, w, warmTime)
			if err != nil {
				panic(err)
			}
			return lat
		})
	}
	return lats, nil
}

// relstreamLatencies measures the Spark-like baselines. Unsupported queries
// (stream-stream joins under Structured Streaming) report 0.
func (env *lsEnv) relstreamLatencies(mode relstream.Mode) (map[int]time.Duration, error) {
	sys := relstream.NewSystem(env.newFabric(1), env.ss, relstream.Config{Mode: mode})
	sys.LoadBase(env.w.Initial)
	for _, s := range lsbench.Streams() {
		sys.Absorb(s, env.feeder.All(s))
	}
	lats := make(map[int]time.Duration)
	for n := 1; n <= 6; n++ {
		q := parsedL(env.w, n)
		unsupported := false
		lats[n] = harness.MedianOfRuns(env.o.Runs, func() time.Duration {
			w := env.windowsFor(q, warmTime)
			start := time.Now()
			_, _, err := sys.ExecuteContinuous(q, w, warmTime)
			if err == relstream.ErrUnsupported {
				unsupported = true
				return 0
			}
			if err != nil {
				panic(err)
			}
			return time.Since(start)
		})
		if unsupported {
			lats[n] = 0
		}
	}
	return lats, nil
}

// wukongExtLatencies measures the Wukong/Ext baseline.
func (env *lsEnv) wukongExtLatencies(nodes int) (map[int]time.Duration, error) {
	sys := wukongext.NewSystem(env.newFabric(nodes), env.ss, 4)
	defer sys.Close()
	sys.LoadBase(env.w.Initial)
	for _, s := range lsbench.Streams() {
		sys.Inject(env.feeder.All(s))
	}
	lats := make(map[int]time.Duration)
	for n := 1; n <= 6; n++ {
		q := parsedL(env.w, n)
		lats[n] = harness.MedianOfRuns(env.o.Runs, func() time.Duration {
			_, lat, err := sys.ExecuteContinuous(q, warmTime)
			if err != nil {
				panic(err)
			}
			return lat
		})
	}
	return lats, nil
}

// Fig4 reproduces the breakdown of the composite design's execution under
// its two query plans (paper Fig. 4): L5 (the QC shape) on Storm+Wukong.
func Fig4(o Options) (*Report, error) {
	o = o.withDefaults()
	cfg := lsConfig(o)
	r := &Report{ID: "fig4", Title: "Execution breakdown of L5 on Storm+Wukong (two query plans)"}
	r.Table = &harness.Table{Header: []string{"Plan", "Total(ms)", "Storm(ms)", "Wukong(ms)", "Cross(ms)", "CC%", "Crossings"}}
	for _, mode := range []composite.PlanMode{composite.Interleaved, composite.StreamFirst} {
		env := newLSEnv(o, cfg)
		sys := composite.NewSystem(env.newFabric(1), env.ss, composite.Config{PlanMode: mode})
		sys.LoadBase(env.w.Initial)
		q := parsedL(env.w, 5)
		var bds []*composite.Breakdown
		for i := 0; i < o.Runs; i++ {
			w := env.windowsFor(q, warmTime)
			_, bd, err := sys.ExecuteContinuous(q, w, warmTime)
			if err != nil {
				sys.Close()
				return nil, err
			}
			bds = append(bds, bd)
		}
		sys.Close()
		var totals []time.Duration
		for _, bd := range bds {
			totals = append(totals, bd.Total())
		}
		target := harness.Median(totals)
		med := bds[0]
		for _, bd := range bds {
			if bd.Total() == target {
				med = bd
			}
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
	cfg := lsConfig(o)

	ws, err := wukongSLatencies(o, engineConfig(o, 1), cfg)
	if err != nil {
		return nil, err
	}
	env := newLSEnv(o, cfg)
	comp, bds, err := env.compositeLatencies(storm.Storm, 1)
	if err != nil {
		return nil, err
	}
	csq, err := env.csparqlLatencies()
	if err != nil {
		return nil, err
	}

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
	cfg := lsConfig(o)

	ws, err := wukongSLatencies(o, engineConfig(o, o.Nodes), cfg)
	if err != nil {
		return nil, err
	}
	env := newLSEnv(o, cfg)
	comp, bds, err := env.compositeLatencies(storm.Storm, o.Nodes)
	if err != nil {
		return nil, err
	}
	spark, err := env.relstreamLatencies(relstream.SparkStreaming)
	if err != nil {
		return nil, err
	}

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
	cfg := lsConfig(o)

	env := newLSEnv(o, cfg)
	heron, bds, err := env.compositeLatencies(storm.Heron, o.Nodes)
	if err != nil {
		return nil, err
	}
	structured, err := env.relstreamLatencies(relstream.StructuredStreaming)
	if err != nil {
		return nil, err
	}
	wext, err := env.wukongExtLatencies(o.Nodes)
	if err != nil {
		return nil, err
	}

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
