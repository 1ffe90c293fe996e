package repro

// One benchmark per table and figure of the paper's evaluation (§6).
// Each BenchmarkTableN/FigN measures the same quantity its experiment
// reports; `go run ./cmd/wsbench -exp <id>` prints the full table.
//
// Benchmarks run with injected network latency off by default so they
// measure engine compute; set WS_BENCH_LATENCY=spin to reproduce the
// wsbench numbers (microsecond-accurate simulated RDMA/TCP delays).

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline/composite"
	"repro/internal/baseline/csparql"
	"repro/internal/baseline/relstream"
	"repro/internal/baseline/storm"
	"repro/internal/baseline/wukongext"
	"repro/internal/bench/citybench"
	"repro/internal/bench/harness"
	"repro/internal/bench/lsbench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/strserver"
)

// must unwraps an encoding the test's few predicates always fit.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func latencyMode() fabric.LatencyMode {
	if os.Getenv("WS_BENCH_LATENCY") == "spin" {
		return fabric.Spin
	}
	return fabric.Off
}

func benchLSConfig() lsbench.Config {
	return lsbench.Config{
		Users: 600, FollowsPerUser: 12, InitialPostsPerUser: 8, Hashtags: 48,
		RatePO: 500, RatePOL: 4300, RatePH: 500, RatePHL: 375, RateGPS: 1000,
	}
}

// lsStart is L1–L3's start vertex, the experiments' own: their windows at
// 2000 ms are not empty at this scale.
const lsStart = 13

func benchEngineConfig(nodes int) core.Config {
	return core.Config{
		Nodes:          nodes,
		WorkersPerNode: 4,
		Fabric:         fabric.Config{Nodes: nodes, Mode: latencyMode(), RDMA: true},
	}
}

// wukongSFixture builds a warmed engine with L1–L6 registered.
type wukongSFixture struct {
	e   *core.Engine
	w   *lsbench.Workload
	d   *harness.Driver
	cqs map[int]*core.ContinuousQuery
}

func newWukongSFixture(b *testing.B, cfg core.Config, lsCfg lsbench.Config) *wukongSFixture {
	b.Helper()
	e, d, w, err := harness.LSBenchEngine(cfg, lsCfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	f := &wukongSFixture{e: e, w: w, d: d, cqs: map[int]*core.ContinuousQuery{}}
	for n := 1; n <= 6; n++ {
		cq, err := e.RegisterContinuous(w.QueryL(n, lsStart), nil)
		if err != nil {
			b.Fatal(err)
		}
		f.cqs[n] = cq
	}
	if err := d.Run(harness.LSBenchStep, 2000); err != nil {
		b.Fatal(err)
	}
	return f
}

func (f *wukongSFixture) benchQuery(b *testing.B, n int) {
	b.ReportAllocs()
	b.Helper()
	cq := f.cqs[n]
	// Warm once: the first execution after an engine tick replans against
	// fresh stream statistics (steady state replans once per mini-batch).
	if _, _, err := cq.ExecuteNow(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cq.ExecuteNow(); err != nil {
			b.Fatal(err)
		}
	}
}

// lsBaselineEnv is the baseline-side fixture: the workload a Wukong+S
// engine was driven through to 2000 ms, whose string server, initial graph
// and recorded streams every baseline shares.
type lsBaselineEnv struct {
	ss *strserver.Server
	w  *lsbench.Workload
	d  *harness.Driver
}

func newLSBaselineEnv(b *testing.B) *lsBaselineEnv {
	b.Helper()
	e, d, w, err := harness.LSBenchEngine(benchEngineConfig(1), benchLSConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close() // its string server stays readable
	if err := d.Run(harness.LSBenchStep, 2000); err != nil {
		b.Fatal(err)
	}
	return &lsBaselineEnv{ss: e.StringServer(), w: w, d: d}
}

func (env *lsBaselineEnv) fab(nodes int) *fabric.Fabric {
	return fabric.New(fabric.Config{Nodes: nodes, Mode: latencyMode(), RDMA: true})
}

// ---- Fig 4 ----------------------------------------------------------------

func BenchmarkFig4_CompositeBreakdown(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []composite.PlanMode{composite.Interleaved, composite.StreamFirst} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			env := newLSBaselineEnv(b)
			sys := composite.NewSystem(env.fab(1), env.ss, composite.Config{PlanMode: mode})
			b.Cleanup(sys.Close)
			sys.LoadBase(env.w.Initial)
			q := sparql.MustParse(env.w.QueryL(5, lsStart))
			var cross time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, bd, err := sys.ExecuteContinuous(q, env.d.Windows(q, 2000), 2000)
				if err != nil {
					b.Fatal(err)
				}
				cross += bd.Cross
			}
			b.ReportMetric(float64(cross.Nanoseconds())/float64(b.N), "cross-ns/op")
		})
	}
}

// ---- Tables 2 and 3: Wukong+S --------------------------------------------

func benchmarkWukongSQueries(b *testing.B, nodes int) {
	b.ReportAllocs()
	f := newWukongSFixture(b, benchEngineConfig(nodes), benchLSConfig())
	for n := 1; n <= 6; n++ {
		n := n
		b.Run(fmt.Sprintf("L%d", n), func(b *testing.B) { f.benchQuery(b, n) })
	}
}

func BenchmarkTable2_WukongS(b *testing.B) { benchmarkWukongSQueries(b, 1) }
func BenchmarkTable3_WukongS(b *testing.B) { benchmarkWukongSQueries(b, 8) }

func BenchmarkTable2_StormWukong(b *testing.B) { benchmarkComposite(b, storm.Storm, 1) }
func BenchmarkTable3_StormWukong(b *testing.B) { benchmarkComposite(b, storm.Storm, 8) }
func BenchmarkTable4_HeronWukong(b *testing.B) { benchmarkComposite(b, storm.Heron, 8) }

func benchmarkComposite(b *testing.B, v storm.Variant, nodes int) {
	b.ReportAllocs()
	env := newLSBaselineEnv(b)
	sys := composite.NewSystem(env.fab(nodes), env.ss, composite.Config{Variant: v})
	b.Cleanup(sys.Close)
	sys.LoadBase(env.w.Initial)
	for n := 1; n <= 6; n++ {
		q := sparql.MustParse(env.w.QueryL(n, lsStart))
		b.Run(fmt.Sprintf("L%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.ExecuteContinuous(q, env.d.Windows(q, 2000), 2000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2_CSPARQL(b *testing.B) {
	b.ReportAllocs()
	env := newLSBaselineEnv(b)
	cfg := csparql.Config{}
	if latencyMode() != fabric.Off {
		cfg = csparql.DefaultConfig()
	}
	sys := csparql.NewSystemWithConfig(env.ss, cfg)
	sys.LoadBase(env.w.Initial)
	for n := 1; n <= 6; n++ {
		q := sparql.MustParse(env.w.QueryL(n, lsStart))
		b.Run(fmt.Sprintf("L%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.ExecuteContinuous(q, env.d.Windows(q, 2000), 2000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable3_SparkStreaming(b *testing.B) { benchmarkRelstream(b, relstream.SparkStreaming) }
func BenchmarkTable4_StructuredStreaming(b *testing.B) {
	b.ReportAllocs()
	benchmarkRelstream(b, relstream.StructuredStreaming)
}

func benchmarkRelstream(b *testing.B, mode relstream.Mode) {
	b.ReportAllocs()
	env := newLSBaselineEnv(b)
	sys := relstream.NewSystem(env.fab(1), env.ss, relstream.Config{Mode: mode})
	sys.LoadBase(env.w.Initial)
	for _, s := range lsbench.Streams() {
		sys.Absorb(s, env.d.All(s))
	}
	for n := 1; n <= 6; n++ {
		q := sparql.MustParse(env.w.QueryL(n, lsStart))
		b.Run(fmt.Sprintf("L%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, err := sys.ExecuteContinuous(q, env.d.Windows(q, 2000), 2000)
				if err == relstream.ErrUnsupported {
					b.Skip("stream-stream joins unsupported by Structured Streaming (Table 4 'x')")
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable4_WukongExt(b *testing.B) {
	b.ReportAllocs()
	env := newLSBaselineEnv(b)
	sys := wukongext.NewSystem(env.fab(8), env.ss, 4)
	b.Cleanup(sys.Close)
	sys.LoadBase(env.w.Initial)
	for _, s := range lsbench.Streams() {
		sys.Inject(s, env.d.All(s))
	}
	for n := 1; n <= 6; n++ {
		q := sparql.MustParse(env.w.QueryL(n, lsStart))
		b.Run(fmt.Sprintf("L%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.ExecuteContinuous(q, 2000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 5: RDMA on/off --------------------------------------------------

func BenchmarkTable5_NonRDMA(b *testing.B) {
	b.ReportAllocs()
	cfg := benchEngineConfig(8)
	cfg.Fabric.Latency = fabric.DefaultLatency()
	cfg.Fabric.RDMA = false
	f := newWukongSFixture(b, cfg, benchLSConfig())
	for n := 1; n <= 6; n++ {
		n := n
		b.Run(fmt.Sprintf("L%d", n), func(b *testing.B) { f.benchQuery(b, n) })
	}
}

// ---- Figs 12, 13: scalability ----------------------------------------------

func BenchmarkFig12_Nodes(b *testing.B) {
	b.ReportAllocs()
	for _, nodes := range []int{2, 4, 6, 8} {
		f := newWukongSFixture(b, benchEngineConfig(nodes), benchLSConfig())
		for _, n := range []int{1, 4} { // one query per selectivity group
			n := n
			b.Run(fmt.Sprintf("nodes=%d/L%d", nodes, n), func(b *testing.B) { f.benchQuery(b, n) })
		}
	}
}

func BenchmarkFig13_StreamRate(b *testing.B) {
	b.ReportAllocs()
	for _, mult := range []int{1, 2, 4} {
		cfg := benchLSConfig()
		cfg.RatePO *= mult
		cfg.RatePOL *= mult
		cfg.RatePH *= mult
		cfg.RatePHL *= mult
		cfg.RateGPS *= mult
		f := newWukongSFixture(b, benchEngineConfig(8), cfg)
		for _, n := range []int{1, 4} {
			n := n
			b.Run(fmt.Sprintf("rate=%dx/L%d", mult, n), func(b *testing.B) { f.benchQuery(b, n) })
		}
	}
}

// ---- Table 6: injection ------------------------------------------------------

func BenchmarkTable6_Injection(b *testing.B) {
	b.ReportAllocs()
	e, d, _, err := harness.LSBenchEngine(benchEngineConfig(8), benchLSConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	now := rdf.Timestamp(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100 // one mini-batch across all five streams
		if err := d.StepTo(now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var tuples int64
	for _, s := range lsbench.Streams() {
		st, _, err := e.InjectionStats(s)
		if err != nil {
			b.Fatal(err)
		}
		tuples += int64(st.TimelessTuples + st.TimingTuples)
	}
	b.ReportMetric(float64(tuples)/float64(b.N), "tuples/batch")
}

// ---- Figs 14, 15: throughput -------------------------------------------------

func benchmarkThroughput(b *testing.B, classes []int) {
	b.ReportAllocs()
	e, d, w, err := harness.LSBenchEngine(benchEngineConfig(8), benchLSConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	var execs atomic.Int64
	const perClass = 60
	for _, class := range classes {
		for i := 0; i < perClass; i++ {
			if _, err := e.RegisterContinuous(w.QueryL(class, i*7+class), func(*core.Result, core.FireInfo) {
				execs.Add(1)
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := d.Run(harness.LSBenchStep, 1000); err != nil {
		b.Fatal(err)
	}
	execs.Store(0)
	now := rdf.Timestamp(1000)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		now += 100
		if err := d.StepTo(now); err != nil {
			b.Fatal(err)
		}
	}
	wall := time.Since(start)
	b.ReportMetric(float64(execs.Load())/wall.Seconds(), "queries/sec")
}

func BenchmarkFig14_ThroughputMix3(b *testing.B) { benchmarkThroughput(b, []int{1, 2, 3}) }
func BenchmarkFig15_ThroughputMix6(b *testing.B) { benchmarkThroughput(b, []int{1, 2, 3, 4, 5, 6}) }

// ---- Table 7 / §6.7: memory ---------------------------------------------------

func BenchmarkTable7_StreamIndexMemory(b *testing.B) {
	b.ReportAllocs()
	e, d, w, err := harness.LSBenchEngine(benchEngineConfig(8), benchLSConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	if _, err := e.RegisterContinuous(w.QueryL(5, 0), nil); err != nil {
		b.Fatal(err)
	}
	now := rdf.Timestamp(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100
		if err := d.StepTo(now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var idx int64
	for _, s := range lsbench.Streams() {
		n, err := e.StreamIndexBytes(s)
		if err != nil {
			b.Fatal(err)
		}
		idx += n
	}
	b.ReportMetric(float64(idx), "index-bytes")
}

func BenchmarkSnapMem_Scalarization(b *testing.B) {
	b.ReportAllocs()
	for _, snaps := range []int{2, 3} {
		b.Run(fmt.Sprintf("snapshots=%d", snaps), func(b *testing.B) {
			b.ReportAllocs()
			cfg := benchEngineConfig(8)
			cfg.MaxSnapshots = snaps
			e, d, _, err := harness.LSBenchEngine(cfg, benchLSConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(e.Close)
			now := rdf.Timestamp(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 100
				if err := d.StepTo(now); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			m := e.Store().Memory()
			b.ReportMetric(float64(m.ScalarizedCost), "scalarized-bytes")
			b.ReportMetric(float64(m.VTSAlternativeBytes(5)), "vts-alt-bytes")
		})
	}
}

// ---- §6.8: fault tolerance -----------------------------------------------------

// BenchmarkFT_Overhead is one 100 ms step of the L1–L3 mix — one EMIT per
// stream and the step's ADVANCE, rendered as the text a client sends — applied
// through cluster.ApplyVerb (off) or through a one-member cluster that logs
// and flushes each op before applying it (on). Rendering is not timed.
func BenchmarkFT_Overhead(b *testing.B) {
	b.ReportAllocs()
	for _, ft := range []bool{false, true} {
		name := "off"
		if ft {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			ss := strserver.New()
			w := lsbench.Generate(benchLSConfig(), ss)
			var initial []byte
			for _, enc := range w.Initial {
				initial = append(rdf.AppendTriple(initial, must(ss.DecodeTriple(enc))), " .\n"...)
			}
			e, err := core.New(benchEngineConfig(8))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(e.Close)
			if _, err := cluster.ApplyVerb(e, nil, "LOAD", nil, string(initial)); err != nil {
				b.Fatal(err)
			}
			apply := func(kind string, args []string, body string) (string, error) {
				return cluster.ApplyVerb(e, nil, kind, args, body)
			}
			if ft {
				n, err := cluster.NewSeed(cluster.Config{Engine: e, SelfAddr: "bench", DataDir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(n.Close)
				apply = n.Forward
			}
			for _, sp := range lsbench.StreamConfigs() {
				args := append([]string{sp.Name, strconv.FormatInt(sp.BatchInterval.Milliseconds(), 10)}, sp.TimingPreds...)
				if _, err := apply("STREAM", args, ""); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 30; i++ {
				if _, err := apply("REGISTER", nil, w.QueryL(i%3+1, i)); err != nil {
					b.Fatal(err)
				}
			}
			type op struct{ stream, body string }
			now := rdf.Timestamp(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var step []op
				for _, s := range lsbench.Streams() {
					var body []byte
					for _, enc := range w.StreamTuples(s, now, now+100) {
						t := rdf.Tuple{Triple: must(ss.DecodeTriple(enc.EncodedTriple)), TS: enc.TS}
						body = append(rdf.AppendTuple(body, t), '\n')
					}
					if len(body) > 0 {
						step = append(step, op{s, string(body)})
					}
				}
				now += 100
				b.StartTimer()
				for _, o := range step {
					if _, err := apply("EMIT", []string{o.stream}, o.body); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := apply("ADVANCE", []string{strconv.FormatInt(int64(now), 10)}, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 8: one-shot queries ---------------------------------------------------

func BenchmarkTable8_OneShot(b *testing.B) {
	b.ReportAllocs()
	e, d, w, err := harness.LSBenchEngine(benchEngineConfig(8), benchLSConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	for n := 1; n <= 6; n++ {
		if _, err := e.RegisterContinuous(w.QueryL(n, 1), nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Run(harness.LSBenchStep, 2000); err != nil {
		b.Fatal(err)
	}
	for n := 1; n <= 6; n++ {
		q, err := sparql.Parse(w.QueryS(n, 1))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("S%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.QueryParsed(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 9: CityBench -----------------------------------------------------------

func BenchmarkTable9_CityBench(b *testing.B) {
	b.ReportAllocs()
	e, d, w, err := harness.CityBenchEngine(benchEngineConfig(1), citybench.Config{RateScale: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	cqs := map[int]*core.ContinuousQuery{}
	for n := 1; n <= 11; n++ {
		cq, err := e.RegisterContinuous(w.QueryC(n, 1), nil)
		if err != nil {
			b.Fatal(err)
		}
		cqs[n] = cq
	}
	if err := d.Run(harness.CityBenchStep, 6000); err != nil {
		b.Fatal(err)
	}
	for n := 1; n <= 11; n++ {
		cq := cqs[n]
		b.Run(fmt.Sprintf("C%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := cq.ExecuteNow(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Micro-benchmarks of the substrates -------------------------------------------

func BenchmarkMicro_StoreInsert(b *testing.B) {
	b.ReportAllocs()
	fab := fabric.New(fabric.DefaultConfig(8))
	st := storeSharded(fab)
	ss := strserver.New()
	p := must(ss.InternPredicate("p"))
	ids := make([]rdf.ID, 4096)
	for i := range ids {
		ids[i] = ss.InternEntity(rdf.NewIntLiteral(int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Insert(strserver.EncodedTriple{S: ids[i%4096], P: p, O: ids[(i*31+7)%4096]}, 1, false, nil)
	}
}

func BenchmarkMicro_ParseQC(b *testing.B) {
	b.ReportAllocs()
	w := lsbench.Generate(lsbench.Config{Users: 50}, strserver.New())
	text := w.QueryL(5, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_SourceEmit(b *testing.B) {
	b.ReportAllocs()
	ss := strserver.New()
	src, err := stream.NewSource(stream.Config{Name: "s", BatchInterval: 100 * time.Millisecond}, ss)
	if err != nil {
		b.Fatal(err)
	}
	enc := must(ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("a", "p", "b"), TS: 0}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.TS = rdf.Timestamp(i)
		if err := src.EmitEncoded(enc); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			src.SealUpTo(enc.TS) // keep the pending buffer bounded
		}
	}
}

// BenchmarkMicro_ParseTuples parses one EMIT body the size of a benchmark
// tick's largest stream share (64 tuples) from memory.
func BenchmarkMicro_ParseTuples(b *testing.B) {
	b.ReportAllocs()
	var body strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&body, "%s\n", rdf.Tuple{Triple: rdf.T(fmt.Sprintf("user-%d", i), "po", fmt.Sprintf("post-%d", 1000+i)), TS: rdf.Timestamp(100 + i)})
	}
	text := body.String()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rdf.ParseTuples(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_InternHit interns a term the string server already knows —
// what every tuple of a steady stream does twice.
func BenchmarkMicro_InternHit(b *testing.B) {
	b.ReportAllocs()
	ss := strserver.New()
	terms := make([]rdf.Term, 1024)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://example.org/user/%d", i))
		ss.InternEntity(terms[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.InternEntity(terms[i%len(terms)])
	}
}

// storeSharded avoids importing internal/store at the top for one helper.
func storeSharded(f *fabric.Fabric) *store.Sharded { return store.NewSharded(f, 0) }
