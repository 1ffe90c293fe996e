package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench/lsbench"
	"repro/internal/core"
	"repro/internal/stream"
)

// TestMain lets the yardstick re-execute the test binary as its reference
// server, the way it re-executes the benchmark binary.
func TestMain(m *testing.M) {
	for i, a := range os.Args {
		if a == "-yardstick-server" && i+1 < len(os.Args) {
			os.Exit(serveYardstick(os.Args[i+1]))
		}
	}
	os.Exit(m.Run())
}

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}

	// Ten or fewer samples support no tail percentile at all.
	ten := make([]float64, 10)
	if tl := tailOf(ten); tl.ok {
		t.Errorf("tail of 10 samples reported %v, want none", tl)
	}
	// With n samples the reported value is the one with exactly ten beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: the helper must sort
	}
	tl := tailOf(xs)
	if !tl.ok || tl.rank != 990 || tl.value != 990 || tl.n != 1000 || math.Abs(tl.pct-99.0) > 1e-9 {
		t.Errorf("tail of 1..1000 = %+v, want rank 990, value 990, p99", tl)
	}
	beyond := 0
	for _, x := range xs {
		if x > tl.value {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the reported tail, want 10", beyond)
	}
	if tl := tailOf(xs[:11]); !tl.ok || tl.rank != 1 {
		t.Errorf("tail of 11 samples = %+v, want rank 1", tl)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
}

// tinySpec is a seconds-long version of stream-standalone for tests.
func tinySpec() *spec {
	sp := *specByName("stream-standalone")
	sp.users, sp.rounds, sp.warmTicks, sp.warmProbes = 100, 50, 12, 48
	return &sp
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	sp := tinySpec()
	sp.rounds = 8
	a, b, c := buildScript(sp, 1).hash(), buildScript(sp, 1).hash(), buildScript(sp, 2).hash()
	if a != b {
		t.Errorf("same seed gave different scripts: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same script %s", a)
	}
	// The follower's probes are seeded too.
	s1, s2 := buildScript(sp, 1), buildScript(sp, 1)
	g1, g2 := s1.followerProbes(), s2.followerProbes()
	for i := 0; i < 100; i++ {
		if p, q := g1.next(), g2.next(); p != q {
			t.Fatalf("follower probe %d differs: %+v vs %+v", i, p, q)
		}
	}
}

func TestProbeMix(t *testing.T) {
	sc := buildScript(tinySpec(), 3)
	g := newProbeGen(sc.w, 9)
	var n [3]int
	for i := 0; i < 4000; i++ {
		n[g.next().class]++
	}
	if n[probeScan] != 1000 {
		t.Errorf("%d scans in 4000 probes, want 1000", n[probeScan])
	}
	if d := n[probeHot] - n[probeCold]; d < -300 || d > 300 {
		t.Errorf("hot/cold split %d/%d, want about even", n[probeHot], n[probeCold])
	}
}

// TestOracleAgreesWithEngine drives a tiny in-process engine through the
// script with direct calls and checks the oracle against it on S1–S5 after
// every tick and on every L1–L3 firing.
func TestOracleAgreesWithEngine(t *testing.T) {
	sp := tinySpec()
	sp.users, sp.rounds, sp.warmTicks, sp.warmProbes = 40, 25, 0, 0
	sc := buildScript(sp, 5)
	eng, err := newEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, blk := range sc.blocks {
		if _, err := eng.LoadReader(strings.NewReader(blk)); err != nil {
			t.Fatal(err)
		}
	}
	var sources []*stream.Source
	for _, st := range lsbench.StreamConfigs() {
		src, err := eng.RegisterStream(stream.Config{Name: st.Name, BatchInterval: st.BatchInterval, TimingPredicates: st.TimingPreds})
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, src)
	}
	type firing struct {
		cq   int
		at   int64
		rows []string
	}
	var mu sync.Mutex
	var firings []firing
	for qi := 0; qi < checkedCQs; qi++ {
		_, err := eng.RegisterContinuous(sc.cqs[qi], func(res *core.Result, fi core.FireInfo) {
			mu.Lock()
			firings = append(firings, firing{qi, int64(fi.At), res.Strings()})
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	o := newOracle(sc)
	oneShotRows, cqRows := 0, 0
	for i := range sc.rounds {
		r := &sc.rounds[i]
		for si := range sources {
			for _, tu := range sc.decode(r.tick.emits[si]) {
				if err := sources[si].Emit(tu); err != nil {
					t.Fatal(err)
				}
			}
		}
		eng.AdvanceTo(r.tick.now)
		o.absorb(&r.tick)
		for s := 1; s <= 5; s++ {
			text := sc.w.QueryS(s, i*7+s)
			res, err := eng.Query(text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := o.oneShot(text, o.ticks())
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Strings(); !sameRows(got, want) {
				t.Fatalf("tick %d S%d: engine %d rows, oracle %d rows\n%s", i+1, s, len(got), len(want), text)
			}
			oneShotRows += len(want)
		}
		mu.Lock()
		fired := firings
		firings = nil
		mu.Unlock()
		for _, f := range fired {
			want, err := o.continuous(sc.cqs[f.cq], o.ticks(), r.tick.now)
			if err != nil {
				t.Fatal(err)
			}
			if f.at != int64(r.tick.now) {
				t.Fatalf("tick %d: L%d fired for %d, want %d", i+1, f.cq+1, f.at, r.tick.now)
			}
			if !sameRows(f.rows, want) {
				t.Fatalf("tick %d L%d: engine %v, oracle %v", i+1, f.cq+1, f.rows, want)
			}
			cqRows += len(want)
		}
		if i >= 1 && len(fired) != checkedCQs {
			t.Fatalf("tick %d: %d firings, want one per query", i+1, len(fired))
		}
	}
	if oneShotRows == 0 || cqRows == 0 {
		t.Fatalf("vacuous comparison: %d one-shot rows, %d continuous rows", oneShotRows, cqRows)
	}
}

func TestHistQuantileAndFamily(t *testing.T) {
	before := parseMetrics([]string{
		`wukongs_x_ns_bucket{le="1000"} 10`, `wukongs_x_ns_bucket{le="2000"} 10`, `wukongs_x_ns_bucket{le="+Inf"} 10`,
		`wukongs_x_ns_count 10`, `wukongs_t_total{stream="A"} 1`, `wukongs_t_total{stream="B"} 2`,
	})
	after := parseMetrics([]string{
		"# TYPE wukongs_x_ns histogram",
		`wukongs_x_ns_bucket{le="1000"} 10`, `wukongs_x_ns_bucket{le="2000"} 30`, `wukongs_x_ns_bucket{le="+Inf"} 30`,
		`wukongs_x_ns_count 30`, `wukongs_t_total{stream="A"} 5`, `wukongs_t_total{stream="B"} 9`,
	})
	if got := delta(before, after, "t_total"); got != 11 {
		t.Errorf("family delta = %v, want 11", got)
	}
	// All 20 new samples fell in (1000, 2000]: the median interpolates to 1500.
	if got := histQuantile(before, after, "x_ns", 0.5); got != 1500 {
		t.Errorf("histogram median = %v, want 1500", got)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in this
// package identical: workloads, metric names, units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, want nominalSeconds = %d", bj.RunSeconds, nominalSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d = %q/%q, want %q/%q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the table", len(bj.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d = %+v, want %s %s %s %v", i, m, d.name, d.unit, d.better, d.bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be listed with the largest bound (%v)", maxBound)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the table", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d = %+v, want %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}

// TestSmokeRealDaemon runs 50 rounds of stream-standalone against one real
// daemon, untraced and traced, and checks that every metric BENCHMARK.json
// names is printed with its unit and that the reference check passes.
func TestSmokeRealDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real wukongsd")
	}
	dir := t.TempDir()
	bin, err := buildDaemon(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(runCleanup)
	yard, err := startYardstick(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	e := env{bin: bin, workDir: filepath.Join(dir, "tmp"), outDir: filepath.Join(dir, "out"), yard: yard}
	sp := tinySpec()
	bj := readBenchmarkJSON(t)

	check := func(r *result, defs []metricDef, want []string) {
		t.Helper()
		if !r.ok() {
			t.Errorf("run not ok: correct=%v attempted=%d failed=%d errors=%v mismatches=%v",
				r.Correct, r.Attempted, r.Failed, r.Errors, r.Mismatches)
		}
		var buf bytes.Buffer
		r.print(&buf, defs)
		printed := map[string]string{} // metric name → unit as printed
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) >= 3 {
				printed[f[0]] = f[2]
			}
		}
		sort.Strings(want)
		for _, nameUnit := range want {
			name, unit, _ := strings.Cut(nameUnit, " ")
			if printed[name] != unit {
				t.Errorf("metric %s printed with unit %q, want %q\n%s", name, printed[name], unit, buf.String())
			}
		}
		var line struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(r.contractLine(defs)), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(want) || line.Attempted < 1 {
			t.Errorf("contract line has %d metrics and %d attempted, want %d metrics", len(line.Metrics), line.Attempted, len(want))
		}
	}

	r, err := runUntraced(e, sp, 1, nominalSeconds, true)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range bj.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
	}
	check(r, endToEnd, want)
	for _, m := range bj.EndToEnd {
		if r.Metrics[m.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, r.Metrics[m.Name].Value)
		}
	}
	if r.Metrics["fresh_p50_ms"].N != sp.rounds {
		t.Errorf("fresh_p50_ms over %d ticks, want %d", r.Metrics["fresh_p50_ms"].N, sp.rounds)
	}

	tr, err := runTraced(e, sp, 1, nominalSeconds)
	if err != nil {
		t.Fatal(err)
	}
	want = nil
	for _, m := range bj.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	check(tr, perLayer, want)
	if v := tr.Metrics["client.span_coverage_ratio"].Value; v < 0.5 || v > 1 {
		t.Errorf("client.span_coverage_ratio = %v, want within (0.5, 1]", v)
	}
	if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+sp.name+".json")); err != nil {
		t.Errorf("span file: %v", err)
	}
	yard.close()
	if entries, _ := os.ReadDir(e.workDir); len(entries) != 0 {
		t.Errorf("%d scratch directories left behind in %s", len(entries), e.workDir)
	}
}

func TestCompareFlagsDisagreement(t *testing.T) {
	mk := func(q float64) *resultSet {
		rs := &resultSet{}
		for i := 0; i < 5; i++ {
			rs.Runs = append(rs.Runs, &result{Workload: "stream-standalone",
				Metrics: map[string]value{"query_p50_us": {Value: q + float64(i), Unit: "us"}}})
		}
		return rs
	}
	var buf bytes.Buffer
	if bad := compare(&buf, mk(100), mk(105)); len(bad) != 0 {
		t.Errorf("5%% apart flagged: %v", bad)
	}
	if bad := compare(&buf, mk(100), mk(130)); len(bad) != 1 {
		t.Errorf("30%% apart: %v, want one disagreement", bad)
	}
	if s := fmt.Sprint(mk(100).cells()[0].spread()); s == "0" {
		t.Errorf("spread of 100..104 is 0")
	}
}
