package experiments

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/bench/harness"
	"repro/internal/bench/lsbench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// mixResult is one throughput measurement.
type mixResult struct {
	Throughput float64 // query executions per second of wall time
	Lats       []time.Duration
}

// runMixedWorkload registers `perClass` instances of each listed query
// class (random start vertices, as §6.6 describes) on a fresh engine, then
// drives the streams for `logical` milliseconds and measures execution
// throughput and latencies.
func runMixedWorkload(o Options, nodes int, classes []int, perClass int, logical rdf.Timestamp) (*mixResult, error) {
	e, d, w, err := harness.LSBenchEngine(engineConfig(o, nodes), LSConfig(o))
	if err != nil {
		return nil, err
	}
	defer e.Close()

	var execs atomic.Int64
	var cqs []*core.ContinuousQuery
	for _, class := range classes {
		for i := 0; i < perClass; i++ {
			cq, err := e.RegisterContinuous(w.QueryL(class, i*7+class), func(*core.Result, core.FireInfo) {
				execs.Add(1)
			})
			if err != nil {
				return nil, err
			}
			cqs = append(cqs, cq)
		}
	}
	// Warm one window, then measure.
	if err := d.Run(harness.LSBenchStep, 1000); err != nil {
		return nil, err
	}
	execs.Store(0)
	start := time.Now()
	if err := d.Run(harness.LSBenchStep, 1000+logical); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	var lats []time.Duration
	for _, cq := range cqs {
		lats = append(lats, cq.Latencies()...)
	}
	return &mixResult{
		Throughput: float64(execs.Load()) / wall.Seconds(),
		Lats:       lats,
	}, nil
}

// Fig14 reproduces the mixed-workload throughput experiment over query
// classes L1–L3, sweeping cluster size, with the latency CDF on the largest
// cluster.
func Fig14(o Options) (*Report, error) {
	return throughputFigure(o, "fig14", []int{1, 2, 3},
		"shape target: near-linear throughput scaling 2->8 nodes; sub-ms median latency")
}

// Fig15 is Fig14 over all six query classes.
func Fig15(o Options) (*Report, error) {
	return throughputFigure(o, "fig15", []int{1, 2, 3, 4, 5, 6},
		"shape target: scaling continues (L4-L6 speed up with nodes); heavier latency tail than fig14")
}

func throughputFigure(o Options, id string, classes []int, note string) (*Report, error) {
	o = o.withDefaults()
	perClassPerNode := scaleInt(25, o.Scale, 3)
	nodeCounts := []int{2, 4, 6, 8}
	if o.Nodes < 8 {
		nodeCounts = []int{2, o.Nodes}
	}
	r := &Report{ID: id, Title: fmt.Sprintf("Mixed workload (%d classes, %d queries/class/node): throughput vs nodes", len(classes), perClassPerNode)}
	r.Table = &harness.Table{Header: []string{"Nodes", "Queries", "Throughput(q/s)", "Median(ms)", "99th(ms)"}}
	var last *mixResult
	for _, nc := range nodeCounts {
		// As in §6.6, clients register queries up to each cluster's
		// capacity: the registered load scales with the node count.
		perClass := perClassPerNode * nc
		res, err := runMixedWorkload(o, nc, classes, perClass, 2000)
		if err != nil {
			return nil, err
		}
		last = res
		r.Table.Add(fmt.Sprintf("%d", nc), fmt.Sprintf("%d", perClass*len(classes)),
			fmt.Sprintf("%.0f", res.Throughput),
			harness.Ms(harness.Median(res.Lats)), harness.Ms(harness.Percentile(res.Lats, 99)))
	}
	// CDF of the largest configuration (the paper's Fig. 14/15(b)).
	r.Notes = append(r.Notes, note)
	for _, pt := range harness.CDF(last.Lats, 10) {
		r.Notes = append(r.Notes, fmt.Sprintf("CDF: %.3f ms -> %.0f%%", pt[0], pt[1]*100))
	}
	return r, nil
}

// FT reproduces the fault-tolerance overhead study (§6.8): the L1–L3 mix
// with every write logged vs not. Both runs apply one rendered schedule —
// the streams and queries as STREAM and REGISTER ops, then one EMIT per
// stream and step and the step's ADVANCE, the text a client sends — through
// the one interpreter: FT off calls cluster.ApplyVerb on the engine, FT on
// forwards each op through a one-member cluster, which appends it to a
// durable op log (one fdatasync) before it applies it.
func FT(o Options) (*Report, error) {
	o = o.withDefaults()
	perClass := scaleInt(40, o.Scale, 5)
	classes := []int{1, 2, 3}
	const warm, until rdf.Timestamp = 1000, 3000
	initial, ops, err := renderLSBench(o, classes, perClass, until)
	if err != nil {
		return nil, err
	}

	run := func(dir string) (*mixResult, error) {
		e, err := core.New(engineConfig(o, o.Nodes))
		if err != nil {
			return nil, err
		}
		defer e.Close()
		// The initial graph is a preload, as wukongsd's -load: never logged.
		if _, err := cluster.ApplyVerb(e, nil, "LOAD", nil, initial); err != nil {
			return nil, err
		}
		var execs atomic.Int64
		onFire := func(string, *core.Result, core.FireInfo) { execs.Add(1) }
		apply := func(op verbOp) (string, error) { return cluster.ApplyVerb(e, onFire, op.kind, op.args, op.body) }
		if dir != "" {
			n, err := cluster.NewSeed(cluster.Config{Engine: e, SelfAddr: "ft", DataDir: dir, OnFire: onFire})
			if err != nil {
				return nil, err
			}
			defer n.Close()
			apply = func(op verbOp) (string, error) { return n.Forward(op.kind, op.args, op.body) }
		}
		// The clock of the last warm-up op; measurement starts after it.
		warmedAt := strconv.FormatInt(int64(warm), 10)
		var start time.Time
		for _, op := range ops {
			if _, err := apply(op); err != nil {
				return nil, fmt.Errorf("%s %v: %w", op.kind, op.args, err)
			}
			if op.kind == "ADVANCE" && op.args[0] == warmedAt {
				execs.Store(0)
				start = time.Now()
			}
		}
		wall := time.Since(start)
		var lats []time.Duration
		for _, cq := range e.ContinuousQueries() {
			lats = append(lats, cq.Latencies()...)
		}
		return &mixResult{Throughput: float64(execs.Load()) / wall.Seconds(), Lats: lats}, nil
	}

	off, err := run("")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "wukongs-ft-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	on, err := run(dir)
	if err != nil {
		return nil, err
	}

	r := &Report{ID: "ft", Title: "Fault-tolerance overhead (mixed L1-L3 workload)"}
	r.Table = &harness.Table{Header: []string{"Config", "Throughput(q/s)", "Median(ms)", "90th(ms)", "99th(ms)"}}
	r.Table.Add("FT off", fmt.Sprintf("%.0f", off.Throughput),
		harness.Ms(harness.Median(off.Lats)), harness.Ms(harness.Percentile(off.Lats, 90)),
		harness.Ms(harness.Percentile(off.Lats, 99)))
	r.Table.Add("FT on", fmt.Sprintf("%.0f", on.Throughput),
		harness.Ms(harness.Median(on.Lats)), harness.Ms(harness.Percentile(on.Lats, 90)),
		harness.Ms(harness.Percentile(on.Lats, 99)))
	drop := (1 - on.Throughput/off.Throughput) * 100
	r.Notes = append(r.Notes,
		fmt.Sprintf("throughput drop: %.1f%%; %d ops logged, each flushed before it applied", drop, len(ops)),
		"shape target: modest throughput drop (~10%); 99th-pct latency grows; median stable")
	return r, nil
}

// verbOp is one write as a client sends it.
type verbOp struct {
	kind string
	args []string
	body string
}

// renderLSBench renders the experiments' LSBench workload as text: the
// initial graph as one N-Triples body, and the ops that register the
// streams and perClass instances of each query class and then drive the
// streams over (0, until] on the Driver's schedule, one EMIT per stream and
// step, each step closed by its ADVANCE.
func renderLSBench(o Options, classes []int, perClass int, until rdf.Timestamp) (string, []verbOp, error) {
	ss := strserver.New()
	w := lsbench.Generate(LSConfig(o), ss)
	var initial []byte
	for _, enc := range w.Initial {
		t, err := ss.DecodeTriple(enc)
		if err != nil {
			return "", nil, err
		}
		initial = append(rdf.AppendTriple(initial, t), " .\n"...)
	}
	var ops []verbOp
	for _, sp := range lsbench.StreamConfigs() {
		args := append([]string{sp.Name, strconv.FormatInt(sp.BatchInterval.Milliseconds(), 10)}, sp.TimingPreds...)
		ops = append(ops, verbOp{kind: "STREAM", args: args})
	}
	for _, class := range classes {
		for i := 0; i < perClass; i++ {
			ops = append(ops, verbOp{kind: "REGISTER", body: w.QueryL(class, i*5+class)})
		}
	}
	emit := func(s string, tuples []strserver.EncodedTuple) error {
		var body []byte
		for _, enc := range tuples {
			t, err := ss.DecodeTriple(enc.EncodedTriple)
			if err != nil {
				return err
			}
			body = append(rdf.AppendTuple(body, rdf.Tuple{Triple: t, TS: enc.TS}), '\n')
		}
		if len(body) > 0 {
			ops = append(ops, verbOp{kind: "EMIT", args: []string{s}, body: string(body)})
		}
		return nil
	}
	advance := func(to rdf.Timestamp) {
		ops = append(ops, verbOp{kind: "ADVANCE", args: []string{strconv.FormatInt(int64(to), 10)}})
	}
	err := harness.Schedule(w.StreamTuples, lsbench.Streams(), 0, until, harness.LSBenchStep, emit, advance)
	return string(initial), ops, err
}
