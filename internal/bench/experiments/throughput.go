package experiments

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/bench/harness"
	"repro/internal/core"
	"repro/internal/rdf"
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
	e, d, w, err := harness.LSBenchEngine(engineConfig(o, nodes), lsConfig(o))
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
// with logging + checkpointing enabled vs disabled.
func FT(o Options) (*Report, error) {
	o = o.withDefaults()
	perClass := scaleInt(40, o.Scale, 5)
	classes := []int{1, 2, 3}

	run := func(ft bool) (*mixResult, *core.FTStats, error) {
		e, d, w, err := harness.LSBenchEngine(engineConfig(o, o.Nodes), lsConfig(o))
		if err != nil {
			return nil, nil, err
		}
		defer e.Close()
		var dir string
		if ft {
			dir, err = os.MkdirTemp("", "wukongs-ft-*")
			if err != nil {
				return nil, nil, err
			}
			defer os.RemoveAll(dir)
			if err := e.EnableFT(core.FTConfig{Dir: dir, CheckpointEveryBatches: 50}); err != nil {
				return nil, nil, err
			}
		}
		var execs atomic.Int64
		var cqs []*core.ContinuousQuery
		for _, class := range classes {
			for i := 0; i < perClass; i++ {
				cq, err := e.RegisterContinuous(w.QueryL(class, i*5+class), func(*core.Result, core.FireInfo) {
					execs.Add(1)
				})
				if err != nil {
					return nil, nil, err
				}
				cqs = append(cqs, cq)
			}
		}
		if err := d.Run(harness.LSBenchStep, 1000); err != nil {
			return nil, nil, err
		}
		execs.Store(0)
		start := time.Now()
		if err := d.Run(harness.LSBenchStep, 3000); err != nil {
			return nil, nil, err
		}
		wall := time.Since(start)
		var lats []time.Duration
		for _, cq := range cqs {
			lats = append(lats, cq.Latencies()...)
		}
		res := &mixResult{Throughput: float64(execs.Load()) / wall.Seconds(), Lats: lats}
		if ft {
			st, err := e.FTStats()
			if err != nil {
				return nil, nil, err
			}
			return res, &st, nil
		}
		return res, nil, nil
	}

	off, _, err := run(false)
	if err != nil {
		return nil, err
	}
	on, stats, err := run(true)
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
	perBatch := time.Duration(0)
	if stats.LoggedBatches > 0 {
		perBatch = stats.LogTime / time.Duration(stats.LoggedBatches)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("throughput drop: %.1f%%; logging delay per batch: %v; checkpoints: %d",
			drop, perBatch, stats.Checkpoints),
		"shape target: modest throughput drop (~10%); 99th-pct latency grows; median stable")
	return r, nil
}
