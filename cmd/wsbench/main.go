// Command wsbench reproduces the paper's evaluation tables and figures.
//
// Usage:
//
//	wsbench -exp table2            # one experiment
//	wsbench -exp all               # every experiment, in paper order
//	wsbench -exp fig12 -nodes 8 -runs 50 -scale 2
//	wsbench -list                  # list experiment IDs
//
// Each experiment prints a table mirroring the paper's rows plus the shape
// target it is expected to reproduce (see DESIGN.md §4 and EXPERIMENTS.md).
// Simulated network latency is injected by default (-latency spin); use
// -latency off for functional smoke runs.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/bench/experiments"
	"repro/internal/fabric"
	"repro/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment ID, or 'all'")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		runs    = flag.Int("runs", 20, "repetitions per latency measurement")
		scale   = flag.Float64("scale", 1, "dataset/rate scale multiplier")
		nodes   = flag.Int("nodes", 8, "cluster size for distributed experiments")
		latency = flag.String("latency", "spin", "simulated network latency mode: off|spin|sleep")
		csvDir  = flag.String("csv", "", "also write each table as CSV into this directory")
		obsJSON = flag.String("obs-json", "", "after all experiments, print per-stage latency percentiles and write the full metric registry to this JSON file")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var mode fabric.LatencyMode
	switch strings.ToLower(*latency) {
	case "off":
		mode = fabric.Off
	case "spin":
		mode = fabric.Spin
	case "sleep":
		mode = fabric.Sleep
	default:
		fmt.Fprintf(os.Stderr, "wsbench: unknown latency mode %q\n", *latency)
		os.Exit(2)
	}

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "wsbench: -exp required (or -list); e.g. -exp table2 or -exp all")
		os.Exit(2)
	}
	opts := experiments.Options{
		Runs:        *runs,
		Scale:       *scale,
		Nodes:       *nodes,
		LatencyMode: mode,
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		// Isolate experiments from each other's heap pressure: a GC cycle
		// triggered by a previous experiment's garbage would otherwise
		// inflate this one's latency medians.
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		r, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(r)
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, r); err != nil {
				fmt.Fprintf(os.Stderr, "wsbench: csv: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if *obsJSON != "" {
		if err := reportObs(*obsJSON); err != nil {
			fmt.Fprintf(os.Stderr, "wsbench: obs: %v\n", err)
			os.Exit(1)
		}
	}
}

// reportObs prints the per-stage pipeline latency percentiles recorded during
// the run and writes the full metric registry to path. A run that recorded no
// stage samples is an error: it means the workload exercised no instrumented
// pipeline and the benchmark proved nothing.
func reportObs(path string) error {
	stages := obs.Default.StageSnapshots()
	names := make([]string, 0, len(stages))
	var samples int64
	for name, snap := range stages {
		names = append(names, name)
		samples += snap.Count
	}
	sort.Strings(names)
	fmt.Printf("pipeline stage latency (ns):\n")
	fmt.Printf("%-22s %10s %12s %12s %12s\n", "stage", "count", "p50", "p99", "p999")
	for _, name := range names {
		s := stages[name]
		fmt.Printf("%-22s %10d %12d %12d %12d\n", name, s.Count, s.P50, s.P99, s.P999)
	}
	if samples == 0 {
		return fmt.Errorf("no stage samples recorded (did the workload run?)")
	}
	registry, err := obs.Default.JSON()
	if err != nil {
		return err
	}
	doc := struct {
		Stages   map[string]obs.HistogramSnapshot `json:"stages"`
		Registry json.RawMessage                  `json:"registry"`
	}{Stages: stages, Registry: registry}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d stage samples)\n", path, samples)
	return nil
}

// writeCSV dumps a report's table for external plotting.
func writeCSV(dir string, r *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, r.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(r.Table.Header); err != nil {
		return err
	}
	for _, row := range r.Table.Rows {
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
