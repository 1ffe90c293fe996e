// Command wsgen generates benchmark datasets and stream traces to files,
// for loading into wukongsd or external tools.
//
//	wsgen -bench lsbench -out /tmp/ls -seconds 10 -scale 1
//	wsgen -bench citybench -out /tmp/city -seconds 30
//
// It writes <out>/initial.nt (N-Triples) and one <out>/<stream>.tuples file
// per stream (N-Triples with " . @ts" timestamp annotations, readable by
// the server's EMIT command and by rdf.Reader). The workload is the
// experiments' at the same -scale (experiments.LSConfig, CityConfig), and its
// streams are generated on their schedule (harness.Schedule: 100 ms steps
// for LSBench, 1 s for CityBench, the streams interleaved within a step), so
// a trace is the stream wsbench's harness.Driver emits.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench/citybench"
	"repro/internal/bench/experiments"
	"repro/internal/bench/harness"
	"repro/internal/bench/lsbench"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

func main() {
	var (
		bench   = flag.String("bench", "lsbench", "workload: lsbench|citybench")
		out     = flag.String("out", "", "output directory (required)")
		seconds = flag.Int("seconds", 10, "stream trace length")
		scale   = flag.Float64("scale", 1, "size/rate multiplier, as wsbench's -scale")
		seed    = flag.Int64("seed", 0, "generator seed (0: the generator's default, which the experiments use)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "wsgen: -out required")
		os.Exit(2)
	}
	if err := run(*bench, *out, *seconds, *scale, *seed); err != nil {
		log.Fatal(err)
	}
}

// run writes the initial graph and the first seconds of every stream of the
// experiments' workload bench at scale into the directory out.
func run(bench, out string, seconds int, scale float64, seed int64) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	ss := strserver.New()
	var initial []strserver.EncodedTriple
	var streams []string
	var gen harness.GenFunc
	var step time.Duration

	o := experiments.Options{Scale: scale}
	switch bench {
	case "lsbench":
		cfg := experiments.LSConfig(o)
		cfg.Seed = seed
		w := lsbench.Generate(cfg, ss)
		initial, streams, gen, step = w.Initial, lsbench.Streams(), w.StreamTuples, harness.LSBenchStep
	case "citybench":
		cfg := experiments.CityConfig(o)
		cfg.Seed = seed
		w := citybench.Generate(cfg, ss)
		initial, streams, gen, step = w.Initial, citybench.Streams(), w.StreamTuples, harness.CityBenchStep
	default:
		return fmt.Errorf("wsgen: unknown benchmark %q", bench)
	}

	// Initial data.
	var triples []rdf.Triple
	for _, enc := range initial {
		t, err := ss.DecodeTriple(enc)
		if err != nil {
			return err
		}
		triples = append(triples, t)
	}
	path := filepath.Join(out, "initial.nt")
	if err := writeFile(path, func(f *os.File) error { return rdf.WriteTriples(f, triples) }); err != nil {
		return err
	}
	fmt.Printf("wrote %d triples to %s\n", len(triples), path)

	// Stream traces.
	traces := make(map[string][]rdf.Tuple)
	keep := func(s string, encs []strserver.EncodedTuple) error {
		for _, enc := range encs {
			t, err := ss.DecodeTriple(enc.EncodedTriple)
			if err != nil {
				return err
			}
			traces[s] = append(traces[s], rdf.Tuple{Triple: t, TS: enc.TS})
		}
		return nil
	}
	if err := harness.Schedule(gen, streams, 0, rdf.Timestamp(seconds*1000), step, keep, nil); err != nil {
		return err
	}
	for _, s := range streams {
		tuples := traces[s]
		path := filepath.Join(out, s+".tuples")
		if err := writeFile(path, func(f *os.File) error { return rdf.WriteTuples(f, tuples) }); err != nil {
			return err
		}
		fmt.Printf("wrote %d tuples to %s\n", len(tuples), path)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
