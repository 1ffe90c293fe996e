// Command wsgen generates benchmark datasets and stream traces to files,
// for loading into wukongsd or external tools.
//
//	wsgen -bench lsbench -out /tmp/ls -seconds 10 -scale 1
//	wsgen -bench citybench -out /tmp/city -seconds 30
//
// It writes <out>/initial.nt (N-Triples) and one <out>/<stream>.tuples file
// per stream (N-Triples with " . @ts" timestamp annotations, readable by
// the server's EMIT command and by rdf.Reader). The streams are generated on
// the experiments' schedule (harness.Schedule: 100 ms steps for LSBench, 1 s
// for CityBench, the streams interleaved within a step), so a trace is the
// stream a harness.Driver emits for the same workload configuration.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench/citybench"
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
		scale   = flag.Float64("scale", 1, "size/rate multiplier")
		seed    = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "wsgen: -out required")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	ss := strserver.New()
	var initial []strserver.EncodedTriple
	var streams []string
	var gen harness.GenFunc
	var step time.Duration

	switch *bench {
	case "lsbench":
		cfg := lsbench.Config{Seed: *seed}
		cfg.Users = int(1000 * *scale)
		w := lsbench.Generate(cfg, ss)
		initial, streams, gen, step = w.Initial, lsbench.Streams(), w.StreamTuples, harness.LSBenchStep
	case "citybench":
		cfg := citybench.Config{Seed: *seed, RateScale: int(*scale)}
		w := citybench.Generate(cfg, ss)
		initial, streams, gen, step = w.Initial, citybench.Streams(), w.StreamTuples, harness.CityBenchStep
	default:
		log.Fatalf("wsgen: unknown benchmark %q", *bench)
	}

	// Initial data.
	path := filepath.Join(*out, "initial.nt")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	var triples []rdf.Triple
	for _, enc := range initial {
		t, err := ss.DecodeTriple(enc)
		if err != nil {
			log.Fatal(err)
		}
		triples = append(triples, t)
	}
	if err := rdf.WriteTriples(f, triples); err != nil {
		log.Fatal(err)
	}
	f.Close()
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
	if err := harness.Schedule(gen, streams, 0, rdf.Timestamp(*seconds*1000), step, keep, nil); err != nil {
		log.Fatal(err)
	}
	for _, s := range streams {
		tuples := traces[s]
		path := filepath.Join(*out, s+".tuples")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := rdf.WriteTuples(f, tuples); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %d tuples to %s\n", len(tuples), path)
	}
}
