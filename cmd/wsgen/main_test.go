package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bench/experiments"
	"repro/internal/bench/harness"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// A trace is what the experiments measure at the same scale: wsgen's files
// hold, byte for byte, the initial graph the experiments' engine loads and
// the tuples its Driver emits over the same seconds.
func TestTraceIsTheExperimentsStream(t *testing.T) {
	const (
		scale   = 0.1
		seconds = 2
	)
	o := experiments.Options{Scale: scale}
	for _, tc := range []struct {
		bench string
		step  time.Duration
		build func(core.Config) (*core.Engine, *harness.Driver, []strserver.EncodedTriple, error)
	}{
		{"lsbench", harness.LSBenchStep, func(c core.Config) (*core.Engine, *harness.Driver, []strserver.EncodedTriple, error) {
			e, d, w, err := harness.LSBenchEngine(c, experiments.LSConfig(o))
			if err != nil {
				return nil, nil, nil, err
			}
			return e, d, w.Initial, nil
		}},
		{"citybench", harness.CityBenchStep, func(c core.Config) (*core.Engine, *harness.Driver, []strserver.EncodedTriple, error) {
			e, d, w, err := harness.CityBenchEngine(c, experiments.CityConfig(o))
			if err != nil {
				return nil, nil, nil, err
			}
			return e, d, w.Initial, nil
		}},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			dir := t.TempDir()
			if err := run(tc.bench, dir, seconds, scale, 0); err != nil {
				t.Fatal(err)
			}
			e, d, initial, err := tc.build(core.Config{Nodes: 1, WorkersPerNode: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := d.Run(tc.step, seconds*1000); err != nil {
				t.Fatal(err)
			}
			ss := e.StringServer()

			var want bytes.Buffer
			triples := make([]rdf.Triple, len(initial))
			for i, enc := range initial {
				triples[i] = must(ss.DecodeTriple(enc))
			}
			if err := rdf.WriteTriples(&want, triples); err != nil {
				t.Fatal(err)
			}
			same(t, filepath.Join(dir, "initial.nt"), want.Bytes())

			for _, s := range d.Streams() {
				var tuples []rdf.Tuple
				for _, enc := range d.All(s) {
					tuples = append(tuples, rdf.Tuple{Triple: must(ss.DecodeTriple(enc.EncodedTriple)), TS: enc.TS})
				}
				if len(tuples) == 0 {
					t.Fatalf("the Driver emitted nothing on %s", s)
				}
				want.Reset()
				if err := rdf.WriteTuples(&want, tuples); err != nil {
					t.Fatal(err)
				}
				same(t, filepath.Join(dir, s+".tuples"), want.Bytes())
			}
		})
	}
}

// same fails the test unless the file at path holds want.
func same(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %d bytes, %d lines; the experiments' %d bytes, %d lines",
			filepath.Base(path), len(got), bytes.Count(got, []byte("\n")), len(want), bytes.Count(want, []byte("\n")))
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
