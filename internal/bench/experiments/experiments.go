// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each experiment is a function returning a Report whose
// table mirrors the paper's rows/series; cmd/wsbench prints them and the
// repo-root benchmarks wrap them in testing.B.
//
// Absolute numbers differ from the paper (simulated fabric, Go, scaled
// data); the shape targets per experiment are listed in DESIGN.md §4 and
// recorded against measurements in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench/harness"
	"repro/internal/bench/lsbench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rdf"
)

// Options tunes experiment scale and measurement effort.
type Options struct {
	// Runs is the number of repetitions per latency measurement (the paper
	// uses 100; default 20).
	Runs int
	// Scale multiplies dataset sizes and stream rates (default 1).
	Scale float64
	// LatencyMode injects simulated network latency (default Spin — real
	// microsecond-scale delays; use Off for functional tests).
	LatencyMode fabric.LatencyMode
	// Nodes is the cluster size for the distributed experiments (default 8).
	Nodes int
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 20
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Nodes <= 0 {
		o.Nodes = 8
	}
	return o
}

// QuickOptions returns a fast, tiny configuration for functional tests.
func QuickOptions() Options {
	return Options{Runs: 3, Scale: 0.1, LatencyMode: fabric.Off, Nodes: 4}
}

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	Table *harness.Table
	Notes []string
}

func (r *Report) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// scaleInt scales a count, keeping at least min.
func scaleInt(v int, scale float64, min int) int {
	n := int(float64(v) * scale)
	if n < min {
		n = min
	}
	return n
}

// lsConfig returns the LSBench configuration at the experiment scale.
// Defaults are 1/10 of scale 1 relative to the generator's own defaults so
// experiments finish promptly; Scale raises them.
func lsConfig(o Options) lsbench.Config {
	return lsbench.Config{
		Users:               scaleInt(600, o.Scale, 40),
		FollowsPerUser:      scaleInt(12, o.Scale, 4),
		InitialPostsPerUser: scaleInt(8, o.Scale, 2),
		Hashtags:            scaleInt(48, o.Scale, 8),
		RatePO:              scaleInt(500, o.Scale, 50),
		RatePOL:             scaleInt(4300, o.Scale, 100),
		RatePH:              scaleInt(500, o.Scale, 50),
		RatePHL:             scaleInt(375, o.Scale, 40),
		RateGPS:             scaleInt(1000, o.Scale, 50),
	}
}

// rateScaled multiplies an LSBench config's stream rates (Fig. 13).
func rateScaled(c lsbench.Config, mult float64) lsbench.Config {
	c.RatePO = scaleInt(c.RatePO, mult, 1)
	c.RatePOL = scaleInt(c.RatePOL, mult, 1)
	c.RatePH = scaleInt(c.RatePH, mult, 1)
	c.RatePHL = scaleInt(c.RatePHL, mult, 1)
	c.RateGPS = scaleInt(c.RateGPS, mult, 1)
	return c
}

// engineConfig builds the Wukong+S configuration for an experiment.
func engineConfig(o Options, nodes int) core.Config {
	return core.Config{
		Nodes:          nodes,
		WorkersPerNode: 4,
		Fabric:         fabric.Config{Nodes: nodes, Mode: o.LatencyMode, RDMA: true},
	}
}

// warmTime is how far experiments drive the logical clock before measuring:
// windows are 1 s, so 2 s fills every window and stabilizes all batches.
const warmTime rdf.Timestamp = 2000

// lsStart is the start vertex of L1–L3, chosen so that their windows at
// warmTime are not empty at QuickOptions scale nor at scale 1 (most users
// post nothing in a given second).
const lsStart = 13

// geoMeanOf returns the geometric mean over L1–L6 of a latency map.
func geoMeanOf(lats map[int]time.Duration) time.Duration {
	var all []time.Duration
	for n := 1; n <= 6; n++ {
		if lats[n] > 0 {
			all = append(all, lats[n])
		}
	}
	return harness.GeoMean(all)
}
