// Command benchmark is the repository's one client-observed benchmark: it
// builds cmd/wukongsd, spawns real daemons on loopback, drives them through
// internal/client with a seeded fixed-work closed-loop script, checks the
// results against a reference evaluator and prints every metric by name.
//
//	go run ./benchmark                         all three workloads, end to end
//	go run ./benchmark -workload mixed-cluster -seed 7
//	go run ./benchmark -traced                 per-layer numbers from a traced run
//	go run ./benchmark -repeat 5 -out a.json   noise qualification
//	go run ./benchmark -compare a.json b.json  do two result sets agree?
//
// See README.md in this directory for the workloads and metric tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// setupsPerRun is how many times a run sets the workload up; setup_s is their
// median and the last one carries the measured phase.
const setupsPerRun = 3

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all); with it the last output line is the contract's JSON object")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same script")
		seconds  = flag.Int("seconds", nominalSeconds, "nominal measured-phase length; scales the frozen round counts linearly")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = untraced run printing the end-to-end metrics")
		traced   = flag.Bool("traced", false, "same as -trace 1")
		repeat   = flag.Int("repeat", 1, "run the whole benchmark this many times and print the per-cell spread")
		out      = flag.String("out", "", "with -repeat: write the result set to this file")
		cmp      = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as generated from this package's tables and exit")
	)
	yardServer := flag.String("yardstick-server", "", "internal: run as the host-speed reference server with its file in this directory (see yardstick.go)")
	flag.Parse()
	if *yardServer != "" {
		os.Exit(serveYardstick(*yardServer))
	}
	if *manifest {
		fmt.Println(manifestJSON())
		return
	}
	os.Exit(run(*workload, *seed, *seconds, *trace == 1 || *traced, *repeat, *out, *cmp, flag.Args()))
}

func run(workload string, seed int64, seconds int, traced bool, repeat int, out string, cmp bool, args []string) (code int) {
	if cmp {
		return runCompare(args)
	}
	if len(args) > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %v\n", args)
		return 2
	}
	if seconds < 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1")
		return 2
	}
	todo := specs
	if workload != "" {
		sp := specByName(workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", workload)
			return 2
		}
		todo = []*spec{sp}
	}

	// Every exit path — return, failure, signal — kills the daemons and
	// removes the scratch directories.
	defer runCleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sig
		runCleanup()
		os.Exit(130)
	}()

	work := ".bench_build"
	bin, err := buildDaemon(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// A run that was SIGKILLed could not clean up after itself; its daemons
	// died with it (Pdeathsig), its scratch directory is removed here.
	if err := os.RemoveAll(filepath.Join(work, "tmp")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	yard, err := startYardstick(filepath.Join(work, "tmp"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "yardstick:", err)
		return 1
	}
	e := env{bin: bin, workDir: filepath.Join(work, "tmp"), outDir: filepath.Join("benchmark", "out"), yard: yard}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	set := &resultSet{}
	var last *result
	for rep := 0; rep < repeat; rep++ {
		for _, sp := range todo {
			var r *result
			if traced {
				r, err = runTraced(e, sp, seed, seconds)
			} else {
				r, err = runUntraced(e, sp, seed, seconds, workload == "")
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", sp.name, err)
				return 1
			}
			r.print(os.Stdout, defs)
			if !r.ok() {
				code = 1
			}
			set.Runs = append(set.Runs, r)
			last = r
		}
	}
	if repeat > 1 && !traced {
		set.printSpread(os.Stdout)
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if workload != "" && repeat == 1 && code == 0 {
		fmt.Println(last.contractLine(defs))
	}
	return code
}

// manifestJSON renders BENCHMARK.json from the workload and metric tables, so
// the file the driver reads cannot drift from what the program prints.
func manifestJSON() string {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: nominalSeconds}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, workload{s.name, s.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
		return 2
	}
	var sets [2]resultSet
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			return 2
		}
	}
	bad := compare(os.Stdout, &sets[0], &sets[1])
	for _, b := range bad {
		fmt.Println("disagree:", b)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Println("the two result sets agree within every cell's bound")
	return 0
}

// runUntraced is one untraced run of one workload: several set-ups (the last
// one carries the measured phase), the reference check, the end-to-end metrics.
func runUntraced(e env, sp *spec, seed int64, seconds int, withHash bool) (*result, error) {
	sc := buildScript(sp.scaled(seconds, nominalSeconds), seed)
	var setups, setupsRaw []float64
	var s *session
	for i := 0; i < setupsPerRun; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = setUp(e, sc, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.setupS)
		setupsRaw = append(setupsRaw, s.setupRawS)
	}
	defer s.close()
	m, err := s.measure(time.Duration(seconds) * time.Second)
	if err != nil {
		return nil, err
	}
	v, err := s.verify()
	if err != nil {
		return nil, fmt.Errorf("reference check: %w", err)
	}
	r := &result{Workload: sp.name, Seed: seed, Seconds: seconds, Metrics: endToEndMetrics(s, m, setups, setupsRaw)}
	r.fill(m, v)
	if withHash {
		r.ScriptHash = sc.hash()
	}
	return r, nil
}
