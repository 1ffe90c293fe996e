package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric with its unit and, for end-to-end metrics, the
// relative worsening that counts as a regression. BENCHMARK.json repeats this
// table; a test keeps the two identical.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// The bounded metrics; README.md defines each. Every time metric is reported
// at reference speed: the measured value divided by the yardstick factor
// (yardstick.go) named here, with the measured value printed beside it as
// "raw". Bounds are three times the interquartile spread seen over ten seeds,
// at most 0.25, and setup_s has the largest.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},                       // wall factor, per set-up
	{name: "query_p50_us", unit: "us", better: "lower", bound: 0.25},                 // cpu factor
	{name: "query_sub_ms_ratio", unit: "ratio", better: "higher", bound: 0.05},       // the 1 ms limit is scaled by the cpu factor
	{name: "scan_p50_us", unit: "us", better: "lower", bound: 0.25},                  // cpu factor
	{name: "fresh_p50_ms", unit: "ms", better: "lower", bound: 0.25},                 // cpu factor
	{name: "write_p50_us", unit: "us", better: "lower", bound: 0.25},                 // write factor
	{name: "ingest_ktuples_per_s", unit: "ktuples/s", better: "higher", bound: 0.25}, // cpu factor
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},                // cpu factor
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.10},                       // not scaled
}

// failedRatioLimit is the absolute bound on failed/attempted. The ratio is
// reported through the result's attempted and failed counts, not as a bounded
// metric, because on a healthy run it is exactly 0.
const failedRatioLimit = 0.001

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Raw   float64 `json:"raw,omitempty"`  // as measured, before scaling to reference speed
	N     int     `json:"n,omitempty"`    // samples behind a median
	Tail  string  `json:"tail,omitempty"` // highest supported percentile, informational
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	MeasuredS  float64  `json:"measured_s"`
	LeadRows   int64    `json:"lead_rows"`
	Checked    int      `json:"checked"`
	Mismatches []string `json:"mismatches,omitempty"`
	Errors     []string `json:"errors,omitempty"`
	Stalls     int      `json:"stalls_over_1s"`
	Steal      float64  `json:"host_steal_ratio"`
	PSI        float64  `json:"host_psi_cpu_some_ratio"`
	ScriptHash string   `json:"script_hash,omitempty"`

	CPUFactor   float64 `json:"yardstick_cpu_factor"`
	WriteFactor float64 `json:"yardstick_write_factor"`
	YardSlices  int     `json:"yardstick_slices"`
}

func (r *result) failedRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// ok reports whether the run may exit 0: outputs verified and failures
// within the absolute limit.
func (r *result) ok() bool { return r.Correct && r.failedRatio() <= failedRatioLimit }

// contractLine renders the one-line JSON object the benchmark contract wants
// as the last line of standard output.
func (r *result) contractLine(defs []metricDef) string {
	type cv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]cv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]cv{}}
	for _, d := range defs {
		v := r.Metrics[d.name]
		out.Metrics[d.name] = cv{v.Value, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// print writes the run's metrics by name and unit.
func (r *result) print(w io.Writer, defs []metricDef) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  %s ==\n", r.Workload, r.Seed, kind)
	for _, d := range defs {
		v := r.Metrics[d.name]
		line := fmt.Sprintf("%-36s %14.4f %-10s", d.name, v.Value, d.unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%-7d", v.N)
		}
		if v.Raw != 0 {
			line += fmt.Sprintf(" raw=%-11.4f", v.Raw)
		}
		if v.Tail != "" {
			line += " " + v.Tail
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "%-36s %14.6f %-10s attempted=%d failed=%d (limit %.3f absolute)\n",
		"failed_ratio", r.failedRatio(), "ratio", r.Attempted, r.Failed, failedRatioLimit)
	fmt.Fprintf(w, "measured phase %.1fs, lead rows %d, reference check %d results, %d mismatches\n",
		r.MeasuredS, r.LeadRows, r.Checked, len(r.Mismatches))
	fmt.Fprintf(w, "ops over 1 s: %d; noise canary: host.steal_ratio %.4f, host.psi_cpu_some_ratio %.4f\n", r.Stalls, r.Steal, r.PSI)
	fmt.Fprintf(w, "yardstick factors (1 = reference speed): cpu %.3f, write %.3f over %d slices\n", r.CPUFactor, r.WriteFactor, r.YardSlices)
	if r.ScriptHash != "" {
		fmt.Fprintf(w, "script sha256 %s\n", r.ScriptHash)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "MISMATCH: %s\n", m)
	}
}

// merged concatenates duration samples of the connections that have them.
func merged(parts ...[]time.Duration) []time.Duration {
	var out []time.Duration
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// p50 builds a median value with its sample count and supported tail.
func p50(samples []float64, unit string) value {
	return value{Value: median(samples), Unit: unit, N: len(samples), Tail: tailOf(samples).String()}
}

// scaled divides a measured time (or, for a rate, multiplies it) by a
// yardstick factor and keeps the measured value beside it.
func scaled(v value, factor float64, rate bool) value {
	v.Raw = v.Value
	if rate {
		v.Value *= factor
	} else {
		v.Value /= factor
	}
	return v
}

// endToEndMetrics turns a measured phase into the nine bounded metrics.
// setups holds each set-up's time, already at reference speed.
func endToEndMetrics(s *session, m *measured, setups, setupsRaw []float64) map[string]value {
	lead, fol := m.lead, m.follower
	cpuF, writeF := m.yard.cpuFactor(), m.yard.writeFactor()
	sel := selective(m)
	// The paper's 1 ms limit, at reference speed: on a host running at
	// factor f a probe has f milliseconds.
	subMS, subMSRaw := 0, 0
	for _, us := range sel {
		if us < 1000*cpuF {
			subMS++
		}
		if us < 1000 {
			subMSRaw++
		}
	}
	// Unissued lead probes and failed probes are misses.
	unissuedSel := (len(s.sc.rounds) - m.rounds) * s.sc.spec.probesPerRound * 3 / 4
	selAttempted := len(sel) + lead.selFailed + fol.selFailed + unissuedSel

	var tuples int
	for i := 0; i < m.rounds; i++ {
		tuples += s.sc.rounds[i].tick.tuples()
	}
	out := map[string]value{
		"setup_s":      {Value: median(setups), Raw: median(setupsRaw), Unit: "s", N: len(setups)},
		"query_p50_us": scaled(p50(sel, "us"), cpuF, false),
		"scan_p50_us":  scaled(p50(usOf(merged(lead.scan, fol.scan)), "us"), cpuF, false),
		"fresh_p50_ms": scaled(p50(msOf(lead.fresh), "ms"), cpuF, false),
		"write_p50_us": scaled(p50(usOf(lead.emit), "us"), writeF, false),
	}
	if selAttempted > 0 {
		out["query_sub_ms_ratio"] = value{Value: float64(subMS) / float64(selAttempted),
			Raw: float64(subMSRaw) / float64(selAttempted), Unit: "ratio", N: selAttempted}
	}
	if m.rounds > 0 {
		tickS := median(msOf(lead.tick)) / 1000
		out["ingest_ktuples_per_s"] = scaled(value{Value: float64(tuples) / float64(m.rounds) / tickS / 1000,
			Unit: "ktuples/s", N: m.rounds}, cpuF, true)
	}
	var cpu, rss float64
	for i := range m.cpuUser {
		cpu += m.cpuUser[i] + m.cpuSys[i]
		rss += m.hwmMB[i]
	}
	done := lead.attempted - lead.failed + fol.attempted - fol.failed
	if done > 0 {
		out["cpu_us_per_op"] = scaled(value{Value: cpu * 1e6 / float64(done), Unit: "us", N: done}, cpuF, false)
	}
	out["rss_mb"] = value{Value: rss, Unit: "MB", N: len(m.hwmMB)}
	return out
}

// fill copies the run's accounting into the result.
func (r *result) fill(m *measured, v *verdict) {
	recs := []*recorder{m.lead, m.follower}
	r.Attempted = m.unissued + v.checked
	r.Failed = m.unissued + v.mismatches
	seen := map[string]bool{}
	for _, rec := range recs {
		r.Attempted += rec.attempted
		r.Failed += rec.failed
		r.Stalls += rec.stalls
		for _, e := range rec.errs {
			if !seen[e] && len(r.Errors) < 5 {
				seen[e] = true
				r.Errors = append(r.Errors, e)
			}
		}
	}
	r.Correct = v.mismatches == 0
	r.Mismatches = v.first
	r.Checked = v.checked
	r.LeadRows = m.lead.rows
	r.MeasuredS = m.wall.Seconds()
	r.Steal, r.PSI = m.steal, m.psi
	r.CPUFactor, r.WriteFactor, r.YardSlices = m.yard.cpuFactor(), m.yard.writeFactor(), m.yard.slices
}

// resultSet is what -repeat writes and -compare reads.
type resultSet struct {
	Runs []*result `json:"runs"`
}

// cell is one (workload, metric) pair across repeated runs.
type cell struct {
	workload string
	def      metricDef
	values   []float64
}

func (c cell) median() float64 { return median(c.values) }

// spread is the interquartile distance as a share of the median.
func (c cell) spread() float64 {
	q1, q3 := quartiles(c.values)
	if m := c.median(); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func (rs *resultSet) cells() []cell {
	var out []cell
	for _, sp := range specs {
		for _, d := range endToEnd {
			c := cell{workload: sp.name, def: d}
			for _, r := range rs.Runs {
				if r.Workload == sp.name && !r.Traced {
					if v, ok := r.Metrics[d.name]; ok {
						c.values = append(c.values, v.Value)
					}
				}
			}
			if len(c.values) > 0 {
				out = append(out, c)
			}
		}
	}
	return out
}

// printSpread writes, per cell, median, quartiles and (max-min)/median beside
// the host's steal ratio, so a noisy window can be told from a noisy metric.
func (rs *resultSet) printSpread(w io.Writer) {
	var steal []float64
	for _, r := range rs.Runs {
		steal = append(steal, r.Steal)
	}
	fmt.Fprintf(w, "\n== spread over %d runs (host.steal_ratio median %.4f, max %.4f) ==\n",
		len(rs.Runs), median(steal), slices.Max(steal))
	fmt.Fprintf(w, "%-19s %-22s %3s %12s %12s %12s %9s %9s %6s\n",
		"workload", "metric", "n", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, c := range rs.cells() {
		q1, q3 := quartiles(c.values)
		s := sortedCopy(c.values)
		rng := 0.0
		if m := c.median(); m != 0 {
			rng = (s[len(s)-1] - s[0]) / m
		}
		flag := ""
		if c.def.name != "setup_s" && c.spread() > c.def.bound/3 {
			flag = " *"
		}
		fmt.Fprintf(w, "%-19s %-22s %3d %12.4f %12.4f %12.4f %9.4f %9.4f %6.2f%s\n",
			c.workload, c.def.name, len(c.values), c.median(), q1, q3, c.spread(), rng, c.def.bound, flag)
	}
	fmt.Fprintln(w, "(* = interquartile spread above a third of the bound)")
	// The script is fixed work: the same seed must return the same rows.
	for _, sp := range specs {
		rows := map[int64]bool{}
		for _, r := range rs.Runs {
			if r.Workload == sp.name {
				rows[r.LeadRows] = true
			}
		}
		if len(rows) > 1 {
			fmt.Fprintf(w, "WARNING: %s returned %d different lead row counts for one seed\n", sp.name, len(rows))
		} else if len(rows) == 1 {
			fmt.Fprintf(w, "%s: the lead read the same number of rows on every run\n", sp.name)
		}
	}
}

// compare checks that b's medians are within each cell's bound of a's, in
// both directions (two sets of the same code must agree). It returns the
// cells that disagree.
func compare(w io.Writer, a, b *resultSet) []string {
	bc := map[string]cell{}
	for _, c := range b.cells() {
		bc[c.workload+"/"+c.def.name] = c
	}
	var bad []string
	fmt.Fprintf(w, "%-19s %-22s %12s %12s %9s %6s\n", "workload", "metric", "median A", "median B", "rel diff", "bound")
	for _, ca := range a.cells() {
		key := ca.workload + "/" + ca.def.name
		cb, ok := bc[key]
		if !ok {
			bad = append(bad, key+" missing from second set")
			continue
		}
		ma, mb := ca.median(), cb.median()
		diff := 0.0
		if ma != 0 {
			diff = (mb - ma) / ma
		}
		mark := ""
		if diff > ca.def.bound || diff < -ca.def.bound {
			mark = "  DISAGREE"
			bad = append(bad, fmt.Sprintf("%s: %.4f vs %.4f (%+.1f%%, bound %.0f%%)", key, ma, mb, 100*diff, 100*ca.def.bound))
		}
		fmt.Fprintf(w, "%-19s %-22s %12.4f %12.4f %+9.4f %6.2f%s\n", ca.workload, ca.def.name, ma, mb, diff, ca.def.bound, mark)
	}
	sort.Strings(bad)
	return bad
}
