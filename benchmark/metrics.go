package main

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/client"
)

// scrape reads each daemon's METRICS registry (Prometheus text over the line
// protocol) into name → value, labels kept as part of the name.
func scrape(cs []*client.Client) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(cs))
	for i, c := range cs {
		lines, err := c.Metrics()
		if err != nil {
			return nil, err
		}
		out[i] = parseMetrics(lines)
	}
	return out, nil
}

func parseMetrics(lines []string) map[string]float64 {
	m := make(map[string]float64, len(lines))
	for _, line := range lines {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		m[strings.TrimPrefix(line[:sp], metricPrefix)] = v
	}
	return m
}

// metricPrefix is obs.Default's export prefix; names are kept without it.
const metricPrefix = "wukongs_"

// family sums every series of a metric family: the bare name and all of its
// labelled variants.
func family(m map[string]float64, name string) float64 {
	var sum float64
	for k, v := range m {
		if base, _, _ := strings.Cut(k, "{"); base == name {
			sum += v
		}
	}
	return sum
}

// delta is family(after) - family(before).
func delta(before, after map[string]float64, name string) float64 {
	return family(after, name) - family(before, name)
}

// histQuantile reads quantile q off the delta of a cumulative-bucket
// histogram family (name_bucket{le="..."}), interpolating inside the bucket.
// It returns 0 when the histogram recorded nothing in between.
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range after {
		base, labels, ok := strings.Cut(k, "{")
		if !ok || base != name+"_bucket" {
			continue
		}
		i := strings.Index(labels, `le="`)
		if i < 0 {
			continue
		}
		les := labels[i+4:]
		les = les[:strings.IndexByte(les, '"')]
		if les == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(les, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	total := delta(before, after, name+"_count")
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	want := q * total
	prevLE, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= want {
			if b.cum == prevCum {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(want-prevCum)/(b.cum-prevCum)
		}
		prevLE, prevCum = b.le, b.cum
	}
	return bs[len(bs)-1].le
}
