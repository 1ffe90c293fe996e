package main

import (
	"fmt"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the two middle values for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail is the highest percentile a sample supports: the value that still has
// at least ten samples beyond it. A tail read off fewer than ten samples is
// one stall away from any number, so nothing higher is printed.
type tail struct {
	pct   float64 // e.g. 99.83
	rank  int     // 1-based rank of value among n
	n     int
	value float64
	ok    bool // false when n <= 10: no percentile has ten samples beyond it
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n <= 10 {
		return tail{n: n}
	}
	s := sortedCopy(xs)
	rank := n - 10
	return tail{pct: 100 * float64(rank) / float64(n), rank: rank, n: n, value: s[rank-1], ok: true}
}

func (t tail) String() string {
	if !t.ok {
		return fmt.Sprintf("tail n/a (n=%d)", t.n)
	}
	return fmt.Sprintf("p%.2f=%.1f (rank %d/%d)", t.pct, t.value, t.rank, t.n)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance check applies to repeated runs. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// usOf / msOf convert duration samples for reporting.
func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
