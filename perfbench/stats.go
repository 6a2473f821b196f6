package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 < p < 1) of xs with the "exclusive"
// rule Python's statistics.quantiles uses by default: position (n+1)·p,
// interpolated between neighbours and clamped to the sample range. xs need
// not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s) == 1 {
		return s[0]
	}
	h := float64(len(s)+1) * p
	if h <= 1 {
		return s[0]
	}
	if h >= float64(len(s)) {
		return s[len(s)-1]
	}
	j := int(math.Floor(h))
	lo, hi, frac := s[j-1], s[j], h-float64(j)
	if frac == 0 || lo == hi {
		return lo // also keeps +Inf samples (failed requests) from making NaN
	}
	return lo + frac*(hi-lo)
}

// quartiles mirrors statistics.quantiles(xs, n=4) exactly, including its
// extrapolation at the ends for very small samples. It needs len(xs) >= 2.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// beyond counts the samples strictly above x.
func beyond(xs []float64, x float64) int {
	n := 0
	for _, v := range xs {
		if v > x {
			n++
		}
	}
	return n
}

// dist summarizes one sample: the median, the quartiles, and p99 with the
// number of samples beyond it. A p99 is only supported by the data when at
// least ten samples lie beyond it, i.e. from about 1000 samples up.
type dist struct {
	N               int
	Min, Q1, Median float64
	Q3, P99, Max    float64
	BeyondP99       int
	P99Supported    bool
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := sortedCopy(xs)
	d := dist{N: len(s), Min: s[0], Max: s[len(s)-1], Median: quantile(s, 0.5)}
	d.Q1, d.Q3 = d.Median, d.Median
	if len(s) >= 2 {
		d.Q1, _, d.Q3 = quartiles(s)
	}
	d.P99 = quantile(s, 0.99)
	d.BeyondP99 = beyond(s, d.P99)
	d.P99Supported = d.BeyondP99 >= 10
	return d
}

// durs converts durations to float64 in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
