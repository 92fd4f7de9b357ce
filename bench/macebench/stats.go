package main

import (
	"math"
	"sort"
)

// summary is what the benchmark reports for one metric of one workload: the
// median of n repetitions with its quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize returns the median and quartiles of vals. Quartiles follow
// Python's statistics.quantiles(vals, n=4) (the "exclusive" method), so the
// spreads printed here are the ones an outside harness computes from the
// same numbers. Fewer than two values have no spread: the quartiles
// collapse onto the single value.
func summarize(vals []float64) summary {
	s := summary{N: len(vals)}
	if len(vals) == 0 {
		return s
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	if len(v) == 1 {
		s.Median, s.Q1, s.Q3 = v[0], v[0], v[0]
		return s
	}
	q := func(i int) float64 {
		m := len(v) + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j = 1
		}
		if j > len(v)-1 {
			j = len(v) - 1
		}
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	s.Q1, s.Median, s.Q3 = q(1), q(2), q(3)
	return s
}

func median(vals []float64) float64 { return summarize(vals).Median }

// spread is the interquartile range as a share of the median: the
// run-to-run noise a bound has to be wider than.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// Verdicts of comparing set B against set A on one metric.
const (
	verdictOK         = "ok"         // within the bound, and the bound is wider than the noise
	verdictRegressed  = "regressed"  // median worsened by more than the bound
	verdictUnresolved = "unresolved" // within the bound, but the noise is wider than the bound
)

// worsening is how far b's median moved in the bad direction, as a share of
// a's median (negative: it improved).
func worsening(a, b summary, m metricSpec) float64 {
	if a.Median == 0 {
		return 0
	}
	d := (b.Median - a.Median) / math.Abs(a.Median)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// compare judges set b against set a under the metric's bound. A change no
// larger than the bound is only reported as ok when both sets' quartile
// ranges are narrower than the bound; otherwise the two cannot be told
// apart and the honest answer is unresolved.
func compare(a, b summary, m metricSpec) string {
	if worsening(a, b, m) > m.Bound {
		return verdictRegressed
	}
	if a.spread() > m.Bound || b.spread() > m.Bound {
		return verdictUnresolved
	}
	return verdictOK
}
