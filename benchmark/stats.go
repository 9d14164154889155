package main

import (
	"math"
	"sort"
)

// summary is how every measured metric is reported: the median with
// its quartiles and the number of samples behind them.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quartiles returns the first quartile, median and third quartile of
// values exactly as Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method) computes them, because that is the
// routine the acceptance driver applies to ten runs of this benchmark:
// a spread computed here means the same thing there. One value is its
// own quartiles; no values give NaN.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return values[0], values[0], values[0]
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(unit string, values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(values)}
}

// constant reports a value that is exact for the run (a count, a
// deterministic accuracy) rather than sampled.
func constant(unit string, v float64) summary {
	return summary{Unit: unit, Median: v, Q1: v, Q3: v, N: 1}
}

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}
