package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the q-quantile of vals by linear interpolation between
// order statistics (the same rule as numpy's default).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// printMetrics logs every metric by name with its unit.
func printMetrics(logf func(string, ...any), m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("%-36s %s %s", n, fmt.Sprintf("%.6g", m[n].Value), m[n].Unit)
	}
}
