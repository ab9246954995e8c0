package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is how every timing is reported: the median, the highest
// percentile that still has at least ten samples beyond it (the tail is a
// diagnostic, never a gated metric), the mean and the sample count.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	Mean  float64 `json:"mean"`
	TailQ float64 `json:"tail_q,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// percentile returns the q-quantile of an ascending slice by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1 // 0.9*100 is 90.00000000000001
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailQuantile picks the highest of the usual tail percentiles that has at
// least ten of n samples beyond it; ok is false when even p90 has fewer.
func tailQuantile(n int) (q float64, ok bool) {
	for _, c := range []float64{0.9999, 0.999, 0.99, 0.95, 0.9} {
		if float64(n)*(1-c) >= 10-1e-9 {
			return c, true
		}
	}
	return 0, false
}

// summarize sorts xs in place.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs), P50: percentile(xs, 0.5)}
	for _, x := range xs {
		s.Mean += x
	}
	if len(xs) > 0 {
		s.Mean /= float64(len(xs))
	}
	if q, ok := tailQuantile(len(xs)); ok {
		s.TailQ, s.Tail = q, percentile(xs, q)
	}
	return s
}

func (s summary) String() string {
	if s.TailQ == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d)", s.P50, s.N)
	}
	return fmt.Sprintf("p50 %.4g  p%g %.4g (n=%d)", s.P50, s.TailQ*100, s.Tail, s.N)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// worseBy is the share of base by which val is worse, negative when it is
// better. "higher" metrics get worse by falling.
func worseBy(better string, base, val float64) float64 {
	if base == 0 {
		if val == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (base - val) / base
	}
	return (val - base) / base
}

// agrees reports whether two runs of the same code agree on a metric: in
// neither direction is one worse than the other by more than the bound.
func agrees(better string, a, b, bound float64) bool {
	return worseBy(better, a, b) <= bound && worseBy(better, b, a) <= bound
}
