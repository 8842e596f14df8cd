package main

import (
	"math"
	"sort"
)

// numWindows is how many equal slices a measured phase is cut into. A
// latency statistic is computed inside every window and the phase
// reports the median of the window values, so a noisy-neighbour burst
// that lands in one window cannot move the result.
const numWindows = 5

// percentile returns the p-quantile (p in [0,1]) of an ascending slice
// by linear interpolation between closest ranks; NaN when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the statistic the acceptance gate applies
// to repeated runs. Quartiles follow Python's statistics.quantiles(n=4)
// default ("exclusive") method so the two computations agree. Fewer
// than two values, or a zero median, give 0.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
