package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before
// the benchmark reports it: with fewer, the "percentile" is one or two
// extreme samples and swings from run to run.
const minBeyond = 10

// quantile returns the p-quantile of sorted (ascending) samples by
// linear interpolation between order statistics — a weighted average
// of at most two sorted samples, so the same ordered-measure family as
// the median.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples strictly above the p-quantile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)-1e-9))
}

// supported reports whether n samples carry the p-quantile: at least
// minBeyond samples lie beyond it.
func supported(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// median of unsorted samples (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// geoMean is the geometric mean of positive values; NaN if any value
// is not positive or the slice is empty.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean is the arithmetic mean (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// classSamples holds one statement class's samples of one measure.
type classSamples struct {
	Class   string
	Samples []float64
}

// classQuantile combines the p-quantile of every class by geometric
// mean, so that a quantile never falls into the gap between classes of
// different cost: each class contributes its own quantile, and a
// change in the mix of classes cannot move the result. ok is false
// when some class has fewer than minBeyond samples beyond p: the value
// is then an extreme order statistic rather than a percentile, and the
// report flags it. v is NaN only when some class has no samples.
func classQuantile(classes []classSamples, p float64) (v float64, ok bool) {
	if len(classes) == 0 {
		return math.NaN(), false
	}
	ok = true
	qs := make([]float64, 0, len(classes))
	for _, c := range classes {
		if len(c.Samples) == 0 {
			return math.NaN(), false
		}
		ok = ok && supported(len(c.Samples), p)
		s := append([]float64(nil), c.Samples...)
		sort.Float64s(s)
		qs = append(qs, quantile(s, p))
	}
	return geoMean(qs), ok
}
