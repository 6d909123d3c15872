package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of v:
// the smallest sample with at least p % of the samples at or below it.
// It is always one of the samples, never an interpolation.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(v []float64) float64 { return percentile(v, 50) }

// samplesBeyond is how many of n samples lie strictly beyond the
// nearest-rank p-th percentile. A percentile is only reported as reliable
// when at least tailSamples samples lie beyond it.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

const tailSamples = 10

// tailSegments is how many consecutive pieces of a run steadyP90 looks at.
const tailSegments = 5

// steadyP90 is the p90 the benchmark reports. v holds one run's latencies
// in the order the agreements ran. It is cut into up to tailSegments
// consecutive segments of at least tailSamples samples each, and the value
// is the median of the segments' nearest-rank p90s; the second result is
// the number of segments. This host slows for a few seconds at a time: a
// burst that covers a tenth of a 20 s window takes over the plain p90 of
// the whole run, but lands in one or two segments and leaves their median
// alone, whereas a change to the program that fattens the tail fattens it
// in every segment.
func steadyP90(v []float64) (float64, int) {
	k := min(tailSegments, len(v)/tailSamples)
	if k < 2 {
		return percentile(v, 90), 1
	}
	p90s := make([]float64, k)
	for i := range p90s {
		p90s[i] = percentile(v[i*len(v)/k:(i+1)*len(v)/k], 90)
	}
	return median(p90s), k
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartileSpread is the distance between the first and third quartile of v
// as a share of its median, with quartiles as Python's
// statistics.quantiles(v, n=4) gives them (the "exclusive" method) — the
// same rule the driver applies to ten runs of this benchmark.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
