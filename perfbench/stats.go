package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder is the set of percentiles a timing may be reported
// at, in increasing order.
var percentileLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it as measured rather than extrapolated.
const minTail = 10

// highestSupported returns the highest percentile of percentileLadder
// that leaves at least minTail of n samples beyond it, and false when
// not even the median does.
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		// Count with an integer comparison so that p90 of 100 samples
		// (exactly 10 beyond) is not lost to float rounding.
		if float64(n)*(100-p) >= float64(minTail)*100-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of values (the mean of the middle two for an
// even count); values is not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// latencySummary is a timing distribution reported the way the
// benchmark reports every timing: median, p90, the highest percentile
// with at least minTail samples beyond it, and the sample count.
type latencySummary struct {
	N      int
	P50    float64
	P90    float64
	P99    float64
	Max    float64
	TopP   float64 // highest supported percentile (0: none)
	TopVal float64
	Unit   string
}

func summarize(values []float64, unit string) latencySummary {
	s := latencySummary{N: len(values), Unit: unit}
	if len(values) == 0 {
		return s
	}
	sorted := sortedCopy(values)
	s.P50 = median(sorted)
	s.P90 = percentile(sorted, 90)
	s.P99 = percentile(sorted, 99)
	s.Max = sorted[len(sorted)-1]
	if p, ok := highestSupported(len(sorted)); ok {
		s.TopP, s.TopVal = p, percentile(sorted, p)
	}
	return s
}

// slices is how many equal parts of the timed window the robust
// estimates are taken over.
const slices = 10

// sliceSample is one timed operation placed in the window.
type sliceSample struct {
	at    time.Duration // when it completed (closed loop) or was due (open loop)
	value float64
}

// sliced splits samples into the window's slices and returns the median
// over slices of each slice's rate (samples per second), median and p90.
// A sample at or past the window's end belongs to the last slice. One
// slow stretch of a shared machine then moves one slice, not the figure.
func sliced(samples []sliceSample, window time.Duration) (rate, p50, p90 float64) {
	vals := make([][]float64, slices)
	for _, s := range samples {
		i := int(int64(s.at) * slices / int64(window))
		if i >= slices {
			i = slices - 1
		}
		if i < 0 {
			i = 0
		}
		vals[i] = append(vals[i], s.value)
	}
	var rates, p50s, p90s []float64
	for _, v := range vals {
		rates = append(rates, float64(len(v))/(window.Seconds()/slices))
		if len(v) > 0 {
			sorted := sortedCopy(v)
			p50s = append(p50s, median(sorted))
			p90s = append(p90s, percentile(sorted, 90))
		}
	}
	return median(rates), median(p50s), median(p90s)
}
