package main

import (
	"testing"
	"time"
)

func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},   // 9.5 beyond the median
		{20, 50, true},   // exactly 10 beyond the median
		{99, 50, true},   // 9.9 beyond p90
		{100, 90, true},  // exactly 10 beyond p90
		{199, 90, true},  // 9.95 beyond p95
		{200, 95, true},  // exactly 10 beyond p95
		{999, 95, true},  // 9.99 beyond p99
		{1000, 99, true}, // exactly 10 beyond p99
		{10000, 99.9, true},
		{100000, 99.99, true},
		{10000000, 99.99, true}, // the ladder tops out
	}
	for _, c := range cases {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestSummarizeReportsTopPercentile(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(200 - i)
	}
	s := summarize(v, "ms")
	if s.N != 200 || s.TopP != 95 || s.TopVal != 190 || s.P90 != 180 || s.P50 != 100.5 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSlicedIgnoresOneSlowSlice(t *testing.T) {
	const window = 10 * time.Second
	var samples []sliceSample
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * window / 1000
		v := float64(1 + i%10) // 1..10 in every slice
		if at < window/slices {
			v *= 100 // the first slice is a stall
		}
		samples = append(samples, sliceSample{at: at, value: v})
	}
	samples = append(samples, sliceSample{at: window + time.Second, value: 5}) // past the end: last slice
	rate, p50, p90 := sliced(samples, window)
	if rate != 100 || p50 != 5.5 || p90 != 9 {
		t.Errorf("sliced = %v/s, p50 %v, p90 %v; want 100/s, 5.5, 9", rate, p50, p90)
	}
}
