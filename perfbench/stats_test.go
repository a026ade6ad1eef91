package main

import (
	"math"
	"testing"
)

func seq(n int) sample {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return newSample(xs)
}

func TestPercentileNearestRank(t *testing.T) {
	s := newSample([]float64{5, 1, 4, 2, 3})
	for _, c := range []struct{ p, want float64 }{{20, 1}, {50, 3}, {60, 3}, {61, 4}, {100, 5}} {
		if got := s.at(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (sample{}).at(50); got != 0 {
		t.Errorf("empty sample p50 = %v", got)
	}
}

// The reported tail is p99 once at least ten samples lie beyond it, and
// otherwise the highest percentile that still has ten beyond it.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		want    float64
		wantPct float64
	}{
		{1000, 990, 99},
		{2000, 1980, 99},
		{500, 490, 98},
		{100, 90, 90},
		{21, 11, 100 * 11.0 / 21},
		{20, 10, 50}, // too small for a tail: the median
	} {
		v, pct := seq(c.n).tail()
		if v != c.want || pct != c.wantPct {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", c.n, v, pct, c.want, c.wantPct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if c.n > 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

// The rate search lands on the highest ladder rung at or below a sharp
// capacity, one rung (≈3.3%) of resolution, in steps probes; the bottom
// rung costs one more, probed only when every other probe failed.
func TestRateSearchResolution(t *testing.T) {
	step := math.Pow(serveRateHi/serveRateLo, 1/float64(int(1)<<serveSearchSteps))
	for _, capacity := range []float64{100, 250, 260, 499, 500, 731, 1999, 5000} {
		probes := 0
		got := rateSearch(serveRateLo, serveRateHi, serveSearchSteps, func(k int, rate float64) (bool, float64) {
			if k != probes {
				t.Errorf("capacity %v: probe %d has index %d", capacity, probes, k)
			}
			probes++
			return rate <= capacity, rate
		})
		want := serveSearchSteps
		if capacity < serveRateLo*step {
			want++
		}
		if probes != want {
			t.Errorf("capacity %v: %d probes, want %d", capacity, probes, want)
		}
		switch {
		case capacity < serveRateLo:
			if got != 0 {
				t.Errorf("capacity %v: got %v, want 0", capacity, got)
			}
		case capacity >= serveRateHi:
			if want := serveRateHi / step; math.Abs(got-want) > 1e-9 {
				t.Errorf("capacity %v: got %v, want the top probed rung %v", capacity, got, want)
			}
		case got > capacity || got*step <= capacity*(1-1e-12):
			t.Errorf("capacity %v: got %v, not the rung just below it", capacity, got)
		}
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3}, 2.5},
		{[]float64{9, 1, 5, 5, 5, 5, -100}, 4.2},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4.5},
	} {
		if got := iqMean(c.xs); got != c.want {
			t.Errorf("iqMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
