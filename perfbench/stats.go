package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// sample is a sorted set of measurements.
type sample []float64

func newSample(xs []float64) sample {
	s := append(sample(nil), xs...)
	sort.Float64s(s)
	return s
}

func durationsMS(ds []time.Duration) sample {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return newSample(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// at returns the nearest-rank p-th percentile (0 < p ≤ 100), or 0 for
// an empty sample.
func (s sample) at(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	r := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(r, 1), len(s))-1]
}

// tailRank returns the 1-based nearest rank of the highest percentile,
// at most the 99th, that still has minBeyond samples beyond it; the
// median's rank when the sample is too small for any tail.
func tailRank(n int) int {
	if n <= 2*minBeyond {
		return (n + 1) / 2
	}
	return min((99*n+99)/100, n-minBeyond)
}

// tail returns the value at tailRank and the percentile it stands for.
func (s sample) tail() (v, pct float64) {
	if len(s) == 0 {
		return 0, 0
	}
	r := tailRank(len(s))
	return s[r-1], 100 * float64(r) / float64(len(s))
}

// median of a few values.
func median(xs []float64) float64 { return newSample(xs).at(50) }

// iqMean is the mean of xs without its lowest and highest quarter (0
// when empty). A round disturbed by a stall drops out, as with the
// median, but when the host alternates between two speeds the result
// moves smoothly with the share of time spent in each, where the median
// jumps from one speed to the other.
func iqMean(xs []float64) float64 {
	s := newSample(xs)
	k := len(s) / 4
	mid := s[k : len(s)-k]
	if len(mid) == 0 {
		return 0
	}
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// rounds is how many equal parts a run's timed work is split into; each
// end-to-end timing is the interquartile mean over the parts.
const rounds = 7

// loopStats summarises a closed-loop caller's op latencies:
// interquartile means over rounds of each round's p50, tail (at
// percentile pct), ops per second, and ops per second within limit.
type loopStats struct{ p50, tail, pct, throughput, goodput float64 }

func summarizeRounds(parts [][]time.Duration, limit time.Duration) loopStats {
	var p50s, tails, pcts, thrs, goods []float64
	for _, p := range parts {
		s := durationsMS(p)
		tail, pct := s.tail()
		total, within := 0.0, 0
		for _, x := range s {
			total += x
			if x <= ms(limit) {
				within++
			}
		}
		p50s, tails, pcts = append(p50s, s.at(50)), append(tails, tail), append(pcts, pct)
		thrs = append(thrs, float64(len(s))/(total/1e3))
		goods = append(goods, float64(within)/(total/1e3))
	}
	return loopStats{iqMean(p50s), iqMean(tails), iqMean(pcts), iqMean(thrs), iqMean(goods)}
}
