package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the open-loop generator's time source; tests inject a fake.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func newWallClock() wallClock { return wallClock{time.Now()} }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// poissonSchedule returns the due times of round(rate·dur) arrivals
// spread uniformly at random over [0, dur): a Poisson process at the
// given rate conditioned on its count, so every seed offers the same
// number of ops.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	due := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(dur))
	}
	slices.Sort(due)
	return due
}

// timing is one open-loop op. Latency runs from Due, so a stall also
// charges the wait it imposes on the ops queued behind it.
type timing struct {
	Due, Sent, Done time.Duration
	// Backlog is how long the op waited for a free connection; Late is
	// how much later than that the generator sent it (its own lag).
	Backlog, Late time.Duration
	Ran           bool
}

func (t timing) latency() time.Duration { return t.Done - t.Due }

// openLoop sends op i at due[i] over conns connections, each carrying
// one op at a time. An op due while every connection is busy waits for
// the first free one. do(i, conn) performs op i on connection conn and
// must be safe to call from conns goroutines at once. Once stop
// reports true, ops not yet sent are skipped (their Ran is false).
func openLoop(clk clock, due []time.Duration, conns int, do func(i, conn int), stop func() bool) []timing {
	out := make([]timing, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := clk.now()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || stop() {
					return
				}
				clk.sleepUntil(due[i])
				t := &out[i]
				t.Due = due[i]
				t.Sent = clk.now()
				ready := max(due[i], free)
				t.Backlog = ready - due[i]
				t.Late = t.Sent - ready
				do(i, c)
				t.Done = clk.now()
				t.Ran = true
				free = t.Done
			}
		}()
	}
	wg.Wait()
	return out
}
