package main

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to; oversleep models a generator
// that wakes late.
type fakeClock struct {
	mu        sync.Mutex
	t         time.Duration
	oversleep time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t + c.oversleep
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

const msec = time.Millisecond

// A stall on one op is charged to the ops queued behind it: their
// latency runs from when they were due, not from when they were sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{}
	due := []time.Duration{0, 10 * msec, 20 * msec, 30 * msec}
	service := []time.Duration{5 * msec, 25 * msec, 5 * msec, 5 * msec}
	got := openLoop(clk, due, 1, func(i, _ int) { clk.advance(service[i]) }, func() bool { return false })
	want := []struct{ sent, lat, backlog time.Duration }{
		{0, 5 * msec, 0},
		{10 * msec, 25 * msec, 0},
		{35 * msec, 20 * msec, 15 * msec},
		{40 * msec, 15 * msec, 10 * msec},
	}
	for i, w := range want {
		g := got[i]
		if !g.Ran || g.Sent != w.sent || g.latency() != w.lat || g.Backlog != w.backlog || g.Late != 0 {
			t.Errorf("op %d: %+v (latency %v), want sent %v latency %v backlog %v late 0",
				i, g, g.latency(), w.sent, w.lat, w.backlog)
		}
	}
}

// A generator that wakes late is charged as Late, separately from the
// backlog the system imposed, and the lag counts in the latency.
func TestOpenLoopLateness(t *testing.T) {
	clk := &fakeClock{oversleep: 2 * msec}
	due := []time.Duration{10 * msec, 20 * msec}
	got := openLoop(clk, due, 1, func(int, int) { clk.advance(msec) }, func() bool { return false })
	for i, g := range got {
		if g.Late != 2*msec || g.Backlog != 0 || g.latency() != 3*msec {
			t.Errorf("op %d: late %v backlog %v latency %v, want 2ms 0 3ms", i, g.Late, g.Backlog, g.latency())
		}
	}
}

func TestOpenLoopStopSkipsUnsent(t *testing.T) {
	clk := &fakeClock{}
	due := []time.Duration{0, msec, 2 * msec, 3 * msec}
	sent := 0
	got := openLoop(clk, due, 1, func(int, int) { sent++ }, func() bool { return sent >= 2 })
	for i, g := range got {
		if g.Ran != (i < 2) {
			t.Errorf("op %d ran = %v", i, g.Ran)
		}
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(newRNG(7, streamSchedule), 200, 2*time.Second)
	b := poissonSchedule(newRNG(7, streamSchedule), 200, 2*time.Second)
	c := poissonSchedule(newRNG(8, streamSchedule), 200, 2*time.Second)
	if len(a) != 400 || !slices.Equal(a, b) || slices.Equal(a, c) {
		t.Fatalf("schedule not seeded: len %d, same seed equal %v, other seed equal %v",
			len(a), slices.Equal(a, b), slices.Equal(a, c))
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 2*time.Second {
		t.Errorf("schedule not sorted within [0, 2s)")
	}
}
