package core

// Gray-failure tolerance for the distributed solver: end-to-end
// integrity verification of every interconnect transfer, an escalation
// ladder for transfers that stay corrupt, and hedged re-execution of
// straggling slabs. The fail-stop plane (device death → migration) in
// distributed.go assumes errors announce themselves; this file handles
// the failures that don't — links that silently corrupt, drop, or
// stall payloads, and devices that silently slow down.

import (
	"context"
	"errors"
	"math"
	"sort"

	"gputrid/internal/gpusim"
	"gputrid/internal/num"
)

// errLinkIntegrity reports a transfer whose payload stayed corrupt
// past the full re-exchange budget: the link, not the device, is the
// failure domain, so it must NOT classify as device death (the device
// keeps serving its other slabs) — the slab degrades to the host path
// instead.
var errLinkIntegrity = errors.New("core: transfer stayed corrupt past the re-exchange budget")

// reexchangeBudget is how many times a checksum-mismatched transfer is
// re-exchanged (per escalation rung) before the ladder escalates.
const reexchangeBudget = 2

// HedgePolicy bounds the speculative re-execution of straggling slabs.
// The zero value enables hedging with the defaults.
type HedgePolicy struct {
	// Disable turns hedging off entirely.
	Disable bool
	// Ratio is the outlier threshold: a slab whose modeled phase time
	// exceeds Ratio × the median over device-run slabs is hedged.
	// Values <= 1 mean the default of 3.
	Ratio float64
	// MaxHedges caps speculative re-launches per solve; 0 means no cap.
	MaxHedges int
}

func (h HedgePolicy) ratio() float64 {
	if h.Ratio <= 1 {
		return 3
	}
	return h.Ratio
}

// DeviceObservation is what one distributed solve observed about one
// topology device — the raw signal a gray-failure detector aggregates
// across solves. Every slab execution is recorded against the device
// that ran it, including executions later hedged away, so a silent
// straggler stays visible even when hedging hides it from the makespan.
type DeviceObservation struct {
	// Device is the topology device index.
	Device int
	// Slabs is how many slab-phase executions the device ran.
	Slabs int
	// ModeledBusy is the total modeled seconds of those executions
	// (upload + compute + download, fault penalties included).
	ModeledBusy float64
	// IntegrityRetries counts checksum-mismatched transfers on this
	// device's links that were re-exchanged.
	IntegrityRetries int
	// Hedged counts slabs hedged away from this device (the speculative
	// re-run won).
	Hedged int
}

// devObs is the under-construction observation for one device.
type devObs struct {
	slabs     int
	busy      float64
	integrity int
	hedged    int
}

// noteBusy records one slab-phase execution on dev.
func (s *DistSolver[T]) noteBusy(dev int, seconds float64) {
	s.obsMu.Lock()
	o := s.obs[dev]
	if o == nil {
		o = &devObs{}
		s.obs[dev] = o
	}
	o.slabs++
	o.busy += seconds
	s.obsMu.Unlock()
}

// noteIntegrity records n integrity retries against dev's links.
func (s *DistSolver[T]) noteIntegrity(sl *distSlab, dev, n int) {
	sl.integrity += n
	s.obsMu.Lock()
	o := s.obs[dev]
	if o == nil {
		o = &devObs{}
		s.obs[dev] = o
	}
	o.integrity += n
	s.obsMu.Unlock()
}

// noteHedged records a slab hedged away from dev.
func (s *DistSolver[T]) noteHedged(dev int) {
	s.obsMu.Lock()
	o := s.obs[dev]
	if o == nil {
		o = &devObs{}
		s.obs[dev] = o
	}
	o.hedged++
	s.obsMu.Unlock()
}

// observations snapshots the per-device observations, sorted by device.
func (s *DistSolver[T]) observations() []DeviceObservation {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	out := make([]DeviceObservation, 0, len(s.obs))
	for dev, o := range s.obs {
		out = append(out, DeviceObservation{
			Device: dev, Slabs: o.slabs, ModeledBusy: o.busy,
			IntegrityRetries: o.integrity, Hedged: o.hedged,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// sumParts is the ABFT checksum: the float64 sum of the payload
// elements, computed sender-side before the transfer and recomputed
// receiver-side after it. A corrupted payload (poisoned to NaN by the
// modeled link) makes the sums mismatch — NaN compares unequal to
// everything, including itself — so corruption detection is exact.
func sumParts[T num.Real](parts ...[]T) float64 {
	var s float64
	for _, p := range parts {
		for _, v := range p {
			s += float64(v)
		}
	}
	return s
}

// poisonNaN models what a corrupting link does to a payload: the
// loudest possible damage, so an escaped corruption can never be
// mistaken for a plausible value.
func poisonNaN[T num.Real](p []T) {
	bad := T(math.NaN())
	for i := range p {
		p[i] = bad
	}
}

// verifiedUp moves a payload whose source of truth stays host-side
// (coefficient uploads, separator values) over the link with checksum
// verification: the receiver recomputes the sum and a mismatch
// re-exchanges the transfer — each retry redraws the link-fault
// schedule at the next per-site sequence number, the transient-link
// model. The host copy is canonical, so a corrupted delivery costs
// only the retry; nothing needs restoring. Returns the total modeled
// seconds charged (retries included) and errLinkIntegrity when the
// link stayed corrupt past the budget.
func (s *DistSolver[T]) verifiedUp(sl *distSlab, dev int, bytes int64, parts ...[]T) (float64, error) {
	want := sumParts(parts...)
	if want != want {
		// The payload legitimately contains NaN: the sum check is blind,
		// send unverified rather than loop forever on a false mismatch.
		return s.topo.Transfer(&s.scope, gpusim.OpHostToDevice, -1, dev, bytes).Seconds, nil
	}
	var secs float64
	for attempt := 0; ; attempt++ {
		rep := s.topo.Transfer(&s.scope, gpusim.OpHostToDevice, -1, dev, bytes)
		secs += rep.Seconds
		got := want
		if rep.Corrupt {
			// The device-side copy arrived damaged; its recomputed sum
			// cannot match the sender's.
			got = math.NaN()
		}
		if got == want {
			return secs, nil
		}
		s.noteIntegrity(sl, dev, 1)
		if attempt >= reexchangeBudget {
			return secs, errLinkIntegrity
		}
	}
}

// verifiedDown moves computed results from device dev into the
// host-side payload buffer with checksum verification. The device copy
// is the source of truth (modeled by the shadow snapshot taken before
// the first attempt): a corrupting link really does poison the host
// buffer, the sum check really does catch it, and the re-exchange
// restores from the device copy — corrupted data is provably present
// and provably never escapes.
func (s *DistSolver[T]) verifiedDown(sl *distSlab, dev int, bytes int64, payload, shadow []T) (float64, error) {
	want := sumParts(payload)
	if want != want {
		return s.topo.Transfer(&s.scope, gpusim.OpDeviceToHost, dev, -1, bytes).Seconds, nil
	}
	copy(shadow, payload)
	var secs float64
	for attempt := 0; ; attempt++ {
		rep := s.topo.Transfer(&s.scope, gpusim.OpDeviceToHost, dev, -1, bytes)
		secs += rep.Seconds
		if rep.Corrupt {
			poisonNaN(payload)
		}
		if got := sumParts(payload); got == want {
			return secs, nil
		}
		s.noteIntegrity(sl, dev, 1)
		if attempt >= reexchangeBudget {
			return secs, errLinkIntegrity
		}
		copy(payload, shadow)
	}
}

// hedgeResult is what the speculative goroutine reports back.
type hedgeResult struct {
	timing gpusim.SlabTiming
	err    error
}

// hedgePhase runs after phase A: slabs whose modeled completion is a
// latency outlier versus their peers (> Ratio × median) are
// speculatively re-executed on the least-loaded survivor, and the
// verified result with the smaller modeled completion wins — in this
// simulator, modeled time is the latency plane, so "first verified
// result" means first in modeled time. The loser is cancelled: its
// result is discarded and, when the solve's context dies mid-hedge,
// the speculative goroutine is cancelled through its own context and
// joined before returning, releasing its device lease. Output bits are
// unaffected either way — the launch geometry is a pure function of
// (N, Slabs), so both candidates compute identical data and hedging
// only moves *where* (and how fast) it happened.
func (s *DistSolver[T]) hedgePhase(ctx context.Context, rep *DistReport, slabs []*distSlab, alive map[int]bool) error {
	h := s.cfg.Hedge
	if h.Disable || len(alive) < 2 {
		return nil
	}

	// Outlier detection over the modeled phase times of device-run slabs.
	var times []float64
	for _, sl := range slabs {
		if sl.dev >= 0 {
			times = append(times, sl.timing.Total())
		}
	}
	if len(times) < 2 {
		return nil
	}
	sort.Float64s(times)
	median := times[len(times)/2]
	if len(times)%2 == 0 {
		median = (times[len(times)/2-1] + times[len(times)/2]) / 2
	}
	threshold := h.ratio() * median
	if median <= 0 {
		return nil
	}

	for _, sl := range slabs {
		if sl.dev < 0 || sl.timing.Total() <= threshold {
			continue
		}
		if h.MaxHedges > 0 && rep.Hedges >= h.MaxHedges {
			return nil
		}
		// Least-loaded survivor by current modeled load (hedge adoptions
		// move load, so recompute per outlier); ties go to the lowest
		// index — deterministic either way.
		load := make(map[int]float64, len(alive))
		for _, other := range slabs {
			if other.dev >= 0 {
				load[other.dev] += other.timing.Total()
			}
		}
		target := -1
		for _, dev := range liveOrder(alive) {
			if dev == sl.dev {
				continue
			}
			if target < 0 || load[dev] < load[target] {
				target = dev
			}
		}
		if target < 0 {
			return nil
		}
		rep.Hedges++
		if err := s.hedgeOne(ctx, rep, sl, target, alive); err != nil {
			return err
		}
	}
	return nil
}

// hedgeOne races one speculative re-execution of slab sl on device
// target against the (already verified) incumbent result. The
// speculative run holds a lease on the target device for its lifetime
// and works entirely in scratch buffers, so losing costs nothing. Any
// speculative failure — integrity exhaustion, cancellation, even the
// target dying — leaves the incumbent standing; a target death is
// still announced and removed from the live set like any other.
func (s *DistSolver[T]) hedgeOne(ctx context.Context, rep *DistReport, sl *distSlab, target int, alive map[int]bool) error {
	hctx, cancel := context.WithCancel(contextOrBackground(ctx))
	defer cancel()

	spec := &distSlab{idx: sl.idx, dev: target, homeDev: -1}
	s.leases[target].Add(1)
	done := make(chan hedgeResult, 1)
	go func() {
		if hook := s.testHookHedgeStart; hook != nil {
			hook()
		}
		L := s.part.Slabs[sl.idx].Len()
		err := s.reduceSlab(hctx, spec, target, s.hedgeX[:3*s.m*L], s.hedgeIface, s.hedgeShadow)
		// Release the lease before signalling, so it is free by the time
		// the receiver — and so SolveOn — moves on.
		s.leases[target].Add(-1)
		done <- hedgeResult{spec.timing, err}
	}()

	var r hedgeResult
	if ctx != nil {
		select {
		case r = <-done:
		case <-ctx.Done():
			// The solve is being cancelled mid-hedge: cancel the
			// speculative run and join it so its lease is released and
			// no goroutine outlives SolveOn.
			cancel()
			<-done
			rep.HedgesCancelled++
			return cancelled(ctx.Err())
		}
	} else {
		r = <-done
	}
	sl.integrity += spec.integrity

	if r.err != nil {
		rep.HedgesCancelled++
		if isDeviceDeath(r.err) && alive[target] {
			delete(alive, target)
			rep.Deaths = append(rep.Deaths, target)
			s.announceDeath(target)
		}
		return nil
	}
	if r.timing.Total() < sl.timing.Total() {
		// Speculative result completes first in modeled time: adopt it.
		// The data is bitwise identical by construction; what changes is
		// the slab's home device and the modeled makespan.
		p := sl.idx
		L := s.part.Slabs[p].Len()
		copy(s.slabX[p], s.hedgeX[:3*s.m*L])
		copy(s.iface[p], s.hedgeIface)
		s.noteHedged(sl.dev)
		sl.dev = target
		sl.timing = r.timing
		rep.HedgeWins++
	} else {
		rep.HedgesCancelled++
	}
	return nil
}

// contextOrBackground maps the solver's nil-means-no-cancellation
// convention onto a real context for the hedge machinery.
func contextOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}
