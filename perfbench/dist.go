package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"gputrid"
	"gputrid/internal/core"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
)

// dist_slab: one M=4, N=65537 batch split into 16 slabs over 4
// simulated devices on an NVLink mesh, the fixed assignment of
// BENCH_grayfail.json's clean 4-device/16-slab cell.
const (
	distM, distN           = 4, 1<<16 + 1
	distDevices, distSlabs = 4, 16
	// distLimit is the per-solve latency limit behind max_rate_rps.
	distLimit = 250 * time.Millisecond
	// distAccuracyBatches more seeded batches are solved after the timed
	// phase, so residual_max is a maximum over enough systems to be
	// steady from seed to seed.
	distAccuracyBatches = 15
)

func newDistSolver() (*core.DistSolver[float64], error) {
	topo, err := gpusim.UniformTopology(distDevices, gpusim.NVLinkMesh(), gpusim.GTX480())
	if err != nil {
		return nil, err
	}
	return core.NewDistSolver[float64](core.DistConfig{Topology: topo, Slabs: distSlabs}, distM, distN)
}

func bitwiseEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func runDist(cfg runConfig) (*report, error) {
	rep := newReport(metricsFor(cfg))
	ctx := context.Background()
	b := distBatch(cfg.seed, 0, distM, distN)

	// Set-up: construction plus the recording solve, setupRepeats times; the
	// last solver is kept and its solve is the reference every timed
	// solve must reproduce bit for bit.
	ref := make([]float64, distM*distN)
	var s *core.DistSolver[float64]
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.Close()
		}
		// The last repeat's garbage is collected outside the timing.
		runtime.GC()
		t := time.Now()
		var err error
		if s, err = newDistSolver(); err != nil {
			return nil, err
		}
		if _, err := s.SolveInto(ctx, ref, b); err != nil {
			s.Close()
			return nil, fmt.Errorf("recording solve: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer s.Close()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	tol := matrix.ResidualTolerance[float64](distN)
	resid := gputrid.Residual(b, ref)
	if !(resid <= tol) {
		rep.fail("reference solve residual %.3g above tolerance %.3g", resid, tol)
	}

	dst := make([]float64, distM*distN)
	var lat, traced, cpuTimes []time.Duration
	var allocs, allocBytes uint64
	var last *core.DistReport
	var recovery [4]int // integrity retries, hedges, migrations, degraded
	var tr *tracer
	var meter *allocMeter
	mismatches := 0
	op := func() {
		var a0, b0 uint64
		if meter != nil {
			a0, b0 = meter.read()
		}
		root := tr.begin("dist.solve", rep.Attempted, -1)
		t := time.Now()
		dr, err := s.SolveInto(ctx, dst, b)
		d := time.Since(t)
		tr.end(root)
		if meter != nil {
			a1, b1 := meter.read()
			allocs += a1 - a0
			allocBytes += b1 - b0
		}
		rep.Attempted++
		if err != nil {
			rep.Failed++
			rep.fail("solve %d: %v", rep.Attempted, err)
			return
		}
		if !bitwiseEqual(dst, ref) {
			rep.Failed++
			mismatches++
			return
		}
		last = dr
		if tr == nil {
			lat = append(lat, d)
			return
		}
		traced = append(traced, d)
		recovery[0] += dr.IntegrityRetries
		recovery[1] += dr.Hedges
		recovery[2] += dr.Migrations
		recovery[3] += len(dr.Degraded)
		cs := tr.begin("cpu.solve", rep.Attempted-1, -1)
		_, err = gputrid.SolveCPU(b)
		tr.end(cs)
		cpuTimes = append(cpuTimes, tr.spans[cs].dur())
		if err != nil {
			rep.fail("CPU baseline: %v", err)
		}
	}

	untraced := cfg.dur
	if cfg.trace {
		untraced = cfg.dur / 2
	}
	var parts [][]time.Duration
	for r := 0; r < rounds; r++ {
		from := len(lat)
		for t0 := time.Now(); time.Since(t0) < untraced/rounds; {
			op()
		}
		parts = append(parts, lat[from:])
	}
	// The peak is read before the accuracy batches, which are the
	// benchmark's work, not the workload's.
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		tr, meter = newTracer(), newAllocMeter()
		for t0 := time.Now(); time.Since(t0) < cfg.dur-untraced; {
			op()
		}
	}
	if mismatches > 0 {
		rep.fail("%d solves differ bitwise from the reference solve", mismatches)
	}
	rep.logf("reference residual %.3g (tolerance %.3g); %d timed solves bitwise identical to it",
		resid, tol, rep.Attempted-rep.Failed)
	for k := 1; k <= distAccuracyBatches; k++ {
		ab := distBatch(cfg.seed, k, distM, distN)
		if _, err := s.SolveInto(ctx, dst, ab); err != nil {
			return nil, fmt.Errorf("accuracy batch %d: %w", k, err)
		}
		r := gputrid.Residual(ab, dst)
		if !(r <= tol) {
			rep.fail("accuracy batch %d: residual %.3g above tolerance %.3g", k, r, tol)
		}
		resid = max(resid, r)
	}
	if last == nil {
		return rep, nil
	}

	if !cfg.trace {
		st := summarizeRounds(parts, distLimit)
		note := fmt.Sprintf("interquartile mean of %d rounds, n=%d solves", rounds, len(lat))
		rep.set("latency_p50_ms", st.p50, note)
		rep.set("latency_p99_ms", st.tail, fmt.Sprintf("%s, each round's p%.2f", note, st.pct))
		rep.set("throughput_ops_s", st.throughput, "solves/s, one closed-loop caller, "+note)
		rep.set("max_rate_rps", st.goodput, fmt.Sprintf("solves/s within %v (closed loop: no backlog), %s", distLimit, note))
		rep.set("modeled_ms", ms(last.ModeledPipelined), "DistReport.ModeledPipelined")
		rep.set("residual_max", resid, fmt.Sprintf("over %d systems, tolerance %.3g", distM*(1+distAccuracyBatches), tol))
		rep.set("setup_s", median(setups), fmt.Sprintf("median of %d: NewDistSolver + recording solve", setupRepeats))
		rep.set("rss_mb", rss, "VmHWM of the benchmark process over the timed solves")
		return rep, nil
	}

	untracedP50 := durationsMS(lat).at(50)
	tracedP50 := durationsMS(traced).at(50)
	cpuP50 := durationsMS(cpuTimes).at(50)
	n := float64(len(traced))
	busyMin, busyMax := math.Inf(1), 0.0
	for _, d := range last.PerDevice {
		busyMin, busyMax = min(busyMin, d.ModeledBusy), max(busyMax, d.ModeledBusy)
	}
	rep.set("dist.comm_mb", float64(last.Comm.TotalBytes())/1e6, "per solve")
	rep.set("dist.comm_modeled_ms", last.Comm.TotalSeconds()*1e3, "modeled link-busy time per solve")
	rep.set("dist.transfers", float64(last.Comm.Transfers), "per solve")
	rep.set("dist.halo_exchanges", float64(last.Comm.HaloExchanges), "per solve")
	rep.set("dist.modeled_serial_ms", ms(last.ModeledSerial), "DistReport.ModeledSerial")
	rep.set("dist.overlap_ratio", float64(last.ModeledPipelined)/float64(last.ModeledSerial), "ModeledPipelined / ModeledSerial")
	rep.set("dist.device_busy_imbalance", busyMax/busyMin, "max / min PerDevice.ModeledBusy")
	rep.set("dist.solve_over_cpu", tracedP50/cpuP50, "traced dist.solve p50 / cpu.solve_ms_p50")
	rep.set("dist.allocs_per_solve", float64(allocs)/n, fmt.Sprintf("heap objects, n=%d traced solves", len(traced)))
	rep.set("dist.alloc_mb_per_solve", float64(allocBytes)/n/1e6, "heap bytes allocated")
	rep.set("dist.integrity_retries", float64(recovery[0]), "summed over traced solves")
	rep.set("dist.hedges", float64(recovery[1]), "summed over traced solves")
	rep.set("dist.migrations", float64(recovery[2]), "summed over traced solves")
	rep.set("dist.degraded", float64(recovery[3]), "slabs, summed over traced solves")
	rep.set("cpu.solve_ms_p50", cpuP50, fmt.Sprintf("gputrid.SolveCPU on the %dx%d batch", distM, distN))
	rep.set("trace.overhead_frac", tracedP50/untracedP50-1, fmt.Sprintf("traced p50 %.3f / untraced p50 %.3f ms - 1", tracedP50, untracedP50))
	if err := tr.writeAndSummarize(rep, tracePath(cfg, "dist_slab")); err != nil {
		return nil, err
	}
	return rep, nil
}
