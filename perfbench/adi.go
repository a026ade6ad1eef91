package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gputrid"
	"gputrid/adi"
	"gputrid/internal/matrix"
)

// adi_heat: Peaceman-Rachford heat steps on a 255×255 grid, each step
// two batched line solves (x-sweep, y-sweep) on reusable Solvers.
const (
	adiN     = 255
	adiAlpha = 0.01
	adiDT    = 1e-3
	// adiLimit is the per-step latency limit behind max_rate_rps.
	adiLimit = 250 * time.Millisecond
	// Final states must agree to these shares of ‖u0‖∞.
	adiCPUTol      = 1e-10
	adiAnalyticTol = 1e-9
)

// adiRig is one set-up: two Solvers behind a Heat2D backend that
// alternates x- and y-sweeps between them.
type adiRig struct {
	sx, sy *gputrid.Solver[float64]
	dx, dy []float64
	heat   *adi.Heat2D[float64]
	calls  int

	// Per-op observation, set by the step loop.
	tr         *tracer
	meter      *allocMeter
	op, parent int
	paused     time.Duration // check time inside the current step
	resid      float64       // worst residual of any solve
	lastX      *gputrid.Batch[float64]
	solveAlloc []uint64 // heap objects allocated by each traced solve
}

func newADIRig() (*adiRig, error) {
	sx, err := gputrid.NewSolver[float64](adiN, adiN)
	if err != nil {
		return nil, err
	}
	sy, err := gputrid.NewSolver[float64](adiN, adiN)
	if err != nil {
		sx.Close()
		return nil, err
	}
	r := &adiRig{sx: sx, sy: sy, dx: make([]float64, adiN*adiN), dy: make([]float64, adiN*adiN), parent: -1}
	r.heat = &adi.Heat2D[float64]{Grid: adi.NewGrid2D(adiN, adiN), Alpha: adiAlpha, Backend: r.backend}
	return r, nil
}

func (r *adiRig) close() {
	r.sx.Close()
	r.sy.Close()
}

func (r *adiRig) backend(b *gputrid.Batch[float64]) ([]float64, error) {
	s, d := r.sx, r.dx
	if r.calls%2 == 1 {
		s, d = r.sy, r.dy
	} else {
		r.lastX = b
	}
	r.calls++
	var a0 uint64
	if r.meter != nil {
		a0, _ = r.meter.read()
	}
	sp := r.tr.begin("core.solve", r.op, r.parent)
	err := s.SolveBatchInto(d, b)
	r.tr.end(sp)
	if r.meter != nil {
		a1, _ := r.meter.read()
		r.solveAlloc = append(r.solveAlloc, a1-a0)
	}
	if err != nil {
		return nil, err
	}
	// The residual check is the benchmark's, not the step's: its time is
	// taken out of the op latency and traced as its own span.
	t := time.Now()
	cs := r.tr.begin("bench.check", r.op, r.parent)
	r.resid = max(r.resid, gputrid.Residual(b, d))
	r.tr.end(cs)
	r.paused += time.Since(t)
	return d, nil
}

// initialState samples the seeded eigenmodes on the grid.
func initialState(g adi.Grid2D, modes []heatMode) []float64 {
	u := make([]float64, g.NX*g.NY)
	for _, m := range modes {
		for j := 0; j < g.NY; j++ {
			sy := math.Sin(float64(m.Q) * math.Pi * float64(j+1) * g.HY)
			for i := 0; i < g.NX; i++ {
				u[j*g.NX+i] += m.A * math.Sin(float64(m.P)*math.Pi*float64(i+1)*g.HX) * sy
			}
		}
	}
	return u
}

// analyticState is the exact result of steps Peaceman-Rachford steps
// on the eigenmodes: each decays by its discrete amplification factor.
func analyticState(g adi.Grid2D, modes []heatMode, steps int) []float64 {
	lx := adiAlpha * adiDT / (2 * g.HX * g.HX)
	ly := adiAlpha * adiDT / (2 * g.HY * g.HY)
	scaled := make([]heatMode, len(modes))
	for k, m := range modes {
		mx := 4 * math.Pow(math.Sin(float64(m.P)*math.Pi*g.HX/2), 2)
		my := 4 * math.Pow(math.Sin(float64(m.Q)*math.Pi*g.HY/2), 2)
		amp := (1 - lx*mx) * (1 - ly*my) / ((1 + lx*mx) * (1 + ly*my))
		scaled[k] = heatMode{P: m.P, Q: m.Q, A: m.A * math.Pow(amp, float64(steps))}
	}
	return initialState(g, scaled)
}

func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

func runADI(cfg runConfig) (*report, error) {
	rep := newReport(metricsFor(cfg))
	g := adi.NewGrid2D(adiN, adiN)
	modes := heatModes(cfg.seed)
	u0 := initialState(g, modes)

	// Set-up: Solver construction plus the recording solve of each,
	// setupRepeats times; the last rig is kept.
	var rig *adiRig
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			rig.close()
		}
		// The last repeat's garbage is collected outside the timing.
		runtime.GC()
		t := time.Now()
		var err error
		if rig, err = newADIRig(); err != nil {
			return nil, err
		}
		scratch := append([]float64(nil), u0...)
		if err := rig.heat.Step(scratch, nil, adiDT); err != nil {
			rig.close()
			return nil, fmt.Errorf("recording step: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer rig.close()
	rig.resid = 0
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	u := append([]float64(nil), u0...)
	var lat, traced []time.Duration
	var tr *tracer
	var meter *allocMeter
	var stepAlloc []uint64
	var cpuTimes []time.Duration
	steps := 0
	step := func() error {
		rig.op, rig.paused = steps, 0
		var a0 uint64
		if meter != nil {
			a0, _ = meter.read()
		}
		root := tr.begin("adi.step", steps, -1)
		rig.parent = root
		t := time.Now()
		err := rig.heat.Step(u, nil, adiDT)
		d := time.Since(t) - rig.paused
		tr.end(root)
		if meter != nil {
			a1, _ := meter.read()
			stepAlloc = append(stepAlloc, a1-a0)
		}
		steps++
		if err != nil {
			return err
		}
		if tr == nil {
			lat = append(lat, d)
			return nil
		}
		traced = append(traced, d)
		// Same-run baseline: single-threaded Thomas on the step's x-sweep
		// batch, outside the op.
		cs := tr.begin("cpu.solve", steps-1, -1)
		_, err = gputrid.SolveCPU(rig.lastX)
		tr.end(cs)
		cpuTimes = append(cpuTimes, tr.spans[cs].dur())
		return err
	}

	untraced := cfg.dur
	if cfg.trace {
		untraced = cfg.dur / 2
	}
	var parts [][]time.Duration
	for r := 0; r < rounds && rep.Failed == 0; r++ {
		from := len(lat)
		for t0 := time.Now(); time.Since(t0) < untraced/rounds; {
			if err := step(); err != nil {
				rep.Failed++
				rep.fail("step %d: %v", steps, err)
				break
			}
		}
		parts = append(parts, lat[from:])
	}
	// The peak is read before the output checks, which are the
	// benchmark's work, not the workload's.
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		tr, meter = newTracer(), newAllocMeter()
		rig.tr, rig.meter = tr, meter
		for t0 := time.Now(); time.Since(t0) < cfg.dur-untraced; {
			if err := step(); err != nil {
				rep.Failed++
				rep.fail("step %d: %v", steps, err)
				break
			}
		}
		rig.tr, rig.meter = nil, nil
	}
	rep.Attempted = steps

	// Output checks: the same steps on the CPU Thomas backend, and the
	// exact decay of the seeded eigenmodes.
	ref := append([]float64(nil), u0...)
	cpuHeat := &adi.Heat2D[float64]{Grid: g, Alpha: adiAlpha, Backend: adi.CPUBackend[float64]()}
	for i := 0; i < steps; i++ {
		if err := cpuHeat.Step(ref, nil, adiDT); err != nil {
			return nil, fmt.Errorf("CPU reference step: %w", err)
		}
	}
	scale := maxAbsDiff(u0, make([]float64, len(u0)))
	cpuErr := maxAbsDiff(u, ref) / scale
	anaErr := maxAbsDiff(u, analyticState(g, modes, steps)) / scale
	rep.logf("final state after %d steps: vs CPU backend %.3g, vs analytic decay %.3g (of max|u0|; limits %g, %g)",
		steps, cpuErr, anaErr, adiCPUTol, adiAnalyticTol)
	if !(cpuErr <= adiCPUTol) {
		rep.fail("final state differs from the CPU backend by %.3g", cpuErr)
	}
	if !(anaErr <= adiAnalyticTol) {
		rep.fail("final state differs from the analytic decay by %.3g", anaErr)
	}
	tol := matrix.ResidualTolerance[float64](adiN)
	if !(rig.resid <= tol) {
		rep.fail("solve residual %.3g above tolerance %.3g", rig.resid, tol)
	}
	if !rep.Correct {
		rep.Failed = steps // every step fed the wrong final state
	}

	if !cfg.trace {
		st := summarizeRounds(parts, adiLimit)
		note := fmt.Sprintf("interquartile mean of %d rounds, n=%d steps", rounds, len(lat))
		rep.set("latency_p50_ms", st.p50, note)
		rep.set("latency_p99_ms", st.tail, fmt.Sprintf("%s, each round's p%.2f", note, st.pct))
		rep.set("throughput_ops_s", st.throughput, "steps/s, one closed-loop caller, "+note)
		rep.set("max_rate_rps", st.goodput, fmt.Sprintf("steps/s within %v (closed loop: no backlog), %s", adiLimit, note))
		rep.set("modeled_ms", ms(rig.sx.ModeledTime()+rig.sy.ModeledTime()), "x-sweep + y-sweep Solver.ModeledTime")
		rep.set("residual_max", rig.resid, fmt.Sprintf("over %d solves, tolerance %.3g", 2*steps, tol))
		rep.set("setup_s", median(setups), fmt.Sprintf("median of %d: NewSolver x2 + recording step", setupRepeats))
		rep.set("rss_mb", rss, "VmHWM of the benchmark process over the timed steps")
		return rep, nil
	}

	untracedP50 := durationsMS(lat).at(50)
	tracedP50 := durationsMS(traced).at(50)
	coreP50 := durationsMS(tr.durByName("core.solve")).at(50)
	cpuP50 := durationsMS(cpuTimes).at(50)
	var solveAllocs, adiAllocs uint64
	for _, a := range rig.solveAlloc {
		solveAllocs += a
	}
	for _, a := range stepAlloc {
		adiAllocs += a
	}
	adiAllocs -= min(adiAllocs, solveAllocs)
	n := fmt.Sprintf("n=%d traced steps", len(traced))
	rep.set("adi.self_ms_p50", durationsMS(tr.selfByName("adi.step")).at(50), "step minus its solves and checks, "+n)
	rep.set("adi.allocs_per_step", float64(adiAllocs)/float64(len(stepAlloc)), "heap objects outside the solves")
	rep.set("core.solve_ms_p50", coreP50, fmt.Sprintf("Solver.SolveBatchInto %dx%d, n=%d", adiN, adiN, len(rig.solveAlloc)))
	rep.set("core.allocs_per_solve", float64(solveAllocs)/float64(len(rig.solveAlloc)), "heap objects per SolveBatchInto")
	rep.set("core.k", float64(rig.sx.K()), "")
	rep.set("cpu.solve_ms_p50", cpuP50, "gputrid.SolveCPU on the x-sweep batch")
	rep.set("core.replay_over_cpu", coreP50/cpuP50, "core.solve_ms_p50 / cpu.solve_ms_p50")
	setGPUSim(rep, rig.sx.Stats(), rig.sy.Stats())
	rep.set("trace.overhead_frac", tracedP50/untracedP50-1, fmt.Sprintf("traced p50 %.3f / untraced p50 %.3f ms - 1", tracedP50, untracedP50))
	if err := tr.writeAndSummarize(rep, tracePath(cfg, "adi_heat")); err != nil {
		return nil, err
	}
	return rep, nil
}

// setGPUSim reports the recorded device events of one op's solves.
func setGPUSim(rep *report, stats ...*gputrid.Stats) {
	var sum gputrid.Stats
	for _, s := range stats {
		sum.Accumulate(s)
	}
	const txBytes = 128 // the simulated device's global-memory transaction size
	moved := sum.TransactionBytes(txBytes)
	rep.set("gpusim.load_transactions", float64(sum.LoadTransactions), "per step")
	rep.set("gpusim.store_transactions", float64(sum.StoreTransactions), "per step")
	rep.set("gpusim.eliminations", float64(sum.Eliminations), "per step")
	rep.set("gpusim.barriers", float64(sum.Barriers), "per step")
	rep.set("gpusim.launches", float64(sum.Launches), "per step")
	rep.set("gpusim.bytes_moved_computed", float64(moved), "computed: transactions x 128 B, per step")
	rep.set("gpusim.coalescing_efficiency", float64(sum.LoadedBytes+sum.StoredBytes)/float64(moved), "useful bytes / transaction bytes")
}
