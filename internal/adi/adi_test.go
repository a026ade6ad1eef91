package adi

import (
	"math"
	"testing"

	"gputrid/internal/core"
	"gputrid/internal/matrix"
)

func fill2D(g Grid2D, f func(x, y float64) float64) []float64 {
	u := make([]float64, g.NX*g.NY)
	for j := 0; j < g.NY; j++ {
		y := float64(j+1) * g.HY
		for i := 0; i < g.NX; i++ {
			x := float64(i+1) * g.HX
			u[g.idx(i, j)] = f(x, y)
		}
	}
	return u
}

func maxErr2D(g Grid2D, u []float64, f func(x, y float64) float64) float64 {
	var worst float64
	for j := 0; j < g.NY; j++ {
		y := float64(j+1) * g.HY
		for i := 0; i < g.NX; i++ {
			x := float64(i+1) * g.HX
			if e := math.Abs(u[g.idx(i, j)] - f(x, y)); e > worst {
				worst = e
			}
		}
	}
	return worst
}

func TestHeat2DMatchesAnalyticDecay(t *testing.T) {
	g := NewGrid2D(63, 63)
	const alpha, tEnd, steps = 0.05, 0.02, 40
	dt := tEnd / steps
	u := fill2D(g, func(x, y float64) float64 {
		return math.Sin(math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	h := &Heat2D[float64]{Grid: g, Alpha: alpha, Backend: CPUBackend[float64]()}
	for s := 0; s < steps; s++ {
		if err := h.Step(u, nil, dt); err != nil {
			t.Fatal(err)
		}
	}
	decay := math.Exp(-(1 + 4) * math.Pi * math.Pi * alpha * tEnd)
	err := maxErr2D(g, u, func(x, y float64) float64 {
		return math.Sin(math.Pi*x) * math.Sin(2*math.Pi*y) * decay
	})
	if err > 5e-4 {
		t.Errorf("Heat2D error %g vs analytic decay", err)
	}
}

func TestHeat2DGPUBackendMatchesCPU(t *testing.T) {
	g := NewGrid2D(31, 47)
	u1 := fill2D(g, func(x, y float64) float64 { return x * (1 - x) * y * (1 - y) })
	u2 := append([]float64(nil), u1...)
	dt := 1e-3
	hc := &Heat2D[float64]{Grid: g, Alpha: 0.1, Backend: CPUBackend[float64]()}
	hg := &Heat2D[float64]{Grid: g, Alpha: 0.1, Backend: GPUBackend[float64](core.Config{K: core.KAuto})}
	for s := 0; s < 3; s++ {
		if err := hc.Step(u1, nil, dt); err != nil {
			t.Fatal(err)
		}
		if err := hg.Step(u2, nil, dt); err != nil {
			t.Fatal(err)
		}
	}
	var worst float64
	for i := range u1 {
		if d := math.Abs(u1[i] - u2[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-11 {
		t.Errorf("CPU and GPU ADI paths differ by %g", worst)
	}
}

func TestHeat2DWithSource(t *testing.T) {
	// Steady state of u_t = ∇²u + f with f = (5π²)·sin πx sin 2πy is
	// u* = sin πx sin 2πy; stepping long enough must converge to it.
	g := NewGrid2D(63, 63)
	f := fill2D(g, func(x, y float64) float64 {
		return 5 * math.Pi * math.Pi * math.Sin(math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	u := make([]float64, g.NX*g.NY)
	h := &Heat2D[float64]{Grid: g, Alpha: 1, Backend: CPUBackend[float64]()}
	for s := 0; s < 200; s++ {
		if err := h.Step(u, f, 0.002); err != nil {
			t.Fatal(err)
		}
	}
	err := maxErr2D(g, u, func(x, y float64) float64 {
		return math.Sin(math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	if err > 2e-3 {
		t.Errorf("steady-state error %g", err)
	}
}

func TestWachspressParams(t *testing.T) {
	ps := WachspressParams(5, 10, 1000)
	if len(ps) != 5 {
		t.Fatalf("got %d params", len(ps))
	}
	for i, p := range ps {
		if p < 10 || p > 1000 {
			t.Errorf("param %d = %g outside [a,b]", i, p)
		}
		if i > 0 && ps[i] >= ps[i-1] {
			t.Errorf("params not decreasing: %v", ps)
		}
	}
	if got := WachspressParams(0, 1, 2); len(got) != 1 {
		t.Error("J<1 not clamped")
	}
}

func TestPoisson2DWachspressConvergence(t *testing.T) {
	g := NewGrid2D(63, 63)
	f := fill2D(g, func(x, y float64) float64 {
		return (9 + 4) * math.Pi * math.Pi * math.Sin(3*math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	u := make([]float64, g.NX*g.NY)
	p := &Poisson2D[float64]{Grid: g, Backend: CPUBackend[float64]()}
	r0 := p.Residual(u, f)
	res, err := p.Iterate(u, f, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res > r0/1e3 {
		t.Errorf("Wachspress cycles reduced residual only %g -> %g", r0, res)
	}
	solErr := maxErr2D(g, u, func(x, y float64) float64 {
		return math.Sin(3*math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	if solErr > 5e-3 {
		t.Errorf("Poisson solution error %g", solErr)
	}
}

func TestPoisson2DBadShapes(t *testing.T) {
	p := &Poisson2D[float64]{Grid: NewGrid2D(4, 4)}
	if _, err := p.Iterate(make([]float64, 3), make([]float64, 16), nil, 1); err == nil {
		t.Error("short state accepted")
	}
	h := &Heat2D[float64]{Grid: NewGrid2D(4, 4), Alpha: 1}
	if err := h.Step(make([]float64, 3), nil, 0.1); err == nil {
		t.Error("short state accepted")
	}
	h3 := &Heat3D[float64]{Grid: NewGrid3D(4, 4, 4), Alpha: 1}
	if err := h3.Step(make([]float64, 3), 0.1); err == nil {
		t.Error("short 3D state accepted")
	}
}

func TestHeat3DMatchesAnalyticDecay(t *testing.T) {
	g := NewGrid3D(23, 23, 23)
	const alpha, tEnd, steps = 0.05, 0.01, 20
	dt := tEnd / steps
	u := make([]float64, g.NX*g.NY*g.NZ)
	for k := 0; k < g.NZ; k++ {
		z := float64(k+1) * g.HZ
		for j := 0; j < g.NY; j++ {
			y := float64(j+1) * g.HY
			for i := 0; i < g.NX; i++ {
				x := float64(i+1) * g.HX
				u[g.idx(i, j, k)] = math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
			}
		}
	}
	h := &Heat3D[float64]{Grid: g, Alpha: alpha, Backend: CPUBackend[float64]()}
	for s := 0; s < steps; s++ {
		if err := h.Step(u, dt); err != nil {
			t.Fatal(err)
		}
	}
	decay := math.Exp(-3 * math.Pi * math.Pi * alpha * tEnd)
	var worst float64
	for k := 0; k < g.NZ; k++ {
		z := float64(k+1) * g.HZ
		for j := 0; j < g.NY; j++ {
			y := float64(j+1) * g.HY
			for i := 0; i < g.NX; i++ {
				x := float64(i+1) * g.HX
				exact := math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z) * decay
				if e := math.Abs(u[g.idx(i, j, k)] - exact); e > worst {
					worst = e
				}
			}
		}
	}
	if worst > 2e-3 {
		t.Errorf("Heat3D error %g vs analytic decay", worst)
	}
}

func TestHeat3DGPUBackend(t *testing.T) {
	g := NewGrid3D(15, 17, 13)
	u := make([]float64, g.NX*g.NY*g.NZ)
	for i := range u {
		u[i] = float64(i%7) / 7
	}
	ref := append([]float64(nil), u...)
	hg := &Heat3D[float64]{Grid: g, Alpha: 0.2, Backend: GPUBackend[float64](core.Config{K: core.KAuto})}
	hc := &Heat3D[float64]{Grid: g, Alpha: 0.2, Backend: CPUBackend[float64]()}
	if err := hg.Step(u, 1e-3); err != nil {
		t.Fatal(err)
	}
	if err := hc.Step(ref, 1e-3); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range u {
		if d := math.Abs(u[i] - ref[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-12 {
		t.Errorf("GPU vs CPU 3-D step differ by %g", worst)
	}
}

// pipelineBackend solves on a reusable pipeline into storage it owns,
// the shape of a timestep loop's backend: after the pipeline's first
// solve it allocates nothing.
func pipelineBackend(t *testing.T, m, n int) Backend[float64] {
	t.Helper()
	p, err := core.NewPipeline[float64](core.Config{K: core.KAuto}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	x := make([]float64, m*n)
	return func(b *matrix.Batch[float64]) ([]float64, error) {
		return x, p.SolveInto(x, b)
	}
}

// TestHeat2DStepAllocFree pins the steady-state step: with a backend
// that returns storage it owns, Step reuses its batches and half-step
// state and allocates nothing.
func TestHeat2DStepAllocFree(t *testing.T) {
	g := NewGrid2D(24, 24)
	u := fill2D(g, func(x, y float64) float64 { return x * (1 - x) * y * (1 - y) })
	f := fill2D(g, func(x, y float64) float64 { return x + y })
	h := &Heat2D[float64]{Grid: g, Alpha: 0.1, Backend: pipelineBackend(t, 24, 24)}
	if err := h.Step(u, f, 1e-3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := h.Step(u, f, 1e-3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Heat2D.Step allocates %.1f times per step, want 0", allocs)
	}
}

// TestADIReuseMatchesFresh checks that reused batches carry nothing
// from one step to the next, also across a Grid change: every step
// must equal, bit for bit, the same step on a fresh integrator.
func TestADIReuseMatchesFresh(t *testing.T) {
	h := &Heat2D[float64]{Alpha: 0.1, Backend: CPUBackend[float64]()}
	p := &Poisson2D[float64]{Backend: CPUBackend[float64]()}
	h3 := &Heat3D[float64]{Alpha: 0.1, Backend: CPUBackend[float64]()}
	for _, sz := range []int{9, 9, 14, 5} {
		g := NewGrid2D(sz, sz+3)
		u := fill2D(g, func(x, y float64) float64 { return x * (1 - x) * y })
		ref := append([]float64(nil), u...)
		h.Grid = g
		if err := h.Step(u, u, 1e-3); err != nil {
			t.Fatal(err)
		}
		fresh := &Heat2D[float64]{Grid: g, Alpha: 0.1, Backend: CPUBackend[float64]()}
		if err := fresh.Step(ref, append([]float64(nil), ref...), 1e-3); err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, "Heat2D", sz, u, ref)

		p.Grid = g
		pu, pref := append([]float64(nil), u...), append([]float64(nil), u...)
		if _, err := p.Iterate(pu, u, []float64{3}, 1); err != nil {
			t.Fatal(err)
		}
		pf := &Poisson2D[float64]{Grid: g, Backend: CPUBackend[float64]()}
		if _, err := pf.Iterate(pref, u, []float64{3}, 1); err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, "Poisson2D", sz, pu, pref)

		g3 := NewGrid3D(sz, sz+1, sz+2)
		v := make([]float64, g3.NX*g3.NY*g3.NZ)
		for i := range v {
			v[i] = float64(i%5) / 5
		}
		vref := append([]float64(nil), v...)
		h3.Grid = g3
		if err := h3.Step(v, 1e-3); err != nil {
			t.Fatal(err)
		}
		f3 := &Heat3D[float64]{Grid: g3, Alpha: 0.1, Backend: CPUBackend[float64]()}
		if err := f3.Step(vref, 1e-3); err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, "Heat3D", sz, v, vref)
	}
}

func assertSameBits(t *testing.T, name string, sz int, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s size %d: element %d = %v after reuse, fresh %v", name, sz, i, got[i], want[i])
		}
	}
}
