// Package adi implements alternating-direction-implicit integrators —
// the fluid-dynamics workload family the paper targets (Sakharnykh,
// refs [4][5]: "Efficient tridiagonal solvers for ADI methods"). Every
// implicit half-sweep solves one tridiagonal system per grid line, so a
// 2-D or 3-D step is a perfect batch for the hybrid solver.
//
// Provided schemes (uniform grids, homogeneous Dirichlet boundaries):
//
//   - Heat2D: Peaceman-Rachford for u_t = α∇²u + f, second-order in
//     time and unconditionally stable;
//   - Poisson2D: the stationary PR iteration for −∇²u = f, with
//     Wachspress-cycled acceleration parameters;
//   - Heat3D: Douglas-Gunn for the 3-D heat equation (three tridiagonal
//     sweeps per step).
//
// The tridiagonal backend is pluggable so tests can swap the simulated
// GPU for the plain CPU path.
package adi

import (
	"fmt"
	"math"

	"gputrid/internal/core"
	"gputrid/internal/cpu"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// Backend solves every system of a batch, returning the solutions
// contiguously (the gputrid.SolveBatch contract).
type Backend[T num.Real] func(*matrix.Batch[T]) ([]T, error)

// GPUBackend returns a backend running the hybrid solver with the
// given configuration.
func GPUBackend[T num.Real](cfg core.Config) Backend[T] {
	return func(b *matrix.Batch[T]) ([]T, error) {
		x, _, err := core.Solve(cfg, b)
		return x, err
	}
}

// CPUBackend returns the sequential Thomas backend.
func CPUBackend[T num.Real]() Backend[T] {
	return cpu.SolveBatchSeq[T]
}

// Grid2D is a uniform interior grid on the unit square: nx × ny
// unknowns, u = 0 on the boundary, index = j*nx + i.
type Grid2D struct {
	NX, NY int
	HX, HY float64
}

// NewGrid2D builds the grid for nx × ny interior points.
func NewGrid2D(nx, ny int) Grid2D {
	return Grid2D{NX: nx, NY: ny, HX: 1 / float64(nx+1), HY: 1 / float64(ny+1)}
}

func (g Grid2D) idx(i, j int) int { return j*g.NX + i }

// dxx returns the undivided second difference in x at (i, j).
func dxx[T num.Real](g Grid2D, u []T, i, j int) T {
	c := u[g.idx(i, j)]
	var l, r T
	if i > 0 {
		l = u[g.idx(i-1, j)]
	}
	if i < g.NX-1 {
		r = u[g.idx(i+1, j)]
	}
	return l - 2*c + r
}

func dyy[T num.Real](g Grid2D, u []T, i, j int) T {
	c := u[g.idx(i, j)]
	var d, up T
	if j > 0 {
		d = u[g.idx(i, j-1)]
	}
	if j < g.NY-1 {
		up = u[g.idx(i, j+1)]
	}
	return d - 2*c + up
}

// reuseBatch returns b when it already holds m systems of n rows, and
// a new batch otherwise — the first step, or a step after Grid changed.
func reuseBatch[T num.Real](b *matrix.Batch[T], m, n int) *matrix.Batch[T] {
	if b == nil || b.M != m || b.N != n {
		return matrix.NewBatch[T](m, n)
	}
	return b
}

// reuseSlice is reuseBatch for a state-sized vector.
func reuseSlice[T num.Real](s []T, n int) []T {
	if len(s) != n {
		return make([]T, n)
	}
	return s
}

// fillLines writes the constant-coefficient systems (diag + offd·D)
// into every line of b, with rhs(line, row) on the right-hand side.
// Lower[0] and Upper[n-1] of each line are written as zero, so a
// reused batch carries nothing over from the previous step.
func fillLines[T num.Real](b *matrix.Batch[T], offd, diag T, rhs func(line, row int) T) {
	n := b.N
	if n == 0 {
		return
	}
	for line := 0; line < b.M; line++ {
		base := line * n
		for r := 0; r < n; r++ {
			b.Lower[base+r] = offd
			b.Diag[base+r] = diag
			b.Upper[base+r] = offd
			b.RHS[base+r] = rhs(line, r)
		}
		b.Lower[base] = 0
		b.Upper[base+n-1] = 0
	}
}

// lineBatchX fills b (reallocating it if its shape is stale) with the
// x-direction implicit systems: one per row j, solving
// (diag + offd·Dx) u_row = rhs.
func lineBatchX[T num.Real](b *matrix.Batch[T], g Grid2D, offd, diag T, rhs func(i, j int) T) *matrix.Batch[T] {
	b = reuseBatch(b, g.NY, g.NX)
	fillLines(b, offd, diag, func(j, i int) T { return rhs(i, j) })
	return b
}

// lineBatchY is lineBatchX in the y direction: one system per column i.
func lineBatchY[T num.Real](b *matrix.Batch[T], g Grid2D, offd, diag T, rhs func(i, j int) T) *matrix.Batch[T] {
	b = reuseBatch(b, g.NX, g.NY)
	fillLines(b, offd, diag, rhs)
	return b
}

// scatterX copies row-major solutions back into u.
func scatterX[T num.Real](g Grid2D, u, x []T) {
	copy(u, x) // row-major batch is already the grid layout
}

// scatterY copies column-major solutions back into u.
func scatterY[T num.Real](g Grid2D, u, x []T) {
	for i := 0; i < g.NX; i++ {
		for j := 0; j < g.NY; j++ {
			u[g.idx(i, j)] = x[i*g.NY+j]
		}
	}
}

// Heat2D integrates u_t = alpha ∇²u + f with Peaceman-Rachford steps.
type Heat2D[T num.Real] struct {
	Grid    Grid2D
	Alpha   float64
	Backend Backend[T]

	// The line batches and the half-step state, sized on the first Step
	// and reused by every later one.
	bx, by *matrix.Batch[T]
	half   []T
}

// Step advances u (length NX*NY) by dt; f may be nil for the
// homogeneous equation. The batches Step hands to the backend are
// reused by the next Step, so a backend must not retain them. With a
// backend that returns storage it owns, Step allocates nothing.
func (h *Heat2D[T]) Step(u, f []T, dt float64) error {
	g := h.Grid
	if len(u) != g.NX*g.NY {
		return fmt.Errorf("adi: state length %d != %d", len(u), g.NX*g.NY)
	}
	if h.Backend == nil {
		h.Backend = GPUBackend[T](core.Config{K: core.KAuto})
	}
	lx := T(h.Alpha * dt / (2 * g.HX * g.HX))
	ly := T(h.Alpha * dt / (2 * g.HY * g.HY))
	src := func(i, j int) T {
		if f == nil {
			return 0
		}
		return T(dt/2) * f[g.idx(i, j)]
	}

	// Half-step 1: implicit in x, explicit in y.
	h.bx = lineBatchX(h.bx, g, -lx, 1+2*lx, func(i, j int) T {
		return u[g.idx(i, j)] + ly*dyy(g, u, i, j) + src(i, j)
	})
	xs, err := h.Backend(h.bx)
	if err != nil {
		return err
	}
	h.half = reuseSlice(h.half, len(u))
	half := h.half
	copy(half, xs)

	// Half-step 2: implicit in y, explicit in x on the intermediate.
	h.by = lineBatchY(h.by, g, -ly, 1+2*ly, func(i, j int) T {
		return half[g.idx(i, j)] + lx*dxx(g, half, i, j) + src(i, j)
	})
	ys, err := h.Backend(h.by)
	if err != nil {
		return err
	}
	scatterY(g, u, ys)
	return nil
}

// Poisson2D solves −∇²u = f with the stationary Peaceman-Rachford
// iteration.
type Poisson2D[T num.Real] struct {
	Grid    Grid2D
	Backend Backend[T]

	// The line batches, sized on the first sweep and reused.
	bx, by *matrix.Batch[T]
}

// WachspressParams returns J acceleration parameters geometrically
// spaced across the Laplacian's eigenvalue range [a, b] — the classical
// optimal cycling for the PR iteration.
func WachspressParams(j int, a, b float64) []float64 {
	if j < 1 {
		j = 1
	}
	out := make([]float64, j)
	for i := 0; i < j; i++ {
		out[i] = b * math.Pow(a/b, (2*float64(i)+1)/(2*float64(j)))
	}
	return out
}

// DefaultParams returns a Wachspress cycle sized for the grid.
func (p *Poisson2D[T]) DefaultParams() []float64 {
	g := p.Grid
	a := 2 * math.Pi * math.Pi // ~ smallest eigenvalue of -∇² on the unit square
	b := 4/(g.HX*g.HX) + 4/(g.HY*g.HY)
	j := int(math.Ceil(math.Log2(b/a) / 2))
	if j < 3 {
		j = 3
	}
	return WachspressParams(j, a, b)
}

// Iterate runs `cycles` sweeps through the parameter list, updating u
// in place, and returns the final max-norm residual of −∇²u = f. Like
// Heat2D.Step it reuses the batches it hands to the backend.
func (p *Poisson2D[T]) Iterate(u, f []T, params []float64, cycles int) (float64, error) {
	g := p.Grid
	if len(u) != g.NX*g.NY || len(f) != g.NX*g.NY {
		return 0, fmt.Errorf("adi: state/f length mismatch")
	}
	if p.Backend == nil {
		p.Backend = GPUBackend[T](core.Config{K: core.KAuto})
	}
	if len(params) == 0 {
		params = p.DefaultParams()
	}
	ax := T(1 / (g.HX * g.HX))
	ay := T(1 / (g.HY * g.HY))
	for c := 0; c < cycles; c++ {
		for _, rhoF := range params {
			rho := T(rhoF)
			// x half-sweep: (rho + Ax) u' = f - Ay u + rho u, where
			// Ax = -dxx/hx², Ay = -dyy/hy².
			p.bx = lineBatchX(p.bx, g, -ax, 2*ax+rho, func(i, j int) T {
				return f[g.idx(i, j)] + ay*dyy(g, u, i, j) + rho*u[g.idx(i, j)]
			})
			xs, err := p.Backend(p.bx)
			if err != nil {
				return 0, err
			}
			scatterX(g, u, xs)
			// y half-sweep.
			p.by = lineBatchY(p.by, g, -ay, 2*ay+rho, func(i, j int) T {
				return f[g.idx(i, j)] + ax*dxx(g, u, i, j) + rho*u[g.idx(i, j)]
			})
			ys, err := p.Backend(p.by)
			if err != nil {
				return 0, err
			}
			scatterY(g, u, ys)
		}
	}
	return p.Residual(u, f), nil
}

// Residual returns max |f + ∇²u| over the grid.
func (p *Poisson2D[T]) Residual(u, f []T) float64 {
	g := p.Grid
	var worst float64
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			r := float64(f[g.idx(i, j)]) +
				float64(dxx(g, u, i, j))/(g.HX*g.HX) +
				float64(dyy(g, u, i, j))/(g.HY*g.HY)
			if a := math.Abs(r); a > worst {
				worst = a
			}
		}
	}
	return worst
}
