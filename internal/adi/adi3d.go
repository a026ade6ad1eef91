package adi

import (
	"fmt"

	"gputrid/internal/core"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// Grid3D is a uniform interior grid on the unit cube: nx × ny × nz
// unknowns, u = 0 on the boundary, index = (k*ny + j)*nx + i.
type Grid3D struct {
	NX, NY, NZ int
	HX, HY, HZ float64
}

// NewGrid3D builds the grid for nx × ny × nz interior points.
func NewGrid3D(nx, ny, nz int) Grid3D {
	return Grid3D{
		NX: nx, NY: ny, NZ: nz,
		HX: 1 / float64(nx+1), HY: 1 / float64(ny+1), HZ: 1 / float64(nz+1),
	}
}

func (g Grid3D) idx(i, j, k int) int { return (k*g.NY+j)*g.NX + i }

// second differences along each axis (undivided).
func dxx3[T num.Real](g Grid3D, u []T, i, j, k int) T {
	c := u[g.idx(i, j, k)]
	var l, r T
	if i > 0 {
		l = u[g.idx(i-1, j, k)]
	}
	if i < g.NX-1 {
		r = u[g.idx(i+1, j, k)]
	}
	return l - 2*c + r
}

func dyy3[T num.Real](g Grid3D, u []T, i, j, k int) T {
	c := u[g.idx(i, j, k)]
	var l, r T
	if j > 0 {
		l = u[g.idx(i, j-1, k)]
	}
	if j < g.NY-1 {
		r = u[g.idx(i, j+1, k)]
	}
	return l - 2*c + r
}

func dzz3[T num.Real](g Grid3D, u []T, i, j, k int) T {
	c := u[g.idx(i, j, k)]
	var l, r T
	if k > 0 {
		l = u[g.idx(i, j, k-1)]
	}
	if k < g.NZ-1 {
		r = u[g.idx(i, j, k+1)]
	}
	return l - 2*c + r
}

// Heat3D integrates u_t = alpha ∇²u with the Douglas-Gunn scheme:
// three tridiagonal sweeps per step, unconditionally stable and
// second-order in time for the homogeneous problem.
type Heat3D[T num.Real] struct {
	Grid    Grid3D
	Alpha   float64
	Backend Backend[T]

	// The three line batches and the stage-2 state, sized on the first
	// Step and reused by every later one.
	b1, b2, b3 *matrix.Batch[T]
	v2         []T
}

// Step advances u (length NX*NY*NZ) by dt. As with Heat2D.Step, the
// batches handed to the backend are reused by the next Step.
func (h *Heat3D[T]) Step(u []T, dt float64) error {
	g := h.Grid
	total := g.NX * g.NY * g.NZ
	if len(u) != total {
		return fmt.Errorf("adi: state length %d != %d", len(u), total)
	}
	if h.Backend == nil {
		h.Backend = GPUBackend[T](core.Config{K: core.KAuto})
	}
	lx := T(h.Alpha * dt / (g.HX * g.HX))
	ly := T(h.Alpha * dt / (g.HY * g.HY))
	lz := T(h.Alpha * dt / (g.HZ * g.HZ))

	// Stage 1 (x-implicit):
	// (I − lx/2 Dx) v1 = [I + lx/2 Dx + ly Dy + lz Dz] u
	h.b1 = reuseBatch(h.b1, g.NY*g.NZ, g.NX)
	fillLines(h.b1, -lx/2, 1+lx, func(line, i int) T {
		j, k := line%g.NY, line/g.NY
		return u[g.idx(i, j, k)] +
			lx/2*dxx3(g, u, i, j, k) +
			ly*dyy3(g, u, i, j, k) +
			lz*dzz3(g, u, i, j, k)
	})
	v1, err := h.Backend(h.b1)
	if err != nil {
		return err
	}
	// v1 is already in grid layout (x-lines are contiguous).

	// Stage 2 (y-implicit): (I − ly/2 Dy) v2 = v1 − ly/2 Dy u
	h.b2 = reuseBatch(h.b2, g.NX*g.NZ, g.NY)
	fillLines(h.b2, -ly/2, 1+ly, func(line, j int) T {
		i, k := line%g.NX, line/g.NX
		return v1[g.idx(i, j, k)] - ly/2*dyy3(g, u, i, j, k)
	})
	x2, err := h.Backend(h.b2)
	if err != nil {
		return err
	}
	h.v2 = reuseSlice(h.v2, total)
	v2 := h.v2
	for k := 0; k < g.NZ; k++ {
		for i := 0; i < g.NX; i++ {
			base := (k*g.NX + i) * g.NY
			for j := 0; j < g.NY; j++ {
				v2[g.idx(i, j, k)] = x2[base+j]
			}
		}
	}

	// Stage 3 (z-implicit): (I − lz/2 Dz) u' = v2 − lz/2 Dz u
	h.b3 = reuseBatch(h.b3, g.NX*g.NY, g.NZ)
	fillLines(h.b3, -lz/2, 1+lz, func(line, k int) T {
		i, j := line%g.NX, line/g.NX
		return v2[g.idx(i, j, k)] - lz/2*dzz3(g, u, i, j, k)
	})
	x3, err := h.Backend(h.b3)
	if err != nil {
		return err
	}
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			base := (j*g.NX + i) * g.NZ
			for k := 0; k < g.NZ; k++ {
				u[g.idx(i, j, k)] = x3[base+k]
			}
		}
	}
	return nil
}
