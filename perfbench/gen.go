package main

import (
	"math"
	"math/rand/v2"

	"gputrid"
)

// The benchmark generates every input itself from the seed, so changes
// to the repository's own workload generators cannot move its inputs.

// Streams keep each input family independent of the others' draws.
const (
	streamServe = iota + 1
	streamSchedule
	streamHard
	streamADI
	streamDist
)

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// system is one tridiagonal system, laid out as tridserve takes it.
type system struct {
	Lower, Diag, Upper, RHS []float64
}

// ddSystem draws a strictly diagonally dominant system of n rows.
func ddSystem(rng *rand.Rand, n int) system {
	s := system{
		Lower: make([]float64, n), Diag: make([]float64, n),
		Upper: make([]float64, n), RHS: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			s.Lower[i] = 2*rng.Float64() - 1
		}
		if i < n-1 {
			s.Upper[i] = 2*rng.Float64() - 1
		}
		s.Diag[i] = math.Abs(s.Lower[i]) + math.Abs(s.Upper[i]) + 1 + rng.Float64()
		s.RHS[i] = 2*rng.Float64() - 1
	}
	return s
}

// zeroLeadSystem is a diagonally dominant system whose leading diagonal
// entry is zero: nonsingular, but it breaks any non-pivoting
// elimination at its first row.
func zeroLeadSystem(rng *rand.Rand, n int) system {
	s := ddSystem(rng, n)
	s.Diag[0] = 0
	return s
}

// serveSizes are the row counts of serve_small's single-system requests.
var serveSizes = []int{256, 512, 1024}

// variantsPerSize distinct systems are drawn per size; ops pick among
// them, so request bodies can be encoded before timing starts.
const variantsPerSize = 256

// hardShare is the share of hard (zero-leading-diagonal) inputs: one
// hard probe per hardShare ops sent.
const hardShare = 256

// serveSystems returns the distinct diagonally dominant request
// systems, variantsPerSize per size in serveSizes order.
func serveSystems(seed uint64) []system {
	rng := newRNG(seed, streamServe)
	out := make([]system, 0, len(serveSizes)*variantsPerSize)
	for _, n := range serveSizes {
		for v := 0; v < variantsPerSize; v++ {
			out = append(out, ddSystem(rng, n))
		}
	}
	return out
}

// opPicks returns which of the serve systems each of count ops sends.
func opPicks(rng *rand.Rand, count, systems int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = rng.IntN(systems)
	}
	return out
}

// hardSystems returns one zero-leading-diagonal system per hardShare
// ops sent (at least one), sizes cycling through serveSizes.
func hardSystems(seed uint64, opsSent int) []system {
	rng := newRNG(seed, streamHard)
	count := max(1, (opsSent+hardShare-1)/hardShare)
	out := make([]system, count)
	for i := range out {
		out[i] = zeroLeadSystem(rng, serveSizes[i%len(serveSizes)])
	}
	return out
}

// heatMode is one sin(pπx)·sin(qπy) eigenmode of the Dirichlet grid
// Laplacian with amplitude A.
type heatMode struct {
	P, Q int
	A    float64
}

// heatModes draws the adi_heat initial condition: three low modes.
func heatModes(seed uint64) []heatMode {
	rng := newRNG(seed, streamADI)
	out := make([]heatMode, 3)
	for i := range out {
		out[i] = heatMode{P: 1 + rng.IntN(4), Q: 1 + rng.IntN(4), A: 0.5 + rng.Float64()}
	}
	return out
}

// distBatch draws dist_slab's k-th M×N diagonally dominant batch: 0 is
// the timed one, the others only feed the accuracy check.
func distBatch(seed uint64, k, m, n int) *gputrid.Batch[float64] {
	rng := newRNG(seed, streamDist|uint64(k)<<8)
	b := gputrid.NewBatch[float64](m, n)
	for i := 0; i < m; i++ {
		s := ddSystem(rng, n)
		copy(b.Lower[i*n:], s.Lower)
		copy(b.Diag[i*n:], s.Diag)
		copy(b.Upper[i*n:], s.Upper)
		copy(b.RHS[i*n:], s.RHS)
	}
	return b
}

// batch views s as a one-system batch, for gputrid.Residual.
func (s system) batch() *gputrid.Batch[float64] {
	return &gputrid.Batch[float64]{M: 1, N: len(s.Diag), Lower: s.Lower, Diag: s.Diag, Upper: s.Upper, RHS: s.RHS}
}
