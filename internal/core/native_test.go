package core

import (
	"math"
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// sameBits reports whether a and b have identical bit patterns, so
// unlike == it tells −0 from +0. Any NaN matches any NaN: when two
// NaNs of different sign meet in a commutative operation, x86 returns
// the one in the first operand register, and which operand that is
// is the compiler's choice — two compilations of one expression may
// differ in a NaN's sign bit and nowhere else.
func sameBits[T num.Real](a, b T) bool {
	if a != a && b != b {
		return true
	}
	switch x := any(a).(type) {
	case float32:
		return math.Float32bits(x) == math.Float32bits(any(b).(float32))
	case float64:
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	}
	panic("sameBits: unsupported type")
}

// firstBitDiff returns the first index where a and b differ bitwise,
// or -1.
func firstBitDiff[T num.Real](a, b []T) int {
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// recordedAndNative solves b twice on one fresh pipeline — the
// recording solve runs the simulated kernels, the second solve the
// native loops — and returns both solutions.
func recordedAndNative[T num.Real](t *testing.T, cfg Config, b *matrix.Batch[T]) (rec, nat []T, k int) {
	t.Helper()
	p, err := NewPipeline[T](cfg, b.M, b.N)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rec = make([]T, b.M*b.N)
	nat = make([]T, b.M*b.N)
	if err := p.SolveInto(rec, b); err != nil {
		t.Fatalf("recording solve: %v", err)
	}
	if err := p.SolveInto(nat, b); err != nil {
		t.Fatalf("native solve: %v", err)
	}
	return rec, nat, p.K()
}

// TestNativeReplayBoundaryHalo pins the virtual halo rows above a
// system. The window computes them level by level from identity rows
// at level 0; re-padding every level with identity rows instead agrees
// on well-formed input but not here. A zero leading diagonal turns the
// level-1 halo row into NaN, and so does an infinite Upper[0] — which,
// unlike the zero diagonal, leaves the system's own rows NaN-free, so
// only the halo carries the NaN into the solution for k >= 2. The
// native loops must match the recorded solve at every depth and block
// split.
func TestNativeReplayBoundaryHalo(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(b *matrix.Batch[float64], n int)
	}{
		{"zero-leading-diagonal", func(b *matrix.Batch[float64], n int) { b.Diag[n] = 0 }},
		{"infinite-upper0", func(b *matrix.Batch[float64], n int) { b.Upper[n] = math.Inf(1) }},
	} {
		for k := 2; k <= 8; k++ {
			for g := 1; g <= 3; g++ {
				const m = 3
				n := (1 << k) + 37
				b := workload.Batch[float64](workload.DiagDominant, m, n, uint64(100*k+g))
				tc.plant(b, n) // system 1, row 0
				rec, nat, gotK := recordedAndNative(t, Config{K: k, BlocksPerSystem: g, Workers: 2}, b)
				if gotK != k {
					t.Fatalf("k=%d resolved to %d", k, gotK)
				}
				if i := firstBitDiff(rec, nat); i >= 0 {
					t.Fatalf("%s k=%d g=%d: x[%d] native %v, recorded %v", tc.name, k, g, i, nat[i], rec[i])
				}
				nan := false
				for _, v := range rec[n : 2*n] {
					nan = nan || math.IsNaN(v)
				}
				if !nan {
					t.Errorf("%s k=%d g=%d: no NaN in the planted system; the case is not exercised", tc.name, k, g)
				}
			}
		}
	}
}

// FuzzNativeReplay compares native and recorded solves bit for bit
// over k = 0…8, one to three blocks per system, varied shapes, both
// dtypes, and inputs that break the non-pivoting recurrences: a zero
// leading diagonal, near-singular rows and non-finite coefficients
// (see fuzzNativeReplay).
func FuzzNativeReplay(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(5), uint16(40), uint8(0), uint8(0), false)
	f.Add(uint64(2), uint8(3), uint8(1), uint8(2), uint16(100), uint8(4), uint8(1), false)
	f.Add(uint64(3), uint8(8), uint8(2), uint8(1), uint16(300), uint8(0), uint8(1), true)
	f.Add(uint64(4), uint8(5), uint8(0), uint8(7), uint16(33), uint8(2), uint8(2), false)
	f.Add(uint64(5), uint8(1), uint8(2), uint8(3), uint16(2), uint8(3), uint8(3), true)
	f.Add(uint64(6), uint8(6), uint8(1), uint8(4), uint16(130), uint8(4), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed uint64, kSel, gSel, mSel uint8, nSel uint16, kindSel, defect uint8, single bool) {
		cfg := Config{K: int(kSel % 9), BlocksPerSystem: int(gSel%3) + 1, Workers: 2}
		m := int(mSel%8) + 1
		n := int(nSel%300) + 1
		kind := workload.Kind(int(kindSel) % (int(workload.NearSingular) + 1))
		if single {
			fuzzNativeReplay[float32](t, cfg, m, n, kind, defect, seed)
		} else {
			fuzzNativeReplay[float64](t, cfg, m, n, kind, defect, seed)
		}
	})
}

// fuzzNativeReplay plants defect (0: none) in one system: a zero, a
// NaN or an infinity of either sign, in one of the four coefficients,
// on the first row, the last row or a seeded row — the first and last
// rows feed the virtual halo rows.
func fuzzNativeReplay[T num.Real](t *testing.T, cfg Config, m, n int, kind workload.Kind, defect uint8, seed uint64) {
	b := workload.Batch[T](kind, m, n, seed)
	if d := int(defect % 49); d > 0 {
		d--
		vals := [4]T{0, T(math.NaN()), T(math.Inf(1)), T(math.Inf(-1))}
		planes := [4][]T{b.Lower, b.Diag, b.Upper, b.RHS}
		row := [3]int{0, n - 1, int(seed>>8) % n}[d/16]
		planes[d/4%4][int(seed%uint64(m))*n+row] = vals[d%4]
	}
	rec, nat, k := recordedAndNative(t, cfg, b)
	if i := firstBitDiff(rec, nat); i >= 0 {
		t.Fatalf("k=%d g=%d m=%d n=%d kind=%v defect=%d: x[%d] native %v, recorded %v",
			k, cfg.BlocksPerSystem, m, n, kind, defect%49, i, nat[i], rec[i])
	}
}
