package core

import (
	"gputrid/internal/num"
	"gputrid/internal/pcr"
	"gputrid/internal/pthomas"
)

// This file is the pipeline's native replay: once a pipeline has
// recorded its launch geometry, a solve on a device with no fault
// injector armed runs the kernels' arithmetic as plain loops instead of
// pushing every simulated thread through Block phases and the sliding
// window's shared-memory shuffles. The loops evaluate the kernels'
// expressions in the same order over the same dependency DAG, so the
// solution is bitwise identical to a simulated solve — including the
// NaN a zero leading diagonal spreads through the virtual halo rows.

// nativeBufs is one worker's scratch for the k >= 1 native path: two
// PCR level buffers of n + 2·f(k) rows (row i of the system at index
// i + f(k)) and the c'/d' sweep of one system.
type nativeBufs[T num.Real] struct {
	lv     [2][]pcr.Row[T]
	cp, dp []T
}

func newNativeBufs[T num.Real](n, k int) nativeBufs[T] {
	rows := n + 2*((1<<k)-1)
	return nativeBufs[T]{
		lv: [2][]pcr.Row[T]{make([]pcr.Row[T], rows), make([]pcr.Row[T], rows)},
		cp: make([]T, n),
		dp: make([]T, n),
	}
}

// runNative executes w's shard natively, checking the solve's context
// between systems (k >= 1) or thread blocks of bs systems (k = 0).
func (p *Pipeline[T]) runNative(w *pipeWorker[T]) error {
	if p.k == 0 {
		for blk := w.firstBlk; blk < w.firstBlk+w.nBlk; blk++ {
			if p.ctx != nil && p.ctx.Err() != nil {
				return cancelled(p.ctx.Err())
			}
			s0 := blk * p.bs
			nativeThomasInterleaved(&p.bufs, s0, min(s0+p.bs, p.m), p.m, p.n)
		}
		return nil
	}
	in, x := &p.in, p.bufs.X.Data
	for sys := w.firstSys; sys < w.firstSys+w.nSys; sys++ {
		if p.ctx != nil && p.ctx.Err() != nil {
			return cancelled(p.ctx.Err())
		}
		base := sys * p.n
		rows := nativePCR(&w.nb, in.A.Data[base:base+p.n], in.B.Data[base:base+p.n],
			in.C.Data[base:base+p.n], in.D.Data[base:base+p.n], p.k)
		nativeThomasStrided(rows, x[base:base+p.n], w.nb.cp, w.nb.dp, 1<<p.k)
	}
	return nil
}

// nativePCR reduces one n-row system by k PCR levels and returns its
// level-k rows (length n). It reproduces the tiled window's dependency
// DAG: identity rows pad level 0 only, and every level j computes its
// virtual halo rows over the reach 2^k − 2^j the level-k rows depend
// on, instead of re-padding each level with identity rows the way
// pcr.Step does. The two differ exactly when a halo row's Combine is
// not the identity — a zero leading diagonal turns it into NaN.
//
//tridlint:hotpath
func nativePCR[T num.Real](nb *nativeBufs[T], a, b, c, d []T, k int) []pcr.Row[T] {
	n := len(b)
	off := (1 << k) - 1
	cur, next := nb.lv[0], nb.lv[1]
	for i := range cur {
		r := &cur[i]
		g := i - off
		if g < 0 || g >= n {
			r.A, r.B, r.C, r.D = 0, 1, 0, 0
			continue
		}
		r.A, r.B, r.C, r.D = a[g], b[g], c[g], d[g]
	}
	// The solver convention: Lower[0] and Upper[n-1] are ignored.
	cur[off].A = 0
	cur[off+n-1].C = 0
	for j := 1; j <= k; j++ {
		h := 1 << (j - 1)
		reach := (1 << k) - (1 << j)
		for i := off - reach; i < off+n+reach; i++ {
			next[i] = pcr.Combine(cur[i-h], cur[i], cur[i+h])
		}
		cur, next = next, cur
	}
	return cur[off : off+n]
}

// nativeThomasStrided solves the p interleaved subsystems that k-step
// PCR leaves in rows (subsystem r = rows r, r+p, r+2p, ...), writing x.
// Each row runs pthomas.ThreadStrided's expressions; the p subsystems
// advance together so consecutive iterations touch consecutive rows.
//
//tridlint:hotpath
func nativeThomasStrided[T num.Real](rows []pcr.Row[T], x, cp, dp []T, p int) {
	n := len(rows)
	for i := 0; i < n; i++ {
		r := &rows[i]
		if i < p {
			bv := r.B
			cp[i] = r.C / bv
			dp[i] = r.D / bv
			continue
		}
		av := r.A
		den := r.B - cp[i-p]*av
		inv := 1 / den
		cp[i] = r.C * inv
		dp[i] = (r.D - dp[i-p]*av) * inv
	}
	for i := n - 1; i >= 0; i-- {
		if i+p >= n {
			x[i] = dp[i]
			continue
		}
		x[i] = dp[i] - cp[i]*x[i+p]
	}
}

// nativeThomasInterleaved solves systems [s0, s1) of the interleaved
// batch bound in g (row l of system s at l·m + s), one thread block of
// the k = 0 kernel. Each system runs pthomas.ThreadInterleaved's
// expressions; systems are innermost so every row sweep reads
// consecutive addresses, as the block's threads do on the device.
//
//tridlint:hotpath
func nativeThomasInterleaved[T num.Real](g *pthomas.Bufs[T], s0, s1, m, n int) {
	A, B, C, D := g.A.Data, g.B.Data, g.C.Data, g.D.Data
	cp, dp, x := g.Cp.Data, g.Dp.Data, g.X.Data
	w := s1 - s0
	{
		b, c, d := B[s0:s1], C[s0:s0+w], D[s0:s0+w]
		cr, dr := cp[s0:s0+w], dp[s0:s0+w]
		for s := range b {
			bv := b[s]
			cr[s] = c[s] / bv
			dr[s] = d[s] / bv
		}
	}
	for l := 1; l < n; l++ {
		lo := l*m + s0
		a, b, c, d := A[lo:lo+w], B[lo:lo+w], C[lo:lo+w], D[lo:lo+w]
		cr, dr := cp[lo:lo+w], dp[lo:lo+w]
		cq, dq := cp[lo-m:lo-m+w], dp[lo-m:lo-m+w]
		for s := range a {
			av := a[s]
			den := b[s] - cq[s]*av
			inv := 1 / den
			cr[s] = c[s] * inv
			dr[s] = (d[s] - dq[s]*av) * inv
		}
	}
	lo := (n-1)*m + s0
	copy(x[lo:lo+w], dp[lo:lo+w])
	for l := n - 2; l >= 0; l-- {
		lo := l*m + s0
		xr, xq := x[lo:lo+w], x[lo+m:lo+m+w]
		cr, dr := cp[lo:lo+w], dp[lo:lo+w]
		for s := range xr {
			xr[s] = dr[s] - cr[s]*xq[s]
		}
	}
}
