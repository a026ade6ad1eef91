package gputrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gputrid/internal/batcher"
	"gputrid/internal/clock"
	"gputrid/internal/cpu"
	"gputrid/internal/matrix"
)

// TimerClock is the injectable time source the batching front-end
// needs: a Clock that can also mint deadline timers. Wall time in
// production; clock.VirtualClock in deterministic tests.
type TimerClock = clock.TimerClock

// Megabatch is the coalesced unit of work the batching front-end
// hands to Pool.SolveMegabatch: Count real systems interleaved in V,
// solution in Xi, per-system outcomes in Verdicts. See the batcher
// package for the field contract.
type Megabatch[T Real] = batcher.Megabatch[T]

// CoalescedResult reports how a batched request travelled: its own
// system count, the size of the megabatch it rode in, rescued
// systems, and queue wait.
type CoalescedResult = batcher.Result

// BatcherStats snapshots the coalescing front-end's counters.
type BatcherStats = batcher.Stats

// Typed batching-layer errors, matchable with errors.Is.
var (
	// ErrBatcherClosed matches solves after Batcher.Close.
	ErrBatcherClosed = batcher.ErrClosed
	// ErrBatcherSaturated matches requests shed because the shape's
	// coalescing queue is full of sealed megabatches — the batching
	// tier's overload signal.
	ErrBatcherSaturated = batcher.ErrSaturated
	// ErrBatcherShapeLimit matches requests for a new row count when
	// the batcher already coalesces its maximum number of shapes.
	ErrBatcherShapeLimit = batcher.ErrShapeLimit
)

// BatcherConfig tunes a coalescing front-end; the zero value is the
// production default (64-system megabatches, 2ms max wait, 200µs
// deadline slack, 8 shapes, 4 queued flights, wall clock). The solve
// and service-time hooks are wired to the Pool by NewBatcher.
type BatcherConfig struct {
	// MaxBatch is the megabatch capacity in systems; it is also the M
	// the pool's megabatch solvers are built for. 0 means 64.
	MaxBatch int
	// MaxWait bounds how long a flight's first request waits for
	// company. 0 means 2ms.
	MaxWait time.Duration
	// SlackMargin is the safety margin subtracted (with the expected
	// service time) from request deadlines when scheduling flushes.
	// 0 means 200µs.
	SlackMargin time.Duration
	// MaxShapes caps live per-N coalescing queues. 0 means 8.
	MaxShapes int
	// MaxQueuedFlights caps sealed megabatches awaiting the solver
	// per shape before Solve sheds. 0 means 4.
	MaxQueuedFlights int
	// Clock drives flush deadlines; nil means wall time.
	Clock TimerClock
}

// Batcher is the dynamic request-coalescing front-end over a Pool:
// concurrent small same-shaped requests are merged into interleaved
// megabatches (born in the layout the k = 0 kernels consume, so the
// coalesced path never pays the blocked transpose) and solved through
// one pooled megabatch solver lease; each caller gets back exactly
// its own systems and its own guard verdicts. Coalesced solutions are
// bitwise identical to solving each request alone at k = 0.
//
// Build one with NewBatcher over an existing Pool; the Pool may keep
// serving direct traffic concurrently (megabatch solvers live in
// their own pool stations, so the two tiers never compete for
// instances). Safe for concurrent use.
type Batcher[T Real] struct {
	pool  *Pool[T]
	inner *batcher.Batcher[T]
}

// NewBatcher builds a coalescing front-end over p. The batcher owns
// no solvers — megabatches acquire the pool's dedicated megabatch
// stations (shape MaxBatch×N, built with PoolConfig.MegabatchOptions)
// — and its flush deadlines are informed by the pool's per-shape
// megabatch service-time EWMA.
func NewBatcher[T Real](p *Pool[T], cfg BatcherConfig) (*Batcher[T], error) {
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 64
	}
	inner, err := batcher.New(batcher.Config[T]{
		MaxBatch:         maxBatch,
		MaxWait:          cfg.MaxWait,
		SlackMargin:      cfg.SlackMargin,
		MaxShapes:        cfg.MaxShapes,
		MaxQueuedFlights: cfg.MaxQueuedFlights,
		Clock:            cfg.Clock,
		ServiceTime: func(n int) (time.Duration, bool) {
			return p.ServiceTimeMega(maxBatch, n)
		},
		Solve: p.SolveMegabatch,
	})
	if err != nil {
		return nil, fmt.Errorf("gputrid: %w", err)
	}
	return &Batcher[T]{pool: p, inner: inner}, nil
}

// Solve submits the batch for coalescing and blocks until its flight
// has flushed, returning the caller-owned solution in natural order
// (row j of system i at x[i*N+j]) plus the coalescing report. A batch
// larger than MaxBatch bypasses the coalescer to the pool's direct
// path. Per-system guard failures in the same megabatch fail only the
// requests owning them; errors are typed (ErrBatcherSaturated,
// ErrBatcherClosed, ErrCancelled, ErrOverloaded, ...).
func (b *Batcher[T]) Solve(ctx context.Context, batch *Batch[T]) ([]T, CoalescedResult, error) {
	if batch.M > b.inner.MaxBatch() {
		pr, err := b.pool.Solve(ctx, batch)
		if err != nil {
			return nil, CoalescedResult{}, err
		}
		return pr.X, CoalescedResult{Systems: batch.M, FlushSize: batch.M, Wait: pr.Wait}, nil
	}
	x := make([]T, batch.M*batch.N)
	res, err := b.inner.Solve(ctx, &batcher.Request[T]{
		M: batch.M, N: batch.N,
		Lower: batch.Lower, Diag: batch.Diag, Upper: batch.Upper, RHS: batch.RHS,
		X: x,
	})
	if err != nil {
		return nil, res, fmt.Errorf("gputrid: %w", err)
	}
	return x, res, nil
}

// MaxBatch returns the resolved megabatch capacity.
func (b *Batcher[T]) MaxBatch() int { return b.inner.MaxBatch() }

// Stats snapshots the coalescing counters (flush causes, padding,
// queue depths, shed and cancelled requests).
func (b *Batcher[T]) Stats() BatcherStats { return b.inner.Stats() }

// Close drains the coalescing queues — parked requests flush and
// complete — and rejects further Solves with ErrBatcherClosed. It
// does not close the underlying Pool, which the caller owns.
func (b *Batcher[T]) Close() { b.inner.Close() }

// SolveMegabatch solves one coalesced megabatch through a pooled
// megabatch solver lease: route through the breaker, acquire from the
// shape's dedicated megabatch station, run the interleaved-native
// solve (no transpose at k = 0), then scan per-system residuals from
// the megabatch's own scratch and rescue any failing system on the
// host pivoting path — recording the outcome in that system's Verdict
// so one corrupt system fails only the request that submitted it.
// With the breaker open, every system is served individually on the
// host path instead. A non-nil return fails the whole flight and is
// reserved for infrastructure errors (admission, cancellation,
// unrecovered whole-batch faults).
//
// The batching front-end calls this from its flusher; it is exported
// for callers that assemble their own interleaved megabatches.
func (p *Pool[T]) SolveMegabatch(ctx context.Context, mb *Megabatch[T]) error {
	if mb.Count == 0 {
		return nil
	}
	device, probe := p.inner.Route()
	if !device {
		return p.megaFallback(ctx, mb)
	}

	lease, err := p.inner.AcquireMega(ctx, mb.V.M, mb.V.N)
	if err != nil {
		p.inner.Abandon(probe)
		return fmt.Errorf("gputrid: %w", err)
	}
	s := lease.Solver
	err = s.SolveInterleavedIntoCtx(lease.Ctx, mb.Xi, mb.V)
	svc := s.LastSolveTime()
	faulted := s.FaultReport() != nil
	if err != nil {
		lease.Release(0)
		if errors.Is(err, ErrCancelled) {
			p.inner.Abandon(probe)
		} else {
			p.inner.Record(probe, true)
		}
		return err
	}
	lease.Release(svc)
	// Breaker signal: fault-layer activity marks device degradation;
	// guard failures below do not — they indicate sick input systems,
	// not a sick device.
	p.inner.Record(probe, faulted)

	p.guardMegabatch(mb)
	return nil
}

// guardMegabatch scans per-system residuals (allocation-free, from
// the megabatch's scratch) and rescues failing systems on the host
// pivoting path, filling per-system Verdicts.
func (p *Pool[T]) guardMegabatch(mb *Megabatch[T]) {
	m := mb.V.M
	tol := matrix.ResidualTolerance[T](mb.V.N)
	res := mb.Scratch[:m]
	matrix.ResidualsPerSystemInterleavedInto(res, mb.Scratch[m:], mb.V, mb.Xi, mb.Count)
	for i := 0; i < mb.Count; i++ {
		// NaN residuals (from non-finite inputs) must fail too, so
		// compare through the negation.
		if res[i] <= tol {
			continue
		}
		p.rescueSystem(mb, i, res[i], tol)
	}
}

// rescueSystem re-solves megabatch system i on the host pivoting path
// and writes the verdict. The cold path: it allocates, but only for
// systems that already failed their residual check.
func (p *Pool[T]) rescueSystem(mb *Megabatch[T], i int, r, tol float64) {
	sys := mb.V.ExtractSystem(i)
	x, err := cpu.SolveGTSV(sys)
	if err != nil {
		mb.Verdicts[i].Err = fmt.Errorf(
			"gputrid: system residual %.3e exceeds tolerance %.3e and host rescue failed: %w", r, tol, err)
		return
	}
	if rr := matrix.Residual(sys, x); !(rr <= tol) || math.IsNaN(rr) {
		mb.Verdicts[i].Err = fmt.Errorf(
			"gputrid: system unsolvable within tolerance %.3e (fast %.3e, host rescue %.3e)", tol, r, rr)
		return
	}
	for j := 0; j < mb.V.N; j++ {
		mb.Xi[j*mb.V.M+i] = x[j]
	}
	mb.Verdicts[i].Rescued = true
}

// megaFallback serves a megabatch with the breaker open: every system
// individually on the host pivoting path, with per-system verdicts —
// the megabatch analogue of solveFallback.
func (p *Pool[T]) megaFallback(ctx context.Context, mb *Megabatch[T]) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("gputrid: %w: %w", ErrCancelled, err)
	}
	m, n := mb.V.M, mb.V.N
	tol := matrix.ResidualTolerance[T](n)
	w := cpu.NewGTSVWorkspace[T](n)
	x := make([]T, n)
	for i := 0; i < mb.Count; i++ {
		sys := mb.V.ExtractSystem(i)
		if err := cpu.SolveGTSVInto(sys, x, w); err != nil {
			mb.Verdicts[i].Err = fmt.Errorf("gputrid: fallback: %w", err)
			continue
		}
		if rr := matrix.Residual(sys, x); !(rr <= tol) || math.IsNaN(rr) {
			mb.Verdicts[i].Err = fmt.Errorf(
				"gputrid: fallback residual %.3e exceeds tolerance %.3e", rr, tol)
			continue
		}
		for j := 0; j < n; j++ {
			mb.Xi[j*m+i] = x[j]
		}
	}
	p.inner.RecordFallback()
	return nil
}
