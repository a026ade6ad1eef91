package bench

import (
	"testing"
	"time"

	"gputrid/internal/core"
	"gputrid/internal/cpu"
	"gputrid/internal/workload"
)

// The acceptance shape of the reusable-solver work: a mid-size batch
// solved repeatedly, as a time-stepping loop would.
const (
	reuseM = 64
	reuseN = 1024
)

// BenchmarkSolveOneShot is the baseline: every solve builds a fresh
// pipeline, allocates its arenas, and records the device events from
// scratch.
func BenchmarkSolveOneShot(b *testing.B) {
	batch := workload.Batch[float64](workload.DiagDominant, reuseM, reuseN, 1)
	cfg := core.Config{K: core.KAuto}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Solve(cfg, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveReuse is the steady state of a warmed pipeline: arenas
// pre-allocated, device events recorded once, the arithmetic replayed
// natively, zero heap allocations per solve (check with -benchmem).
// Compare against BenchmarkSolveOneShot; results are bitwise identical
// (see core.TestPipelineReuseMatchesSolve).
//
// replay/cpu divides the time per solve by that of cpu.SolveBatchSeq
// (sequential Thomas) on the same batch, timed after the loop in the
// same run, so the ratio does not depend on the host's speed.
func BenchmarkSolveReuse(b *testing.B) {
	batch := workload.Batch[float64](workload.DiagDominant, reuseM, reuseN, 1)
	p, err := core.NewPipeline[float64](core.Config{K: core.KAuto}, reuseM, reuseN)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	dst := make([]float64, reuseM*reuseN)
	if err := p.SolveInto(dst, batch); err != nil { // recording solve
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SolveInto(dst, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	replay := b.Elapsed()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.SolveBatchSeq(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(replay)/float64(time.Since(start)), "replay/cpu")
}
