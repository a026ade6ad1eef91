package gpusim

import (
	"context"
	"fmt"
)

// Executor runs kernel blocks sequentially on the caller's goroutine,
// reusing one Block context (and its coalescing-slot capacity) across
// every call. It is the steady-state counterpart of Device.Launch:
// Launch allocates per-launch bookkeeping and fans blocks out over
// goroutines, which is the right shape for a one-shot solve but not
// for a solver handle that runs the same launch geometry every
// timestep. A pipeline creates one Executor per worker up front and
// then drives it with no per-solve heap allocations.
//
// Every block is recorded. With a non-nil Stats the architectural
// events of every block are accumulated into it (the same totals
// Launch would produce for those blocks); with nil they are recorded
// into the executor's scratch and discarded. The recorded events are a
// pure function of the launch geometry and array layout, never of the
// floating-point data (kernels contain no data-dependent control flow,
// and Global arrays are 512-byte aligned so the coalescing pattern is
// base-independent), which is what makes record-once sound: a pipeline
// records a geometry once and its Stats describe every later solve.
type Executor struct {
	dev     *Device
	blk     Block
	scratch Stats
}

// NewExecutor creates an executor for the device.
func NewExecutor(d *Device) *Executor {
	return &Executor{dev: d}
}

// RunBlocksCtx executes blocks [first, first+count) of a launch whose
// blocks have threadsPerBlock threads each, invoking kern once per
// block exactly as Launch does. A non-nil st accumulates the events via
// Stats.Accumulate — launch-header fields (Kernel, Launches, Blocks,
// ThreadsPerBlock) are the caller's responsibility. A block that
// allocates more shared memory than an SM holds fails the run with the
// same error Launch reports.
//
// A non-nil ctx is checked between blocks: once it is done,
// execution stops promptly and ctx.Err() is returned, with every block
// either fully executed or never started. When site.Inj is non-nil,
// each block consults the injector at (site.Kernel, block, site.Attempt)
// and a scheduled fault aborts the run with a typed *LaunchError:
// abort/hang faults before the block executes, corrupt faults after it
// executed with poisoned stores. Blocks before the faulted one keep
// their writes — the partial-output hazard the caller's retry repairs
// by re-running the whole range.
func (e *Executor) RunBlocksCtx(ctx context.Context, st *Stats, threadsPerBlock, first, count int, kern Kernel, site FaultSite) error {
	b := &e.blk
	b.Threads = threadsPerBlock
	b.dev = e.dev
	b.stats = &e.scratch
	for id := first; id < first+count; id++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if site.Inj != nil {
			if kind, ok := site.Inj.At(site.Kernel, id, site.Attempt); ok {
				if kind != FaultCorrupt {
					return &LaunchError{Kernel: site.Kernel, Block: id, Kind: kind, Attempt: site.Attempt}
				}
				b.corrupt = site.Inj.armCorrupt()
			}
		}
		e.scratch = Stats{}
		b.ID = id
		b.sharedSeq = 0
		kern(b)
		b.endPhaseSlots()
		b.endPhaseBankSlots()
		if b.corrupt != nil {
			b.corrupt = nil
			return &LaunchError{Kernel: site.Kernel, Block: id, Kind: FaultCorrupt, Attempt: site.Attempt}
		}
		if e.scratch.SharedPerBlock > e.dev.SharedMemPerSM {
			return fmt.Errorf("gpusim: block %d allocated %d bytes shared memory, device SM has %d",
				id, e.scratch.SharedPerBlock, e.dev.SharedMemPerSM)
		}
		if st != nil {
			st.Accumulate(&e.scratch)
		}
	}
	return nil
}
