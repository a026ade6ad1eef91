package scenario

import (
	"time"

	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
)

// The canned fleet stories, one constructor each. Every call returns a
// fresh value, so a test may mutate its copy. TestDeviceDeathScenario
// and its siblings (runner_test.go) replay them, TestLoadCannedScenarios
// checks each validates, and TestValidate mutates grayFailure to reach
// each rejection.

func ptr[T any](v T) *T { return &v }

// deviceDeath is the acceptance scenario: 3 devices under sustained
// load, device 1 suffers a fatal XID at t=5s (while its queue is full
// of live requests), and heals at t=8s. The fleet must cordon and
// drain it, re-route its traffic with zero incorrect responses and
// bounded rejections, and bring it back through probation to active by
// the end.
func deviceDeath() *Scenario {
	return &Scenario{
		Name:     "device_death",
		Seed:     42,
		Tick:     250 * time.Millisecond,
		Duration: 10 * time.Second,
		M:        8, N: 64,
		Variants: 4,

		Devices: 3, InitialActive: 3, MinActive: 2,
		Capacity: 2, Queue: 64,

		Probation:    500 * time.Millisecond,
		DrainTimeout: 2 * time.Second,

		Load: []LoadPhase{
			{From: 0, To: 10 * time.Second, RPS: 120},
		},
		Events: []Event{
			{At: 5 * time.Second, Device: 1, Kind: gpusim.HealthXID, XID: 79, Message: "GPU has fallen off the bus"},
			{At: 8 * time.Second, Device: 1, Kind: gpusim.HealthHealed},
		},

		Assert: Assertions{
			MinServed:       900,       // 1200 issued; most must be served
			MaxRejectedFrac: ptr(0.25), // bounded 503s during the re-route window
			Cordons:         ptr(1),    // exactly the one death
			MinRerouted:     1,         // the death provably hit live traffic
			FinalStates: []FinalState{
				{Device: 0, States: []fleet.DeviceState{fleet.StateActive}},
				{Device: 1, States: []fleet.DeviceState{fleet.StateActive}}, // healed at 8s, probation 500ms, promoted
				{Device: 2, States: []fleet.DeviceState{fleet.StateActive}},
			},
		},
	}
}

// distributedDeviceDeath is the distributed acceptance scenario: 3
// devices serve regular traffic while a huge-N batch is solved *across*
// all three through the simulated interconnect fabric. Device 1's
// simulated silicon is armed to die on its first kernel launch of the
// distributed solve (a permanent abort — every retry on that device
// dies too). The solve must complete anyway, bitwise identical to a
// fault-free reference (the runner verifies this unconditionally), the
// death must surface into the health feed mid-solve so the very next
// control-loop tick cordons the device while the distributed solve is
// still in flight, and the serving plane must keep answering with zero
// incorrect responses throughout.
func distributedDeviceDeath() *Scenario {
	return &Scenario{
		Name:     "distributed_device_death",
		Seed:     42,
		Tick:     250 * time.Millisecond,
		Duration: 6 * time.Second,
		M:        8, N: 64,
		Variants: 4,

		Devices: 3, InitialActive: 3, MinActive: 2,
		Capacity: 2, Queue: 64,

		DrainTimeout: 2 * time.Second,

		Load: []LoadPhase{
			{From: 0, To: 6 * time.Second, RPS: 80},
		},

		Distributed: &DistSpec{
			M: 4, N: 4097,
			At:      2 * time.Second,
			Victims: []int{1},
		},

		Assert: Assertions{
			MinServed:         350, // 480 issued; the cordon window sheds a few
			MaxRejectedFrac:   ptr(0.25),
			Cordons:           ptr(1), // exactly the mid-solve death
			MinDistSolves:     1,      // the distributed solve completed...
			DistDeaths:        ptr(1), // ...despite exactly one device death...
			MinDistMigrations: 1,      // ...whose slab provably migrated
			FinalStates: []FinalState{
				{Device: 0, States: []fleet.DeviceState{fleet.StateActive}},
				{Device: 1, States: []fleet.DeviceState{fleet.StateDead}}, // cordoned mid-solve, never healed
				{Device: 2, States: []fleet.DeviceState{fleet.StateActive}},
			},
		},
	}
}

// grayFailure is the gray-failure acceptance scenario: 4 devices serve
// regular traffic while repeated huge-N batches are solved across the
// simulated fabric. Two of the devices are failing in ways no driver
// event will ever announce:
//
//   - device 2 is a silent straggler: its modeled kernel time is 20x
//     its spec (thermal brownout, a dying VRM), but every answer it
//     computes is bit-exact and no health event fires;
//   - device 1 has a flaky link: transfers touching it are silently
//     corrupted at a seeded per-transfer rate — the transfer layer
//     reports success, and only the solver's end-to-end checksums can
//     notice.
//
// The fleet must (a) serve every accepted response bitwise identical to
// the fault-free reference — straggler slabs hedged onto healthy
// devices, corrupted transfers caught by checksum and re-exchanged,
// zero slabs degraded off the bit-exact device path; and (b) diagnose
// both gray devices from statistical evidence alone and cordon them
// within the asserted tick bounds.
func grayFailure() *Scenario {
	return &Scenario{
		Name:     "gray_failure",
		Seed:     42,
		Tick:     250 * time.Millisecond,
		Duration: 5 * time.Second,
		M:        8, N: 64,
		Variants: 4,

		Devices: 4, InitialActive: 4, MinActive: 1,
		Capacity: 2, Queue: 64,

		DrainTimeout: 2 * time.Second,

		Load: []LoadPhase{
			{From: 0, To: 5 * time.Second, RPS: 60},
		},

		// Four distributed solves, 500ms apart, starting at 1s —
		// repeated solves are how gray failures accumulate detectable
		// evidence.
		Distributed: &DistSpec{
			M: 4, N: 4097,
			At:    1 * time.Second,
			Count: 4,
			Every: 500 * time.Millisecond,
		},

		Gray: &GraySpec{
			Straggler:      &Straggler{Device: 2, Factor: 20},
			Flaky:          &Flaky{Device: 1, Rate: 0.3},
			MinSamples:     2, // two solves of latency evidence before judging
			IntegrityLimit: 2, // two caught corruptions convict the link
		},

		Assert: Assertions{
			MinServed:           200,
			MaxRejectedFrac:     ptr(0.25),
			Cordons:             ptr(2), // exactly the two gray devices
			MinDistSolves:       4,      // every distributed solve completed
			DistDeaths:          ptr(0), // nothing actually died — that is the point
			MinIntegrityRetries: 2,      // the corruption provably happened and was caught
			MinHedges:           1,      // the straggler provably triggered speculation
			MaxDistDegraded:     ptr(0), // no slab left the bit-exact device path
			// Detection-latency bounds (0-based ticks).
			CordonedBy: []CordonDeadline{
				{Device: 2, Tick: 7}, // straggler: flagged on its 2nd solve (tick 6)
				{Device: 1, Tick: 6}, // flaky link: retries cross the limit on its 1st solve (tick 4)
			},
			FinalStates: []FinalState{
				{Device: 0, States: []fleet.DeviceState{fleet.StateActive}},
				{Device: 1, States: []fleet.DeviceState{fleet.StateDead}}, // cordoned for link corruption, never healed
				{Device: 2, States: []fleet.DeviceState{fleet.StateDead}}, // cordoned as a straggler, never healed
				{Device: 3, States: []fleet.DeviceState{fleet.StateActive}},
			},
		},
	}
}

// thermalAutoscale is thermal throttling plus autoscaling: 4 devices, 2
// active. A load surge drives the autoscaler to activate standby
// capacity; device 0 thermally throttles mid-surge (deprioritized,
// never drained) and recovers; when the surge ends the fleet scales
// back down.
func thermalAutoscale() *Scenario {
	return &Scenario{
		Name:     "thermal_autoscale",
		Seed:     7,
		Tick:     250 * time.Millisecond,
		Duration: 12 * time.Second,
		M:        8, N: 64,
		Variants: 2,

		Devices: 4, InitialActive: 2, MinActive: 1,
		Capacity: 2, Queue: 128,

		Probation:     500 * time.Millisecond,
		ScaleCooldown: 750 * time.Millisecond,
		ScaleUpAt:     1.5,
		ScaleDownAt:   0.25,

		Load: []LoadPhase{
			{From: 0, To: 4 * time.Second, RPS: 8},                 // idle-ish baseline
			{From: 4 * time.Second, To: 9 * time.Second, RPS: 160}, // surge: far beyond 2 devices' slots
			{From: 9 * time.Second, To: 12 * time.Second, RPS: 2},  // cooldown tail
		},
		Events: []Event{
			{At: 5 * time.Second, Device: 0, Kind: gpusim.HealthThermal, Temp: 96, Message: "slowdown at 96C"},
			{At: 7 * time.Second, Device: 0, Kind: gpusim.HealthHealed},
		},

		Assert: Assertions{
			MinServed:       700,
			MaxRejectedFrac: ptr(0.2),
			MinScaleUps:     1,
			MinScaleDowns:   1,
			FinalStates: []FinalState{
				{Device: 0, States: []fleet.DeviceState{fleet.StateActive, fleet.StateProbation}},
			},
		},
	}
}
