package scenario

import (
	"strings"
	"testing"
	"time"

	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
)

// TestDeviceDeathScenario is the acceptance scenario: 3 devices under
// sustained load, device 1 killed by a fatal XID at t=5s while its
// queue holds live requests, healed at t=8s. Every served response
// must be bitwise identical to its route's reference, rejections stay
// bounded, the dead device's traffic re-routes, and the device returns
// through probation to active — all on a virtual clock, replayable.
func TestDeviceDeathScenario(t *testing.T) {
	rep, err := Run(deviceDeath(), t.Logf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	// Beyond the scenario's own assertions, pin the story's key beats.
	if rep.Incorrect != 0 {
		t.Fatalf("incorrect responses: %d", rep.Incorrect)
	}
	if rep.Stats.Cordons != 1 || rep.Stats.Heals != 1 {
		t.Fatalf("cordons/heals = %d/%d, want 1/1", rep.Stats.Cordons, rep.Stats.Heals)
	}
	if rep.Stats.Rerouted == 0 {
		t.Fatal("no re-routes: the death did not land under live traffic")
	}
	if st := rep.Stats.Devices[1].State; st != fleet.StateActive {
		t.Fatalf("device 1 final state = %v, want active", st)
	}
	if rep.Stats.Devices[1].Served == 0 {
		t.Fatal("device 1 served nothing after healing")
	}
	t.Logf("\n%s", rep.Summary())
}

// TestDistributedDeviceDeathScenario is the distributed acceptance
// scenario: a huge-N batch is solved across all three devices' slice
// of the interconnect fabric while device 1 is armed to die on its
// first kernel launch of the solve. The solve must complete bitwise
// identical to the fault-free reference (verified unconditionally by
// the runner), the death must surface mid-solve so the next tick
// cordons the device while the solve is in flight, and the serving
// plane must stay correct throughout.
func TestDistributedDeviceDeathScenario(t *testing.T) {
	rep, err := Run(distributedDeviceDeath(), t.Logf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if rep.Incorrect != 0 || rep.DistFailed != 0 {
		t.Fatalf("incorrect %d / distributed failures %d, want 0/0", rep.Incorrect, rep.DistFailed)
	}
	if rep.Stats.DistSolves != 1 || rep.Stats.DistDeaths != 1 {
		t.Fatalf("dist solves/deaths = %d/%d, want 1/1", rep.Stats.DistSolves, rep.Stats.DistDeaths)
	}
	if rep.Stats.DistMigrations == 0 {
		t.Fatal("no slab migrations: the death cost no live work")
	}
	if st := rep.Stats.Devices[1].State; st != fleet.StateDead {
		t.Fatalf("device 1 final state = %v, want dead", st)
	}
	t.Logf("\n%s", rep.Summary())
}

// TestGrayFailureScenario is the gray-failure acceptance scenario: a
// silent straggler and a flaky (corrupting) link, neither of which
// ever raises a driver event, must both be diagnosed from
// distributed-solve evidence and cordoned within the scenario's asserted
// tick bounds — while every accepted response stays bitwise identical
// to the fault-free reference (every corruption caught by checksum
// and repaired, straggler slabs hedged onto healthy devices, zero
// slabs degraded off the bit-exact device path).
func TestGrayFailureScenario(t *testing.T) {
	rep, err := Run(grayFailure(), t.Logf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if rep.Incorrect != 0 || rep.DistFailed != 0 {
		t.Fatalf("incorrect %d / distributed failures %d, want 0/0", rep.Incorrect, rep.DistFailed)
	}
	// 100% corruption catch: every injected corrupt transfer was
	// noticed by a checksum and re-exchanged (an uncaught corruption
	// would have surfaced as an Incorrect response instead).
	if rep.Stats.DistIntegrityRetries == 0 {
		t.Fatal("no integrity retries: the flaky link never hit a verified transfer")
	}
	if rep.Stats.DistDegraded != 0 {
		t.Fatalf("%d slabs degraded to the host path; the scenario is tuned for in-place recovery", rep.Stats.DistDegraded)
	}
	if rep.Stats.GrayStragglers != 1 || rep.Stats.GrayLinkFlaky != 1 {
		t.Fatalf("detector flagged %d stragglers / %d flaky links, want 1/1",
			rep.Stats.GrayStragglers, rep.Stats.GrayLinkFlaky)
	}
	if rep.Stats.DistHedges == 0 || rep.Stats.DistHedgeWins == 0 {
		t.Fatalf("hedges/wins = %d/%d: the straggler never lost a slab race",
			rep.Stats.DistHedges, rep.Stats.DistHedgeWins)
	}
	// Nothing died — both cordons came from synthesized gray events.
	if rep.Stats.DistDeaths != 0 {
		t.Fatalf("dist deaths = %d, want 0", rep.Stats.DistDeaths)
	}
	t.Logf("\n%s", rep.Summary())
}

// TestThermalAutoscaleScenario: a load surge scales standby capacity
// in, a thermal throttle deprioritizes (never drains) a device, and
// the post-surge lull scales back down.
func TestThermalAutoscaleScenario(t *testing.T) {
	rep, err := Run(thermalAutoscale(), t.Logf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if rep.Stats.ScaleUps == 0 || rep.Stats.ScaleDowns == 0 {
		t.Fatalf("scale ups/downs = %d/%d, want both > 0", rep.Stats.ScaleUps, rep.Stats.ScaleDowns)
	}
	t.Logf("\n%s", rep.Summary())
}

// TestScenarioDeterminism replays one scenario twice and demands
// identical control-plane outcomes: same cordons, heals, scale
// actions, final device states, and zero incorrect responses both
// times. (Data-plane tallies that depend on goroutine interleaving —
// exact reroute counts — are deliberately not compared.)
func TestScenarioDeterminism(t *testing.T) {
	sc := &Scenario{
		Name:     "determinism",
		Seed:     9,
		Tick:     250 * time.Millisecond,
		Duration: 4 * time.Second,
		M:        4, N: 48,
		Variants: 2,

		Devices: 3, InitialActive: 3, MinActive: 2,
		Capacity: 2, Queue: 64,

		Probation: 500 * time.Millisecond,

		Load: []LoadPhase{{From: 0, To: 4 * time.Second, RPS: 60}},
		Events: []Event{
			{At: time.Second, Device: 2, Kind: gpusim.HealthXID, XID: 48},
			{At: 2500 * time.Millisecond, Device: 2, Kind: gpusim.HealthHealed},
		},
	}
	type outcome struct {
		cordons, heals, ups, downs uint64
		incorrect, issued          int
		states                     [3]fleet.DeviceState
	}
	run := func() outcome {
		rep, err := Run(sc, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !rep.OK() {
			t.Fatalf("scenario failed:\n%s", rep.Summary())
		}
		o := outcome{
			cordons: rep.Stats.Cordons, heals: rep.Stats.Heals,
			ups: rep.Stats.ScaleUps, downs: rep.Stats.ScaleDowns,
			incorrect: rep.Incorrect, issued: rep.Issued,
		}
		for i, d := range rep.Stats.Devices {
			o.states[i] = d.State
		}
		return o
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("outcomes differ across replays:\n a: %+v\n b: %+v", a, b)
	}
	if a.cordons != 1 || a.heals != 1 || a.incorrect != 0 {
		t.Fatalf("unexpected outcome: %+v", a)
	}
	// Healed at 2.5s + 500ms probation => promoted by the 3s tick.
	if a.states[2] != fleet.StateActive {
		t.Fatalf("device 2 = %v, want active", a.states[2])
	}
}

// TestRunnerFaultInjection arms the per-device transient-fault
// injectors: recovered solves must still be bitwise identical to the
// fault-free reference (one-shot faults, retried), and sustained
// fault-layer activity must escalate through synthesized corrected-ECC
// events into control-plane action.
func TestRunnerFaultInjection(t *testing.T) {
	sc := &Scenario{
		Name:     "faulty",
		Seed:     3,
		Tick:     250 * time.Millisecond,
		Duration: 3 * time.Second,
		M:        4, N: 48,
		Variants: 2,

		Devices: 2, InitialActive: 2, MinActive: 1,
		Capacity: 2, Queue: 64,

		FaultRate: 0.02,

		Load: []LoadPhase{{From: 0, To: 3 * time.Second, RPS: 80}},
	}
	rep, err := Run(sc, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Incorrect != 0 {
		t.Fatalf("fault recovery broke bitwise identity: %d incorrect\n%s", rep.Incorrect, rep.Summary())
	}
	if rep.Served == 0 {
		t.Fatal("nothing served")
	}
}

// TestLoadCannedScenarios: each canned constructor yields a complete
// scenario that passes validate.
func TestLoadCannedScenarios(t *testing.T) {
	for _, sc := range []*Scenario{deviceDeath(), distributedDeviceDeath(), grayFailure(), thermalAutoscale()} {
		if sc.Name == "" || len(sc.Load) == 0 {
			t.Fatalf("incomplete scenario %+v", sc)
		}
		if err := sc.validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
	}
}

// TestValidate: each mutation of a valid base trips exactly the
// validate rule it names — through Run, which must refuse an invalid
// scenario before replaying it.
func TestValidate(t *testing.T) {
	xid := func(at time.Duration, device int) Event {
		return Event{At: at, Device: device, Kind: gpusim.HealthXID, XID: 79}
	}
	cases := []struct {
		name   string
		mutate func(sc *Scenario)
		want   string
	}{
		{"zero tick", func(sc *Scenario) { sc.Tick = 0 }, "tick and duration must be positive"},
		{"zero duration", func(sc *Scenario) { sc.Duration = 0 }, "tick and duration must be positive"},
		{"too many ticks", func(sc *Scenario) { sc.Tick = time.Microsecond }, "over 100000 ticks"},
		{"zero shape", func(sc *Scenario) { sc.M = 0 }, "bad shape"},
		{"no devices", func(sc *Scenario) { sc.Devices = 0 }, "want 1..64"},
		{"too many devices", func(sc *Scenario) { sc.Devices = 65 }, "want 1..64"},
		{"zero variants", func(sc *Scenario) { sc.Variants = 0 }, "variants must be"},
		{"no load", func(sc *Scenario) { sc.Load = nil }, "no load phases"},
		{"empty load phase", func(sc *Scenario) { sc.Load[0].To = sc.Load[0].From }, "load phase 0 is empty"},
		{"event device range", func(sc *Scenario) { sc.Events = []Event{xid(time.Second, 9)} }, "event device 9 out of range"},
		{"events out of order", func(sc *Scenario) {
			sc.Events = []Event{xid(2*time.Second, 0), xid(time.Second, 1)}
		}, "event 1 at 1s precedes event 0 at 2s"},
		{"final state device range", func(sc *Scenario) { sc.Assert.FinalStates[0].Device = 4 }, "FinalStates device 4 out of range"},
		{"distributed shape too small", func(sc *Scenario) { sc.Distributed.N = 6 }, "too small for 4 slabs"},
		{"launch at end of run", func(sc *Scenario) { sc.Distributed.At = sc.Duration }, "Distributed.At 5s outside the run"},
		{"repeat launch outside run", func(sc *Scenario) { sc.Distributed.Count = 9 }, "would launch at 5s, outside the run"},
		{"victim range", func(sc *Scenario) { sc.Distributed.Victims = []int{4} }, "victim 4 out of range"},
		{"every device a victim", func(sc *Scenario) { sc.Distributed.Victims = []int{0, 1, 2, 3} }, "no survivor"},
		{"gray without distributed", func(sc *Scenario) { sc.Distributed = nil }, "need a Distributed spec"},
		{"gray arms nothing", func(sc *Scenario) { sc.Gray.Straggler, sc.Gray.Flaky = nil, nil }, "arms neither"},
		{"straggler device range", func(sc *Scenario) { sc.Gray.Straggler.Device = 4 }, "straggler device 4 out of range"},
		{"straggler factor", func(sc *Scenario) { sc.Gray.Straggler.Factor = 1 }, "factor 1 must be > 1"},
		{"flaky device range", func(sc *Scenario) { sc.Gray.Flaky.Device = -1 }, "flaky device -1 out of range"},
		{"flaky rate zero", func(sc *Scenario) { sc.Gray.Flaky.Rate = 0 }, "rate 0 must be in (0, 1)"},
		{"flaky rate one", func(sc *Scenario) { sc.Gray.Flaky.Rate = 1 }, "rate 1 must be in (0, 1)"},
		{"cordoned_by device range", func(sc *Scenario) { sc.Assert.CordonedBy[0].Device = 4 }, "CordonedBy device 4 out of range"},
		{"cordoned_by tick outside run", func(sc *Scenario) { sc.Assert.CordonedBy[0].Tick = 20 }, "tick 20 outside the run's 20 ticks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// grayFailure is the base: the one canned scenario with a
			// distributed spec, gray arming and detection deadlines.
			sc := grayFailure()
			tc.mutate(sc)
			_, err := Run(sc, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
