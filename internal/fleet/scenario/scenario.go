// Package scenario makes fleet failure stories replayable: a Scenario
// value describes a timeline of load profiles and injected device
// health events plus the assertions the run must satisfy ("device 1
// dies at t=5s under 120 rps; zero incorrect responses; the device is
// back by the end"), and Run replays it against a real fleet of
// simulated devices on a virtual clock — no wall-clock sleeps, so the
// same scenario produces the same control decisions every run. The
// canned scenarios are Go literals in this package's tests; `go test
// -run Scenario` replays them.
package scenario

import (
	"fmt"
	"time"

	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
)

// Scenario is one replayable fleet story.
type Scenario struct {
	// Name labels reports.
	Name string
	// Seed drives every pseudo-random choice: batch coefficients and
	// per-device fault-injector seeds.
	Seed uint64
	// Tick is the virtual control-loop step; Duration the total
	// virtual run time.
	Tick, Duration time.Duration
	// M, N is the (single) batch shape the scenario serves; Variants
	// distinct batches of that shape rotate through the load.
	M, N     int
	Variants int

	// Devices / InitialActive / MinActive size the fleet.
	Devices, InitialActive, MinActive int
	// Capacity and Queue configure each device's pool.
	Capacity, Queue int

	// Policy knobs (zero = fleet defaults).
	Probation, DrainTimeout, ScaleCooldown time.Duration
	CorrectedECCLimit, RerouteAttempts     int
	ScaleUpAt, ScaleDownAt                 float64

	// FaultRate, when positive, arms each device's deterministic
	// transient-fault injector (seeded per device, one-shot faults the
	// retry layer recovers exactly).
	FaultRate float64

	// Load is the offered-load timeline; phases may overlap (rates
	// add).
	Load []LoadPhase
	// Events is the health-event timeline, in ascending `At` order.
	Events []Event

	// Distributed, when non-nil, launches one huge-N distributed solve
	// across the fleet's simulated interconnect fabric mid-run.
	Distributed *DistSpec

	// Gray, when non-nil, arms gray failures on the distributed fabric
	// (a silent straggler, a flaky link) and tunes the fleet's
	// gray-failure detector.
	Gray *GraySpec

	// Assert is evaluated after the run.
	Assert Assertions
}

// DistSpec describes the scenario's distributed solves: one batch of
// shape M×N is solved across every servable device at virtual time At,
// with the listed topology devices armed to die permanently on their
// first kernel launch of the solve. The runner busy-waits until every
// armed death has surfaced in the health feed, then runs the control
// loop — so the cordon provably lands while the distributed solve is
// still in flight — and verifies the completed solution bitwise
// against a fault-free reference.
type DistSpec struct {
	// M, N shape the distributed batch; N should dwarf the serving
	// shape (that is the point of distributing).
	M, N int
	// At is the launch instant (virtual time).
	At time.Duration
	// Victims lists the topology devices armed to die mid-solve.
	Victims []int
	// Count launches that many distributed solves (sequentially, the
	// first at At, the rest Every apart); 0 means 1. Repeated solves
	// are how gray failures accumulate detectable evidence.
	Count int
	// Every spaces repeated solves; 0 means one solve per tick.
	Every time.Duration
}

func (ds *DistSpec) count() int {
	if ds.Count <= 0 {
		return 1
	}
	return ds.Count
}

// GraySpec arms gray failures — failures no driver event announces —
// on the distributed fabric, and tunes the detector that must catch
// them from statistical evidence alone.
type GraySpec struct {
	// Straggler, when non-nil, silently slows one device.
	Straggler *Straggler
	// Flaky, when non-nil, corrupts one device's links.
	Flaky *Flaky
	// Detector knobs (zero = fleet defaults, see fleet.GrayPolicy).
	StragglerRatio float64
	MinSamples     int
	IntegrityLimit int
	// DisableHedge turns off straggler hedging in distributed solves.
	DisableHedge bool
}

// Straggler is a topology device silently slowed by Factor (its
// modeled kernel time multiplies, no health event fires, answers stay
// bit-exact).
type Straggler struct {
	Device int
	Factor float64
}

// Flaky is a device whose links corrupt transfers at Rate (seeded by
// the scenario seed; every corruption must be caught by the solver's
// checksums and repaired in place).
type Flaky struct {
	Device int
	Rate   float64
}

// LoadPhase offers `RPS` requests per virtual second over [From, To).
type LoadPhase struct {
	From, To time.Duration
	RPS      float64
}

// Event injects one health event at virtual time At.
type Event struct {
	At      time.Duration
	Device  int
	Kind    gpusim.HealthKind
	XID     int
	Temp    float64
	Message string
}

// FinalState asserts a device's state at the end of the run; any of
// the listed states passes (e.g. active or probation when the exact
// probation expiry tick is not the point of the scenario).
type FinalState struct {
	Device int
	States []fleet.DeviceState
}

// Assertions are the scenario's pass/fail conditions. The zero value
// demands only correctness: MaxIncorrect is always 0 — a scenario can
// tolerate rejections, but never a wrong answer.
type Assertions struct {
	// MinServed is the minimum number of successfully served requests.
	MinServed int
	// MaxRejectedFrac, when set, bounds rejected/issued.
	MaxRejectedFrac *float64
	// Cordons / ScaleUps / ScaleDowns / ForcedDrains, when set, bound
	// the control-plane action counters.
	Cordons, MaxForcedDrains   *int
	MinScaleUps, MinScaleDowns int
	// MinRerouted, when set, demands at least that many re-routes
	// (proving the death actually happened under traffic).
	MinRerouted int
	// MinDistSolves demands at least that many completed distributed
	// solves; DistDeaths, when set, pins the exact number of devices
	// declared dead mid-distributed-solve; MinDistMigrations demands at
	// least that many slab migrations (proving the deaths cost live
	// work, not idle slabs).
	MinDistSolves     int
	DistDeaths        *int
	MinDistMigrations int
	// MinIntegrityRetries demands the corruption provably happened and
	// was repaired (checksum-mismatched transfers re-exchanged);
	// MinHedges demands the straggler provably triggered speculative
	// slab re-launches; MaxDistDegraded bounds slabs degraded to the
	// host path (unset = unbounded; 0 pins the bitwise-identity story).
	MinIntegrityRetries int
	MinHedges           int
	MaxDistDegraded     *int
	// CordonedBy demands each listed device was cordoned (or dead) no
	// later than the given control-loop tick — the detection-latency
	// bound on the gray-failure detector.
	CordonedBy []CordonDeadline
	// FinalStates pins device states at the end of the run.
	FinalStates []FinalState
}

// CordonDeadline is one detection-latency assertion: Device must have
// left the servable states by control-loop tick Tick (0-based).
type CordonDeadline struct {
	Device, Tick int
}

func (sc *Scenario) validate() error {
	switch {
	case sc.Tick <= 0 || sc.Duration <= 0:
		return fmt.Errorf("scenario: tick and duration must be positive")
	case sc.Duration/sc.Tick > 100_000:
		return fmt.Errorf("scenario: %v/%v is over 100000 ticks", sc.Duration, sc.Tick)
	case sc.M < 1 || sc.N < 2:
		return fmt.Errorf("scenario: bad shape %dx%d", sc.M, sc.N)
	case sc.Devices < 1 || sc.Devices > 64:
		return fmt.Errorf("scenario: devices = %d, want 1..64", sc.Devices)
	case sc.Variants < 1:
		return fmt.Errorf("scenario: variants must be ≥ 1")
	case len(sc.Load) == 0:
		return fmt.Errorf("scenario: no load phases")
	}
	for i, ph := range sc.Load {
		if ph.To <= ph.From {
			return fmt.Errorf("scenario: load phase %d is empty: [%v, %v)", i, ph.From, ph.To)
		}
	}
	for i, ev := range sc.Events {
		if ev.Device < 0 || ev.Device >= sc.Devices {
			return fmt.Errorf("scenario: event device %d out of range", ev.Device)
		}
		if i > 0 && ev.At < sc.Events[i-1].At {
			return fmt.Errorf("scenario: event %d at %v precedes event %d at %v", i, ev.At, i-1, sc.Events[i-1].At)
		}
	}
	for _, fs := range sc.Assert.FinalStates {
		if fs.Device < 0 || fs.Device >= sc.Devices {
			return fmt.Errorf("scenario: Assert.FinalStates device %d out of range", fs.Device)
		}
	}
	if ds := sc.Distributed; ds != nil {
		if ds.M < 1 || ds.N < 2*sc.Devices-1 {
			return fmt.Errorf("scenario: distributed shape %dx%d too small for %d slabs", ds.M, ds.N, sc.Devices)
		}
		if ds.At < 0 || ds.At >= sc.Duration {
			return fmt.Errorf("scenario: Distributed.At %v outside the run", ds.At)
		}
		for _, v := range ds.Victims {
			if v < 0 || v >= sc.Devices {
				return fmt.Errorf("scenario: distributed victim %d out of range", v)
			}
		}
		if len(ds.Victims) >= sc.Devices {
			return fmt.Errorf("scenario: all %d devices are victims — no survivor to migrate to", sc.Devices)
		}
		if ds.Count > 1 {
			every := ds.Every
			if every <= 0 {
				every = sc.Tick
			}
			if last := ds.At + time.Duration(ds.Count-1)*every; last >= sc.Duration {
				return fmt.Errorf("scenario: distributed solve %d would launch at %v, outside the run", ds.Count-1, last)
			}
		}
	}
	if g := sc.Gray; g != nil {
		if sc.Distributed == nil {
			return fmt.Errorf("scenario: gray failures need a Distributed spec — the detector's only evidence is distributed-solve reports")
		}
		if g.Straggler == nil && g.Flaky == nil {
			return fmt.Errorf("scenario: Gray arms neither a straggler nor a flaky link")
		}
		if s := g.Straggler; s != nil {
			if s.Device < 0 || s.Device >= sc.Devices {
				return fmt.Errorf("scenario: gray straggler device %d out of range", s.Device)
			}
			if s.Factor <= 1 {
				return fmt.Errorf("scenario: gray straggler factor %g must be > 1", s.Factor)
			}
		}
		if f := g.Flaky; f != nil {
			if f.Device < 0 || f.Device >= sc.Devices {
				return fmt.Errorf("scenario: gray flaky device %d out of range", f.Device)
			}
			if f.Rate <= 0 || f.Rate >= 1 {
				return fmt.Errorf("scenario: gray flaky rate %g must be in (0, 1)", f.Rate)
			}
		}
	}
	ticks := int(sc.Duration / sc.Tick)
	for _, cb := range sc.Assert.CordonedBy {
		if cb.Device < 0 || cb.Device >= sc.Devices {
			return fmt.Errorf("scenario: Assert.CordonedBy device %d out of range", cb.Device)
		}
		if cb.Tick < 0 || cb.Tick >= ticks {
			return fmt.Errorf("scenario: Assert.CordonedBy tick %d outside the run's %d ticks", cb.Tick, ticks)
		}
	}
	return nil
}
