// Command tridserve serves the solver over HTTP through the fleet
// control plane: -fleet N device failure domains (default 1), each an
// independent overload-safe solver pool, behind one JSON front-end.
// Many concurrent clients multiplex onto a bounded set of warmed
// solvers per device, excess load fails fast with 503 instead of
// collapsing latency, a degrading device trips its traffic over to the
// host pivoting fallback, and a dying device is cordoned while its
// requests re-route. A one-device fleet is the plain serving pool; the
// same routes, endpoints and flags apply for any device count.
//
//	tridserve                          # one device, serve on :8437
//	tridserve -capacity 4 -queue 16    # bigger pool per device
//	tridserve -warm 64:1024,16:4096    # pre-build shapes at startup
//	tridserve -selftest                # no listener: end-to-end self-check
//	tridserve -fleet 3                 # 3 device failure domains
//	tridserve -batch 64                # coalesce small requests into
//	                                   # 64-system megabatches
//	tridserve -fleet 3 -distmin 4096   # huge-N requests solved across
//	                                   # all devices (survives device
//	                                   # death mid-solve)
//
// Endpoints, served for any device count:
//
//	POST /solve         {"m","n","lower","diag","upper","rhs","timeout_ms"}
//	                    -> 200 {"x","route","wait_ns","wall_ns","device",
//	                       "attempts"}
//	                    -> 400 invalid input, 503 overloaded/draining/no
//	                       device (every 503 carries a Retry-After — from
//	                       the least-loaded device's service-time estimate
//	                       where one exists, a conservative default
//	                       otherwise), 504 deadline/cancelled, 500
//	                       faulted, 500 "nonfinite" when x has no JSON
//	                       encoding (a non-finite entry)
//	GET  /healthz       200 "ok"; 200 "degraded" — still healthy, the
//	                    fallback serves — when no device is Active or
//	                    every servable device's breaker has tripped;
//	                    503 "no-device" when nothing is servable, 503
//	                    once draining
//	GET  /stats         the live device pools' statistics summed,
//	                    including per-shape queue depths, service-time
//	                    estimates and "nonfinite_responses" (JSON)
//	GET  /fleet         fleet snapshot: per-device state machine
//	                    position, census, control-plane counters
//	POST /fleet/inject  {"device","kind","xid","temp","message"} —
//	                    inject a synthetic health event ("xid",
//	                    "thermal", "ecc-corrected", "ecc-uncorrected",
//	                    "healed"); applied by the next tick
//
// Requests route to the least-loaded healthy device and re-route when
// a device dies beneath them; a ticker runs the cordon/drain/autoscale
// control loop. POST /solve picks the route from the request's shape,
// in this order:
//
//   - distributed (-distmin K, n >= K): the system is slab-partitioned
//     over every servable device's share of the simulated interconnect,
//     a reduced interface system couples the slabs, and a device dying
//     mid-solve surfaces a health event (cordoning it at the next tick)
//     while its slab migrates to a survivor — the response is bitwise
//     identical either way. Responses carry route "distributed", the
//     measured "wall_ns", the simulated makespan "modeled_ns", and
//     "dist_devices", "dist_deaths" and "dist_migrations".
//   - coalesced (-batch N, m <= N): concurrent small requests of the
//     same row count are coalesced into interleaved megabatches of up
//     to N systems and solved through one pooled megabatch solver
//     lease, flushing on a size watermark or a deadline informed by the
//     fleet's megabatch service-time estimate (-batchwait bounds the
//     wait). Responses carry "flush_size" and "rescued"; per-system
//     guard failures in a shared megabatch fail only the requests that
//     submitted them, and a full coalescing queue sheds with 503 like
//     any other overload. /stats and /fleet then include a "batcher"
//     section with queue depths and flush-cause counters.
//   - per-request: one device's pool serves the batch; route "device"
//     or "fallback".
//
// The -selftest mode runs the whole stack in-process against a real
// HTTP listener on a loopback port: correctness vs the reference CPU
// solve, fail-fast 503s under 4x-capacity offered load, breaker trip
// and recovery under injected faults, graceful drain, and a
// distributed solve surviving a device death. It exits 0 on success
// and 1 on failure, and is wired into CI under -race.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"gputrid"
	"gputrid/internal/fleet"
)

func main() {
	var (
		addr      = flag.String("addr", ":8437", "listen address")
		capacity  = flag.Int("capacity", 2, "warmed solvers per shape")
		queue     = flag.Int("queue", 0, "admission queue per shape (0 = 4x capacity)")
		maxShapes = flag.Int("maxshapes", 8, "max distinct warmed shapes")
		warm      = flag.String("warm", "", "comma list of M:N shapes to pre-build")
		selftest  = flag.Bool("selftest", false, "run the end-to-end self-check and exit")
		timeout   = flag.Duration("timeout", 5*time.Minute, "overall selftest deadline (the -race selftest needs ~1m)")
		fleetN    = flag.Int("fleet", 1, "serve through a fleet of N device failure domains")
		batchN    = flag.Int("batch", 0, "coalesce concurrent small requests into megabatches of up to N systems (0 = off)")
		batchWait = flag.Duration("batchwait", 2*time.Millisecond, "max time a coalesced request waits for company")
		distMin   = flag.Int("distmin", 0, "solve requests with n >= this across all devices (0 = off)")
	)
	flag.Parse()

	if *selftest {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		if err := runSelfTest(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "tridserve: selftest FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("tridserve: selftest ok")
		return
	}

	shapes, err := parseWarmShapes(*warm)
	if err == nil {
		err = serve(*addr, fleet.Config{
			Devices: *fleetN,
			Pool: gputrid.PoolConfig{
				Capacity:   *capacity,
				QueueLimit: *queue,
				MaxShapes:  *maxShapes,
			},
			WarmShapes: shapes,
		}, *batchN, *batchWait, *distMin)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tridserve: %v\n", err)
		os.Exit(1)
	}
}
