package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gputrid"
	"gputrid/internal/core"
	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
	"gputrid/internal/workload"
)

// newTestServer builds the front-end over a fresh fleet of cfg.Devices
// devices and closes both when the test ends.
func newTestServer(t *testing.T, cfg fleet.Config, batchN, distMin int) *server {
	t.Helper()
	fl, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(fl, batchN, 2*time.Millisecond, distMin)
	if err != nil {
		_ = fl.Close(context.Background())
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.close(context.Background()) })
	return srv
}

// do sends one request through the server's mux and returns the
// recorded response.
func do(t *testing.T, srv *server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	srv.routes().ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("status %d body %q: %v", rec.Code, rec.Body.String(), err)
	}
	return v
}

// zeroLeadingDiagonal is one 4-row system whose first pivot is zero:
// nonsingular, but it breaks the non-pivoting fast path.
func zeroLeadingDiagonal() solveRequest {
	return solveRequest{
		M: 1, N: 4,
		Lower: []float64{0, 1, 1, 1},
		Diag:  []float64{0, 2, 2, 2},
		Upper: []float64{1, 1, 1, 0},
		RHS:   []float64{1, 1, 1, 1},
	}
}

// TestOversizeBatchReportsItsRoute: with -batch, a request of more
// systems than a megabatch holds bypasses the coalescer, and its
// response names the route that really served it.
func TestOversizeBatchReportsItsRoute(t *testing.T) {
	srv := newTestServer(t, fleet.Config{Devices: 1}, 4, 0)
	for _, tc := range []struct {
		m     int
		route string
	}{{2, "coalesced"}, {8, "device"}} {
		b := workload.Batch[float64](workload.DiagDominant, tc.m, 64, 5)
		rec := do(t, srv, http.MethodPost, "/solve", requestFor(b, 0))
		if rec.Code != http.StatusOK {
			t.Fatalf("m=%d: status %d: %s", tc.m, rec.Code, rec.Body)
		}
		if sr := decode[solveResponse](t, rec); sr.Route != tc.route {
			t.Errorf("m=%d: route %q, want %q", tc.m, sr.Route, tc.route)
		}
	}
}

// TestZeroLeadingDiagonalNeverEmpty200: every route answers the
// fast-path-breaking input with either a finite x or a typed JSON
// error — never a 200 without a body — and /stats counts the solves
// that could not be encoded.
func TestZeroLeadingDiagonalNeverEmpty200(t *testing.T) {
	for _, batchN := range []int{0, 4} {
		srv := newTestServer(t, fleet.Config{Devices: 1}, batchN, 0)
		rec := do(t, srv, http.MethodPost, "/solve", zeroLeadingDiagonal())
		if rec.Body.Len() == 0 {
			t.Fatalf("batch=%d: status %d with an empty body", batchN, rec.Code)
		}
		nonfinite := 0.0
		if rec.Code == http.StatusOK {
			for i, x := range decode[solveResponse](t, rec).X {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("batch=%d: 200 with x[%d] = %v", batchN, i, x)
				}
			}
		} else {
			if er := decode[errorResponse](t, rec); er.Kind == "" {
				t.Fatalf("batch=%d: status %d with untyped body %q", batchN, rec.Code, rec.Body)
			}
			if rec.Code == http.StatusInternalServerError {
				nonfinite = 1
			}
		}
		st := decode[map[string]any](t, do(t, srv, http.MethodGet, "/stats", nil))
		if got := st["nonfinite_responses"]; got != nonfinite {
			t.Errorf("batch=%d: nonfinite_responses = %v, want %v", batchN, got, nonfinite)
		}
	}
}

// TestStatsKeys: /stats keeps the pool key names its readers rely on
// for any device count, and its counters sum over the devices.
func TestStatsKeys(t *testing.T) {
	for _, devices := range []int{1, 3} {
		srv := newTestServer(t, fleet.Config{Devices: devices}, 0, 0)
		const solves = 6
		for i := 0; i < solves; i++ {
			b := workload.Batch[float64](workload.DiagDominant, 2, 32, uint64(i))
			if rec := do(t, srv, http.MethodPost, "/solve", requestFor(b, 0)); rec.Code != http.StatusOK {
				t.Fatalf("devices=%d: status %d: %s", devices, rec.Code, rec.Body)
			}
		}
		st := decode[map[string]any](t, do(t, srv, http.MethodGet, "/stats", nil))
		for _, k := range []string{"rejected_queue_full", "rejected_deadline", "rejected_closed",
			"fallback_solves", "nonfinite_responses", "per_shape", "queue_depth"} {
			if _, ok := st[k]; !ok {
				t.Errorf("devices=%d: /stats lacks %q", devices, k)
			}
		}
		brk, _ := st["breaker"].(map[string]any)
		if _, ok := brk["trips"]; !ok {
			t.Errorf("devices=%d: /stats lacks breaker.trips: %v", devices, st["breaker"])
		}
		if st["admitted"] != float64(solves) || st["device_solves"] != float64(solves) {
			t.Errorf("devices=%d: admitted/device_solves = %v/%v, want %d summed over devices",
				devices, st["admitted"], st["device_solves"], solves)
		}
	}
}

// TestHealthDegradedUnderOpenBreaker: a lone device whose breaker has
// tripped still serves (off the host fallback), so /healthz reports
// 200 "degraded" rather than ok or unhealthy.
func TestHealthDegradedUnderOpenBreaker(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	inj := &gputrid.FaultInjector{
		Seed: 1, Rate: 1, Repeat: 1,
		Kinds: []gputrid.DeviceFaultKind{gputrid.FaultAbort},
		Gate:  armed.Load,
	}
	srv := newTestServer(t, fleet.Config{
		Devices: 1,
		Pool: gputrid.PoolConfig{
			Breaker: gputrid.BreakerPolicy{
				Window: 4, TripRatio: 0.5, MinSamples: 2,
				Cooldown: time.Hour, ProbeSuccesses: 1,
			},
			SolverOptions: []gputrid.Option{gputrid.WithFaultInjection(inj)},
		},
	}, 0, 0)

	health := func() (int, string) {
		rec := do(t, srv, http.MethodGet, "/healthz", nil)
		return rec.Code, decode[map[string]any](t, rec)["status"].(string)
	}
	if code, status := health(); code != http.StatusOK || status != "ok" {
		t.Fatalf("fresh device: %d %q, want 200 ok", code, status)
	}
	b := workload.Batch[float64](workload.DiagDominant, 2, 64, 3)
	route := ""
	for i := 0; i < 16 && route != "fallback"; i++ {
		rec := do(t, srv, http.MethodPost, "/solve", requestFor(b, 0))
		if rec.Code != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, rec.Code, rec.Body)
		}
		route = decode[solveResponse](t, rec).Route
	}
	if route != "fallback" {
		t.Fatal("breaker never tripped under sustained faults")
	}
	if code, status := health(); code != http.StatusOK || status != "degraded" {
		t.Fatalf("open breaker: %d %q, want 200 degraded", code, status)
	}
}

// TestDistributedWallAndModeledTime: a distributed response carries
// the measured wall time in wall_ns and the simulated pipelined
// makespan — bit-for-bit the core layer's — in modeled_ns, on one
// device as on several.
func TestDistributedWallAndModeledTime(t *testing.T) {
	const m, n = 2, 2049
	for _, devices := range []int{1, 3} {
		srv := newTestServer(t, fleet.Config{Devices: devices}, 0, 1024)
		b := workload.Batch[float64](workload.DiagDominant, m, n, 9)
		rec := do(t, srv, http.MethodPost, "/solve", requestFor(b, 0))
		if rec.Code != http.StatusOK {
			t.Fatalf("devices=%d: status %d: %s", devices, rec.Code, rec.Body)
		}
		sr := decode[solveResponse](t, rec)
		if sr.Route != "distributed" {
			t.Fatalf("devices=%d: route %q, want distributed", devices, sr.Route)
		}

		topo, err := gpusim.UniformTopology(devices, gpusim.NVLinkMesh(), gpusim.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.NewDistSolver[float64](core.DistConfig{Topology: topo, Slabs: devices}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ref.SolveInto(context.Background(), make([]float64, m*n), b)
		_ = ref.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sr.ModeledNS != int64(rep.ModeledPipelined) {
			t.Errorf("devices=%d: modeled_ns = %d, want the modeled makespan %d",
				devices, sr.ModeledNS, int64(rep.ModeledPipelined))
		}
		if sr.WallNS <= 0 {
			t.Errorf("devices=%d: wall_ns = %d, want the measured solve time", devices, sr.WallNS)
		}
	}
}
