package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"gputrid"
	"gputrid/internal/batcher"
	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
)

// fleetTickInterval drives the live control loop; cordon/heal and
// autoscaling decisions are evaluated at this cadence.
const fleetTickInterval = 250 * time.Millisecond

// solveRequest is the JSON body of POST /solve: one M x N batch in
// natural order (row j of system i at index i*N+j), with an optional
// per-request timeout the pool's admission controller can reject
// against early.
type solveRequest struct {
	M         int       `json:"m"`
	N         int       `json:"n"`
	Lower     []float64 `json:"lower"`
	Diag      []float64 `json:"diag"`
	Upper     []float64 `json:"upper"`
	RHS       []float64 `json:"rhs"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
}

// solveResponse is the success body: the solution plus how and where
// the fleet served it. WallNS is always measured wall time; ModeledNS
// (distributed route only) is the simulated pipelined makespan.
type solveResponse struct {
	X         []float64 `json:"x"`
	Route     string    `json:"route"`
	WaitNS    int64     `json:"wait_ns"`
	WallNS    int64     `json:"wall_ns"`
	ModeledNS int64     `json:"modeled_ns,omitempty"`
	// FlushSize and Rescued appear only on coalesced responses: the
	// total system count of the megabatch this request rode in, and
	// how many of its own systems needed the host rescue path.
	FlushSize int `json:"flush_size,omitempty"`
	Rescued   int `json:"rescued,omitempty"`
	// Device is the id of the device that served the request (-1 when
	// no single device did: coalesced and distributed routes); Attempts
	// is how many devices were tried (>1 means a re-route saved it).
	Device   int `json:"device"`
	Attempts int `json:"attempts"`
	// Distributed-route extras: the devices the solve started on, any
	// declared dead mid-solve, and how many slabs migrated to
	// survivors.
	DistDevices    []int `json:"dist_devices,omitempty"`
	DistDeaths     []int `json:"dist_deaths,omitempty"`
	DistMigrations int   `json:"dist_migrations,omitempty"`
}

// errorResponse is every non-200 body.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// RetryAfterMS hints when an overloaded request could succeed
	// (also sent as a Retry-After header).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// injectRequest is the body of POST /fleet/inject: one synthetic
// device health event, applied by the next control-loop tick.
type injectRequest struct {
	Device  int     `json:"device"`
	Kind    string  `json:"kind"`
	XID     int     `json:"xid,omitempty"`
	Temp    float64 `json:"temp,omitempty"`
	Message string  `json:"message,omitempty"`
}

// server ties the HTTP front-end to the fleet control plane: requests
// route to the least-loaded healthy device, device-local failures
// re-route, and operators can observe and drive the control plane over
// HTTP. A one-device fleet is the plain serving pool.
type server struct {
	fl         *fleet.Fleet
	draining   atomic.Bool
	maxTimeout time.Duration
	// batcher, when non-nil, coalesces small concurrent requests into
	// megabatches routed through Fleet.SolveMegabatch (-batch).
	batcher *batcher.Batcher[float64]
	// distMinN, when positive, routes requests with n >= distMinN to
	// the distributed multi-device solve instead of a single device's
	// pool (-distmin): the system is slab-partitioned across every
	// servable device and survives device death mid-solve.
	distMinN int
	// nonfinite counts solve responses that could not be encoded (a
	// non-finite x) and went out as a typed 500 instead.
	nonfinite atomic.Uint64
}

// newServer builds the front-end over fl. batchN > 0 enables
// coalescing into megabatches of up to batchN systems, whose flush
// deadlines read the fleet's megabatch service-time estimate.
func newServer(fl *fleet.Fleet, batchN int, batchWait time.Duration, distMin int) (*server, error) {
	s := &server{fl: fl, maxTimeout: time.Minute, distMinN: distMin}
	if batchN > 0 {
		bt, err := batcher.New(batcher.Config[float64]{
			MaxBatch: batchN,
			MaxWait:  batchWait,
			ServiceTime: func(n int) (time.Duration, bool) {
				return fl.ServiceTime(batchN, n, true)
			},
			Solve: fl.SolveMegabatch,
		})
		if err != nil {
			return nil, err
		}
		s.batcher = bt
	}
	return s, nil
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.HandleFunc("POST /fleet/inject", s.handleInject)
	return mux
}

// handleSolve picks the route from the request's shape: distributed
// (n >= distmin), coalesced (m <= MaxBatch), else one device's pool.
func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", 0)
		return
	}
	var req solveRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", "invalid JSON: "+err.Error(), 0)
		return
	}
	size := req.M * req.N
	if req.M <= 0 || req.N <= 0 ||
		len(req.Lower) != size || len(req.Diag) != size ||
		len(req.Upper) != size || len(req.RHS) != size {
		writeError(w, http.StatusBadRequest, "bad-request",
			fmt.Sprintf("batch arrays must all have length m*n = %d", size), 0)
		return
	}
	b := &gputrid.Batch[float64]{
		M: req.M, N: req.N,
		Lower: req.Lower, Diag: req.Diag, Upper: req.Upper, RHS: req.RHS,
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		d := time.Duration(req.TimeoutMS) * time.Millisecond
		if d > s.maxTimeout {
			d = s.maxTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	if s.distMinN > 0 && req.N >= s.distMinN {
		start := time.Now()
		res, err := s.fl.SolveDistributed(ctx, b)
		if err != nil {
			s.writeSolveError(w, err)
			return
		}
		s.writeSolved(w, solveResponse{
			X:              res.X,
			Route:          "distributed",
			WallNS:         int64(time.Since(start)),
			ModeledNS:      int64(res.Report.ModeledPipelined),
			Device:         -1,
			Attempts:       1,
			DistDevices:    res.Live,
			DistDeaths:     res.Report.Deaths,
			DistMigrations: res.Report.Migrations,
		})
		return
	}

	if s.batcher != nil && req.M <= s.batcher.MaxBatch() {
		x := make([]float64, size)
		cres, err := s.batcher.Solve(ctx, &batcher.Request[float64]{
			M: req.M, N: req.N,
			Lower: req.Lower, Diag: req.Diag, Upper: req.Upper, RHS: req.RHS,
			X: x,
		})
		if err != nil {
			s.writeSolveError(w, err)
			return
		}
		// A coalesced flight may ride any device (and re-route as a
		// unit), so no single device id is reported.
		s.writeSolved(w, solveResponse{
			X:         x,
			Route:     "coalesced",
			WaitNS:    int64(cres.Wait),
			FlushSize: cres.FlushSize,
			Rescued:   cres.Rescued,
			Device:    -1,
			Attempts:  1,
		})
		return
	}

	res, err := s.fl.Solve(ctx, b)
	if err != nil {
		s.writeSolveError(w, err)
		return
	}
	s.writeSolved(w, solveResponse{
		X:        res.X,
		Route:    res.Route.String(),
		WaitNS:   int64(res.Wait),
		WallNS:   int64(res.WallTime),
		Device:   res.Device,
		Attempts: res.Attempts,
	})
}

// writeSolved sends a 200 solve response, counting the ones that went
// out as a typed 500 because x held a non-finite value.
func (s *server) writeSolved(w http.ResponseWriter, resp solveResponse) {
	if writeJSON(w, http.StatusOK, resp) != nil {
		s.nonfinite.Add(1)
	}
}

// retryAfterMS derives a 503 retry hint from the best congestion
// estimate available, in preference order: the rejection's own EstWait
// (the admission controller already computed the queue-drain time),
// else one queue's worth of the service-time estimate for the rejected
// shape, else a conservative 50ms when the shape has never been
// observed.
func retryAfterMS(err error, est func(m, n int) (time.Duration, bool)) int64 {
	var oe *gputrid.OverloadError
	if !errors.As(err, &oe) {
		return 50
	}
	wait := oe.EstWait
	if wait <= 0 {
		if svc, ok := est(oe.M, oe.N); ok && svc > 0 {
			// The request would land behind QueueDepth waiters plus the
			// solves already holding the capacity.
			wait = svc * time.Duration(oe.QueueDepth+1)
		}
	}
	if wait <= 0 {
		return 50
	}
	ms := int64(wait / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// writeSolveError maps fleet and pool errors onto HTTP status codes.
// Overload hints use the least-loaded device's service-time estimate;
// "no servable device" is a 503 too — the fleet may heal or scale up.
func (s *server) writeSolveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, gputrid.ErrOverloaded), errors.Is(err, gputrid.ErrBatcherSaturated):
		writeError(w, http.StatusServiceUnavailable, "overloaded", err.Error(),
			retryAfterMS(err, func(m, n int) (time.Duration, bool) {
				return s.fl.ServiceTime(m, n, false)
			}))
	case errors.Is(err, fleet.ErrNoDevices):
		writeError(w, http.StatusServiceUnavailable, "no-device", err.Error(),
			int64(fleetTickInterval/time.Millisecond))
	case errors.Is(err, fleet.ErrFleetClosed), errors.Is(err, gputrid.ErrPoolClosed),
		errors.Is(err, gputrid.ErrBatcherClosed):
		writeError(w, http.StatusServiceUnavailable, "draining", err.Error(), 0)
	case errors.Is(err, gputrid.ErrCancelled):
		writeError(w, http.StatusGatewayTimeout, "cancelled", err.Error(), 0)
	case errors.Is(err, gputrid.ErrFaulted):
		writeError(w, http.StatusInternalServerError, "faulted", err.Error(), 0)
	default:
		writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
	}
}

// handleHealth: 503 while draining or with no servable device; 200
// "degraded" — still healthy, the host fallback serves — when no device
// is Active or every servable device's breaker has tripped.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.fl.Stats()
	servable := st.Active + st.Probation + st.Deprioritized
	body := map[string]any{
		"status":   "ok",
		"servable": servable,
		"breaker":  st.Pool.Breaker.State.String(),
	}
	code := http.StatusOK
	switch {
	case s.draining.Load():
		body["status"] = "draining"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.FormatInt((defaultRetryAfterMS+999)/1000, 10))
	case servable == 0:
		// Everything cordoned/dead: unhealthy until a heal or scale-up
		// — which the next control-loop ticks decide, hence the hint.
		body["status"] = "no-device"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case st.Active == 0 || st.BreakerOpen == servable:
		body["status"] = "degraded"
	}
	writeJSON(w, code, body)
}

// handleStats reports the live devices' pools summed, with per-shape
// queue depths and service-time estimates so operators can see *which*
// traffic class is queueing.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.fl.Stats().Pool
	perShape := make([]map[string]any, 0, len(st.PerShape))
	for _, sh := range st.PerShape {
		perShape = append(perShape, map[string]any{
			"m":               sh.M,
			"n":               sh.N,
			"built":           sh.Built,
			"leased":          sh.Leased,
			"queue_depth":     sh.QueueDepth,
			"service_time_ns": int64(sh.ServiceTime),
		})
	}
	body := map[string]any{
		"shapes":              st.Shapes,
		"per_shape":           perShape,
		"in_flight":           st.InFlight,
		"queue_depth":         st.QueueDepth,
		"admitted":            st.Admitted,
		"rejected_queue_full": st.RejectedQueueFull,
		"rejected_deadline":   st.RejectedDeadline,
		"rejected_closed":     st.RejectedClosed,
		"cancelled_waits":     st.CancelledWaits,
		"device_solves":       st.DeviceSolves,
		"probe_solves":        st.ProbeSolves,
		"fallback_solves":     st.FallbackSolves,
		"nonfinite_responses": s.nonfinite.Load(),
		"breaker": map[string]any{
			"state":           st.Breaker.State.String(),
			"window_fill":     st.Breaker.WindowFill,
			"window_degraded": st.Breaker.WindowDegraded,
			"trips":           st.Breaker.Trips,
			"probe_streak":    st.Breaker.ProbeStreak,
		},
	}
	if s.batcher != nil {
		body["batcher"] = batcherStatsBody(s.batcher.Stats())
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleFleet(w http.ResponseWriter, r *http.Request) {
	st := s.fl.Stats()
	devices := make([]map[string]any, 0, len(st.Devices))
	for _, d := range st.Devices {
		devices = append(devices, map[string]any{
			"id":            d.ID,
			"state":         d.State.String(),
			"in_flight":     d.InFlight,
			"served":        d.Served,
			"failed":        d.Failed,
			"corrected_ecc": d.CorrectedECC,
			"queue_depth":   d.QueueDepth,
			"breaker":       d.Breaker.String(),
			"gray": map[string]any{
				"latency_ratio":     d.GrayRatio,
				"integrity_retries": d.IntegrityRetries,
				"hedged_slabs":      d.Hedged,
			},
		})
	}
	body := map[string]any{
		"devices": devices,
		"census": map[string]any{
			"active":        st.Active,
			"probation":     st.Probation,
			"deprioritized": st.Deprioritized,
			"cordoned":      st.Cordoned,
			"dead":          st.Dead,
			"standby":       st.Standby,
		},
		"in_flight":      st.InFlight,
		"queue_depth":    st.QueueDepth,
		"served":         st.Served,
		"rejected":       st.Rejected,
		"rerouted":       st.Rerouted,
		"no_device":      st.NoDevice,
		"cordons":        st.Cordons,
		"heals":          st.Heals,
		"scale_ups":      st.ScaleUps,
		"scale_downs":    st.ScaleDowns,
		"forced_drains":  st.ForcedDrains,
		"build_failures": st.BuildFailures,
		"events":         st.Events,
		"distributed": map[string]any{
			"solves":            st.DistSolves,
			"deaths":            st.DistDeaths,
			"migrations":        st.DistMigrations,
			"degraded":          st.DistDegraded,
			"integrity_retries": st.DistIntegrityRetries,
			"hedges":            st.DistHedges,
			"hedge_wins":        st.DistHedgeWins,
		},
		"gray": map[string]any{
			"stragglers_flagged":  st.GrayStragglers,
			"flaky_links_flagged": st.GrayLinkFlaky,
		},
	}
	if s.batcher != nil {
		body["batcher"] = batcherStatsBody(s.batcher.Stats())
	}
	writeJSON(w, http.StatusOK, body)
}

// batcherStatsBody renders the coalescing front-end's counters for
// /stats and /fleet.
func batcherStatsBody(st gputrid.BatcherStats) map[string]any {
	queues := make([]map[string]any, 0, len(st.Queues))
	for _, q := range st.Queues {
		queues = append(queues, map[string]any{
			"n":       q.N,
			"pending": q.Pending,
			"flights": q.Flights,
		})
	}
	return map[string]any{
		"admitted":          st.Admitted,
		"admitted_systems":  st.AdmittedSystems,
		"pending_systems":   st.PendingSystems,
		"flushes_watermark": st.FlushesWatermark,
		"flushes_deadline":  st.FlushesDeadline,
		"flushes_close":     st.FlushesClose,
		"flushed_systems":   st.FlushedSystems,
		"padded_systems":    st.PaddedSystems,
		"max_flush_systems": st.MaxFlushSystems,
		"saturated":         st.Saturated,
		"cancelled_waits":   st.CancelledWaits,
		"failed_flushes":    st.FailedFlushes,
		"shapes":            st.Shapes,
		"queues":            queues,
	}
}

func (s *server) handleInject(w http.ResponseWriter, r *http.Request) {
	var req injectRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", "invalid JSON: "+err.Error(), 0)
		return
	}
	kind, err := gpusim.ParseHealthKind(req.Kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	ev := gpusim.HealthEvent{
		Device: req.Device, Kind: kind,
		XID: req.XID, Temp: req.Temp, Message: req.Message,
	}
	s.fl.Inject(ev)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"accepted": ev.String(),
		"note":     "applied by the next control-loop tick",
	})
}

// writeJSON encodes body before writing the status line, so a body
// with no JSON form — a NaN or Inf in x — never leaves a 200 without
// a body: the client gets a typed 500 (kind "nonfinite") instead, and
// the encoding error is returned. Only solve responses can carry a
// non-finite float; other callers ignore the result.
func writeJSON(w http.ResponseWriter, code int, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		code = http.StatusInternalServerError
		buf, _ = json.Marshal(errorResponse{
			Error: "response has no JSON encoding: " + err.Error(),
			Kind:  "nonfinite",
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(buf, '\n'))
	return err
}

// defaultRetryAfterMS is the Retry-After hint for 503s with no better
// congestion estimate — draining drains in seconds, a dead fleet heals
// or scales on the next ticks — so clients always get a concrete wait
// instead of having to invent their own backoff.
const defaultRetryAfterMS = 1000

func writeError(w http.ResponseWriter, code int, kind, msg string, retryAfterMS int64) {
	// Every 503 advises a wait: a 503 always means "try again later",
	// and a hint-less one pushes the backoff guesswork onto clients.
	if code == http.StatusServiceUnavailable && retryAfterMS <= 0 {
		retryAfterMS = defaultRetryAfterMS
	}
	if retryAfterMS > 0 {
		secs := (retryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, code, errorResponse{Error: msg, Kind: kind, RetryAfterMS: retryAfterMS})
}

// parseWarmShapes parses "-warm 64:1024,16:4096".
func parseWarmShapes(spec string) ([][2]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out [][2]int
	for _, part := range strings.Split(spec, ",") {
		mn := strings.Split(strings.TrimSpace(part), ":")
		if len(mn) != 2 {
			return nil, fmt.Errorf("bad -warm entry %q (want M:N)", part)
		}
		m, err1 := strconv.Atoi(mn[0])
		n, err2 := strconv.Atoi(mn[1])
		if err1 != nil || err2 != nil || m <= 0 || n <= 0 {
			return nil, fmt.Errorf("bad -warm entry %q (want positive M:N)", part)
		}
		out = append(out, [2]int{m, n})
	}
	return out, nil
}

// close drains the front-end: new solves are refused as draining,
// parked coalesced flights flush and complete, then every device pool
// drains under ctx.
func (s *server) close(ctx context.Context) error {
	s.draining.Store(true)
	if s.batcher != nil {
		s.batcher.Close()
	}
	return s.fl.Close(ctx)
}

// serve runs the HTTP front-end over a fleet built from cfg, with a
// wall-clock ticker driving the control loop, until SIGINT/SIGTERM;
// then it drains: the ticker stops, the listener stops accepting,
// in-flight requests finish, and the fleet closes gracefully
// (force-cancelling stragglers after a bounded drain window).
func serve(addr string, cfg fleet.Config, batchN int, batchWait time.Duration, distMin int) error {
	fl, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	srv, err := newServer(fl, batchN, batchWait, distMin)
	if err != nil {
		_ = fl.Close(context.Background())
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		_ = srv.close(context.Background())
		return err
	}

	stopTicks := make(chan struct{})
	go func() {
		tk := time.NewTicker(fleetTickInterval)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				fl.Tick()
			case <-stopTicks:
				return
			}
		}
	}()

	hs := &http.Server{Handler: srv.routes()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("tridserve: listening on %s (%d device(s), capacity %d/shape/device)\n",
		ln.Addr(), cfg.Devices, cfg.Pool.Capacity)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		close(stopTicks)
		_ = srv.close(context.Background())
		return err
	case <-sig:
	}

	fmt.Println("tridserve: draining...")
	srv.draining.Store(true)
	close(stopTicks)
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(shCtx)
	if err := srv.close(shCtx); err != nil {
		fmt.Fprintf(os.Stderr, "tridserve: fleet drain: %v\n", err)
	}
	return nil
}
