package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gputrid"
	"gputrid/internal/matrix"
)

// serve_small: single-system requests over loopback HTTP to a default
// single-pool tridserve, at most serveConns keep-alive connections.
const (
	serveConns = 2
	// serveFixedRate is the open-loop rate of the latency phase: well
	// under a fifth of the server's capacity, below the knee where
	// queueing would amplify a slowdown of the shared host.
	serveFixedRate = 100.0
	// serveLimit is the latency limit of max_rate_rps, and
	// serveMissBudget the share of a rung's requests that may miss it.
	serveLimit      = 50 * time.Millisecond
	serveMissBudget = 0.01
	// max_rate_rps searches the geometric ladder of 2^serveSearchSteps+1
	// rungs from serveRateLo to serveRateHi, about 3.3% apart, by
	// bisection; each rung probed sends serveProbeOps requests.
	serveRateLo, serveRateHi = 250.0, 2000.0
	serveSearchSteps         = 6
	serveProbeOps            = 200
)

type solveRequest struct {
	M     int       `json:"m"`
	N     int       `json:"n"`
	Lower []float64 `json:"lower"`
	Diag  []float64 `json:"diag"`
	Upper []float64 `json:"upper"`
	RHS   []float64 `json:"rhs"`
}

type solveResponse struct {
	X      []float64 `json:"x"`
	WaitNS int64     `json:"wait_ns"`
	WallNS int64     `json:"wall_ns"`
}

func encodeSystem(s system) ([]byte, error) {
	return json.Marshal(solveRequest{M: 1, N: len(s.Diag), Lower: s.Lower, Diag: s.Diag, Upper: s.Upper, RHS: s.RHS})
}

// serverProc is a running tridserve.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	addr chan string
}

// Write watches the server's standard output for its listen address.
func (p *serverProc) Write(b []byte) (int, error) {
	for _, l := range strings.Split(string(b), "\n") {
		if _, rest, ok := strings.Cut(l, "listening on "); ok {
			select {
			case p.addr <- strings.Fields(rest)[0]:
			default:
			}
		}
	}
	return len(b), nil
}

// startServer starts tridserve on a loopback port with serve_small's
// shapes warmed, and returns once it listens.
func startServer(bin string) (*serverProc, error) {
	var warm []string
	for _, n := range serveSizes {
		warm = append(warm, fmt.Sprintf("1:%d", n))
	}
	p := &serverProc{addr: make(chan string, 1)}
	p.cmd = exec.Command(filepath.Join(bin, "tridserve"), "-addr", "127.0.0.1:0", "-warm", strings.Join(warm, ","))
	p.cmd.Stdout = p
	p.cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if it crashes.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	select {
	case a := <-p.addr:
		p.url = "http://" + a
		return p, nil
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("tridserve did not report a listen address")
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

func (p *serverProc) stats() (map[string]any, error) {
	resp, err := http.Get(p.url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st map[string]any
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// newConn returns a client holding at most one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func closeConns(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// exchange is one request and its response as received; the response
// is checked after the timed phase.
type exchange struct {
	sys    int
	status int
	body   []byte
	err    error
	timing
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// outcome is the verdict on one response.
type outcome struct {
	ok         bool
	why        string
	empty200   bool
	nonfinite  bool
	resid      float64
	wait, wall time.Duration
}

func check(s system, ex *exchange) outcome {
	switch {
	case ex.err != nil:
		return outcome{why: ex.err.Error()}
	case ex.status == http.StatusOK && len(ex.body) == 0:
		return outcome{why: "HTTP 200 with an empty body", empty200: true}
	case ex.status != http.StatusOK:
		return outcome{why: fmt.Sprintf("HTTP %d: %.120s", ex.status, ex.body)}
	}
	var r solveResponse
	if err := json.Unmarshal(ex.body, &r); err != nil {
		return outcome{why: "unparsable body: " + err.Error()}
	}
	o := outcome{wait: time.Duration(r.WaitNS), wall: time.Duration(r.WallNS)}
	for _, x := range r.X {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			o.nonfinite, o.why = true, "non-finite x"
			return o
		}
	}
	if len(r.X) != len(s.Diag) {
		o.why = fmt.Sprintf("x has %d entries, want %d", len(r.X), len(s.Diag))
		return o
	}
	o.resid = gputrid.Residual(s.batch(), r.X)
	if tol := matrix.ResidualTolerance[float64](len(s.Diag)); !(o.resid <= tol) {
		o.why = fmt.Sprintf("residual %.3g above tolerance %.3g", o.resid, tol)
		return o
	}
	o.ok = true
	return o
}

// serveBench holds one serve_small run's inputs and server.
type serveBench struct {
	cfg     runConfig
	srv     *serverProc
	systems []system
	bodies  [][]byte
	rep     *report
	resid   float64
	empty   int // F1-signature responses: HTTP 200, empty body
	nonfin  int
	checked int
}

// scheduleRNG returns the draws of one phase: part names the phase
// within round.
func (sb *serveBench) scheduleRNG(round, part int) *rand.Rand {
	return newRNG(sb.cfg.seed, streamSchedule<<32|uint64(round)<<16|uint64(part))
}

// phase sends the ops of one schedule open-loop and checks every
// response afterwards. With a limit, the phase stops early once more
// than the miss budget of its ops have exceeded it.
func (sb *serveBench) phase(name string, rate float64, dur time.Duration, rng *rand.Rand, limit time.Duration) ([]exchange, []outcome) {
	due := poissonSchedule(rng, rate, dur)
	picks := opPicks(rng, len(due), len(sb.systems))
	exs := make([]exchange, len(due))
	conns := []*http.Client{newConn(), newConn()}
	defer closeConns(conns)
	var misses atomic.Int64
	budget := int64(serveMissBudget * float64(len(due)))
	clk := newWallClock()
	tms := openLoop(clk, due, serveConns, func(i, c int) {
		ex := &exs[i]
		ex.sys = picks[i]
		ex.status, ex.body, ex.err = post(conns[c], sb.srv.url, sb.bodies[ex.sys])
		if limit > 0 && clk.now()-due[i] > limit {
			misses.Add(1)
		}
	}, func() bool { return limit > 0 && misses.Load() > budget })
	for i := range exs {
		exs[i].timing = tms[i]
	}
	outs := make([]outcome, len(exs))
	for i := range exs {
		if !exs[i].Ran {
			continue
		}
		outs[i] = sb.verify(name, &exs[i])
	}
	return exs, outs
}

func (sb *serveBench) verify(phase string, ex *exchange) outcome {
	o := check(sb.systems[ex.sys], ex)
	sb.rep.Attempted++
	sb.checked++
	if o.empty200 {
		sb.empty++
	}
	if o.nonfinite {
		sb.nonfin++
	}
	if !o.ok {
		sb.rep.Failed++
		if sb.rep.Failed <= 5 {
			sb.rep.fail("%s: request for system %d (n=%d): %s", phase, ex.sys, len(sb.systems[ex.sys].Diag), o.why)
		} else {
			sb.rep.Correct = false
		}
		return o
	}
	sb.resid = max(sb.resid, o.resid)
	return o
}

// ready sends one request per warmed shape and returns when all have
// been answered correctly.
func (sb *serveBench) ready(srv *serverProc) error {
	c := newConn()
	defer c.CloseIdleConnections()
	for k := range serveSizes {
		i := k * variantsPerSize
		ex := exchange{sys: i}
		ex.status, ex.body, ex.err = post(c, srv.url, sb.bodies[i])
		if o := check(sb.systems[i], &ex); !o.ok {
			return fmt.Errorf("warm-up request n=%d: %s", serveSizes[k], o.why)
		}
	}
	return nil
}

func statCount(st map[string]any, path ...string) float64 {
	var v any = st
	for _, k := range path {
		m, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = m[k]
	}
	f, _ := v.(float64)
	return f
}

func runServe(cfg runConfig) (*report, error) {
	// Rare collections keep the generator's own pauses out of the
	// latencies it measures.
	debug.SetGCPercent(400)
	sb := &serveBench{cfg: cfg, rep: newReport(metricsFor(cfg)), systems: serveSystems(cfg.seed)}
	for _, s := range sb.systems {
		b, err := encodeSystem(s)
		if err != nil {
			return nil, err
		}
		sb.bodies = append(sb.bodies, b)
	}
	rep := sb.rep

	// Set-up: process start until every warmed shape has answered once,
	// setupRepeats times; the last server is kept.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if sb.srv != nil {
			sb.srv.stop()
		}
		t := time.Now()
		srv, err := startServer(cfg.bin)
		if err != nil {
			return nil, err
		}
		sb.srv = srv
		if err := sb.ready(srv); err != nil {
			srv.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() { sb.srv.stop() }()
	st0, err := sb.srv.stats()
	if err != nil {
		return nil, fmt.Errorf("reading /stats: %w", err)
	}

	if cfg.trace {
		if err := sb.traced(); err != nil {
			return nil, err
		}
	} else if err := sb.untraced(setups); err != nil {
		return nil, err
	}

	// Hard inputs: one zero-leading-diagonal system per hardShare ops
	// sent, each sent alone after the timed phases. They are probes of
	// the one-contract rule (a correct answer or a typed error), not ops
	// of the workload: a typed error counts as handled.
	hard := hardSystems(cfg.seed, rep.Attempted)
	var handled, empty, nonfinite int
	c := newConn()
	for _, s := range hard {
		body, err := encodeSystem(s)
		if err != nil {
			return nil, err
		}
		ex := exchange{}
		ex.status, ex.body, ex.err = post(c, sb.srv.url, body)
		switch o := check(s, &ex); {
		case o.empty200:
			empty++
		case o.nonfinite:
			nonfinite++
		case o.ok || (ex.err == nil && ex.status != http.StatusOK):
			handled++
		}
	}
	c.CloseIdleConnections()
	sb.empty += empty
	sb.nonfin += nonfinite
	rep.logf("hard-input probes: %d zero-leading-diagonal requests: %d answered or refused with a typed error, %d HTTP 200 with an empty body, %d non-finite x",
		len(hard), handled, empty, nonfinite)

	st1, err := sb.srv.stats()
	if err != nil {
		return nil, fmt.Errorf("reading /stats: %w", err)
	}
	if !cfg.trace {
		rss, err := peakRSSMB(strconv.Itoa(sb.srv.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		rep.set("rss_mb", rss, "VmHWM of the tridserve process")
		return rep, nil
	}
	delta := func(path ...string) float64 { return statCount(st1, path...) - statCount(st0, path...) }
	rep.set("pool.rejected", delta("rejected_queue_full")+delta("rejected_deadline")+delta("rejected_closed"), "/stats delta over the run")
	rep.set("pool.fallback_solves", delta("fallback_solves"), "/stats delta over the run")
	rep.set("pool.breaker_trips", delta("breaker", "trips"), "/stats delta over the run")
	rep.set("tridserve.empty_200", float64(sb.empty), "F1 signature, ops and hard-input probes")
	rep.set("tridserve.nonfinite_x", float64(sb.nonfin), "ops and hard-input probes")
	return rep, nil
}

// Schedule parts of a round: the fixed-rate window, one per rung
// probed, one per closed-loop connection, and the traced run's second
// window.
const (
	partFixed  = 0
	partRung   = 1
	partClosed = 100
	partTraced = 200
)

// untraced measures the end-to-end metrics in rounds rounds, each a
// search of the rate ladder, then a fixed-rate latency window and a
// closed-loop throughput window sharing what is left of the round's
// time 3:2.
func (sb *serveBench) untraced(setups []float64) error {
	rep, slot := sb.rep, sb.cfg.dur/rounds
	modeled, err := modeledBySize()
	if err != nil {
		return err
	}
	var p50s, tails, pcts, rates, thrs []float64
	fixedN := 0
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		rates = append(rates, sb.ladder(r))
		rest := max(slot-time.Since(t0), slot/4)
		exs, outs := sb.phase(fmt.Sprintf("fixed-rate %d", r), serveFixedRate, rest*3/5, sb.scheduleRNG(r, partFixed), 0)
		var lat []float64
		for i, ex := range exs {
			if outs[i].ok {
				lat = append(lat, ms(ex.latency()))
			}
		}
		fixedN += len(lat)
		s := newSample(lat)
		tail, pct := s.tail()
		p50s, tails, pcts = append(p50s, s.at(50)), append(tails, tail), append(pcts, pct)
		thrs = append(thrs, sb.closedLoop(r, rest*2/5))
	}
	var model float64
	for _, n := range serveSizes {
		model += modeled[n] / float64(len(serveSizes))
	}
	note := fmt.Sprintf("interquartile mean of %d rounds, n=%d, open loop %.0f/s from due time", rounds, fixedN, serveFixedRate)
	rep.set("latency_p50_ms", iqMean(p50s), note)
	rep.set("latency_p99_ms", iqMean(tails), fmt.Sprintf("%s, each round's p%.2f", note, iqMean(pcts)))
	rep.set("modeled_ms", model, "Solver.ModeledTime averaged over the request sizes, which are drawn uniformly")
	rep.set("max_rate_rps", iqMean(rates), fmt.Sprintf("interquartile mean of %d bisections of the %.0f-%.0f/s ladder, limit %v", rounds, serveRateLo, serveRateHi, serveLimit))
	rep.set("throughput_ops_s", iqMean(thrs), fmt.Sprintf("interquartile mean of %d windows, %d closed-loop connections", rounds, serveConns))
	rep.set("residual_max", sb.resid, fmt.Sprintf("over %d checked responses", sb.checked))
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d: tridserve start until each warmed shape answered", setupRepeats))
	return nil
}

// rateSearch finds the highest rung of the geometric ladder
// lo·(hi/lo)^(k/2^steps), k = 0…2^steps, at which probe passes, by
// bisecting the ladder steps times (hi itself is never probed). The
// bottom rung lo is probed only when every other probe failed. It
// returns the goodput probe reported at that rung, or 0 if lo fails.
func rateSearch(lo, hi float64, steps int, probe func(k int, rate float64) (pass bool, goodput float64)) float64 {
	top := 1 << steps
	a, b := 0, top
	var best float64
	for k := 0; k < steps; k++ {
		mid := (a + b) / 2
		if ok, g := probe(k, lo*math.Pow(hi/lo, float64(mid)/float64(top))); ok {
			a, best = mid, g
		} else {
			b = mid
		}
	}
	if a == 0 {
		if ok, g := probe(steps, lo); ok {
			return g
		}
		return 0
	}
	return best
}

// ladder searches the rate ladder once and returns the goodput of the
// highest rung that passes: at least 1-serveMissBudget of its scheduled
// requests succeed within serveLimit of their due time, and the last
// one was sent within serveLimit (no growing backlog).
func (sb *serveBench) ladder(round int) float64 {
	return rateSearch(serveRateLo, serveRateHi, serveSearchSteps, func(k int, rate float64) (bool, float64) {
		dur := time.Duration(serveProbeOps / rate * float64(time.Second))
		exs, outs := sb.phase(fmt.Sprintf("ladder %d %.0f/s", round, rate), rate, dur, sb.scheduleRNG(round, partRung+k), serveLimit)
		good := 0
		var end, backlog time.Duration
		for i, ex := range exs {
			if ex.Ran {
				end = max(end, ex.Done)
				backlog = ex.Backlog + ex.Late
			}
			if outs[i].ok && ex.latency() <= serveLimit {
				good++
			}
		}
		pass := len(exs) > 0 && float64(good) >= (1-serveMissBudget)*float64(len(exs)) && backlog <= serveLimit
		sb.rep.logf("round %d ladder %4.0f/s: %d scheduled, %d within %v, last send lag %.2f ms: %s",
			round, rate, len(exs), good, serveLimit, ms(backlog), map[bool]string{true: "pass", false: "fail"}[pass])
		return pass, float64(good) / end.Seconds()
	})
}

// closedLoop keeps every connection busy for dur, each sending its next
// request as soon as its last one returns, and returns ops per second.
func (sb *serveBench) closedLoop(round int, dur time.Duration) float64 {
	closed := make([][]exchange, serveConns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range closed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := newConn()
			defer conn.CloseIdleConnections()
			rng := sb.scheduleRNG(round, partClosed+c)
			for time.Since(t0) < dur {
				ex := exchange{sys: rng.IntN(len(sb.systems))}
				ex.status, ex.body, ex.err = post(conn, sb.srv.url, sb.bodies[ex.sys])
				closed[c] = append(closed[c], ex)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	done := 0
	for c := range closed {
		for i := range closed[c] {
			sb.verify("closed-loop", &closed[c][i])
		}
		done += len(closed[c])
	}
	return float64(done) / elapsed.Seconds()
}

// traced runs the fixed-rate phase untraced, then again with spans
// built from the recorded times, and reports the per-layer metrics.
func (sb *serveBench) traced() error {
	rep, dur := sb.rep, sb.cfg.dur
	plain, plainOut := sb.phase("fixed-rate", serveFixedRate, dur/2, sb.scheduleRNG(0, partFixed), 0)
	exs, outs := sb.phase("fixed-rate traced", serveFixedRate, dur/2, sb.scheduleRNG(0, partTraced), 0)

	tr := newTracer()
	var rtt, late, wait, solve []time.Duration
	var reqB, respB int
	for i, ex := range exs {
		o := outs[i]
		if !o.ok {
			continue
		}
		root := tr.add(span{Op: i, Parent: -1, Name: "loadgen.op", Start: ex.Due, End: ex.Done})
		call := tr.add(span{Op: i, Parent: root, Name: "tridserve.http", Start: ex.Sent, End: ex.Done})
		// The server reports durations only; they are placed from the
		// send time, which leaves the self-time arithmetic exact.
		tr.add(span{Op: i, Parent: call, Name: "pool.wait", Start: ex.Sent, End: ex.Sent + o.wait})
		tr.add(span{Op: i, Parent: call, Name: "pool.solve", Start: ex.Sent + o.wait, End: ex.Sent + o.wait + o.wall})
		rtt = append(rtt, ex.Done-ex.Sent)
		late = append(late, ex.Late)
		wait = append(wait, o.wait)
		solve = append(solve, o.wall)
		reqB += len(sb.bodies[ex.sys])
		respB += len(ex.body)
	}
	if len(rtt) == 0 {
		return fmt.Errorf("no traced request succeeded")
	}
	wire := tr.selfByName("tridserve.http")
	var wireSum, rttSum time.Duration
	for i := range wire {
		wireSum += wire[i]
		rttSum += rtt[i]
	}
	n := len(rtt)
	note := fmt.Sprintf("n=%d traced requests", n)
	waitTail, waitPct := durationsMS(wait).tail()
	lateTail, latePct := durationsMS(late).tail()
	rep.set("tridserve.wire_ms_p50", durationsMS(wire).at(50), "round trip minus server wait_ns + wall_ns, "+note)
	rep.set("tridserve.wire_share", float64(wireSum)/float64(rttSum), "sum of wire time / sum of round trips")
	rep.set("tridserve.req_bytes", float64(reqB)/float64(n), "mean request body")
	rep.set("tridserve.resp_bytes", float64(respB)/float64(n), "mean response body")
	rep.set("pool.wait_ms_p99", waitTail, fmt.Sprintf("p%.2f of server wait_ns, %s", waitPct, note))
	rep.set("pool.solve_ms_p50", durationsMS(solve).at(50), "server wall_ns, "+note)
	rep.set("loadgen.late_ms_p99", lateTail, fmt.Sprintf("p%.2f of generator send lag, %s", latePct, note))

	var plainLat, tracedLat []float64
	for i, ex := range plain {
		if plainOut[i].ok {
			plainLat = append(plainLat, ms(ex.latency()))
		}
	}
	for _, s := range tr.spans {
		if s.Name == "loadgen.op" {
			tracedLat = append(tracedLat, ms(s.dur()))
		}
	}
	s0, s1 := newSample(plainLat), newSample(tracedLat)
	t0, _ := s0.tail()
	t1, _ := s1.tail()
	rep.logf("fixed-rate latency untraced p50 %.3f tail %.3f ms, traced p50 %.3f tail %.3f ms", s0.at(50), t0, s1.at(50), t1)
	p0, p1 := s0.at(50), s1.at(50)
	rep.set("trace.overhead_frac", p1/p0-1, fmt.Sprintf("traced p50 %.3f / untraced p50 %.3f ms - 1", p1, p0))
	return tr.writeAndSummarize(rep, tracePath(sb.cfg, "serve_small"))
}

// modeledBySize returns the cost model's time, in ms, for one request
// of each serve size on the Solver configuration the pool builds.
func modeledBySize() (map[int]float64, error) {
	out := map[int]float64{}
	rng := newRNG(0, streamServe)
	for _, n := range serveSizes {
		s, err := gputrid.NewSolver[float64](1, n)
		if err != nil {
			return nil, err
		}
		err = s.SolveBatchInto(make([]float64, n), ddSystem(rng, n).batch())
		out[n] = ms(s.ModeledTime())
		s.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
