// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads from outside the library, checks every output, and
// prints its metrics, ending with one JSON result line:
//
//	serve_small  open-loop HTTP load against a tridserve subprocess
//	adi_heat     Peaceman-Rachford ADI steps on two reusable Solvers
//	dist_slab    distributed solves over four simulated devices
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// records spans around each layer call and reports the per-layer
// metrics instead. Build and run it through run.sh, which builds the
// tridserve binary it needs:
//
//	bash perfbench/run.sh -workload adi_heat -seed 1 -seconds 35 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed  uint64
	dur   time.Duration
	trace bool
	bin   string // holds the tridserve binary; traces go under it
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a workload's metrics with a note on how each was
// measured (sample counts, percentile used, ratio bases).
type report struct {
	result
	notes map[string]string
	lines []string // free-form check and probe results
}

func newReport(names []metricDef) *report {
	r := &report{result: result{Correct: true, Metrics: map[string]metric{}}, notes: map[string]string{}}
	for _, d := range names {
		r.Metrics[d.name] = metric{0, d.unit}
	}
	return r
}

// set records a metric; it must be one the run reports.
func (r *report) set(name string, v float64, note string) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: metric " + name + " is not reported by this run")
	}
	m.Value = v
	r.Metrics[name] = m
	if note != "" {
		r.notes[name] = note
	}
}

// fail records an output check that did not hold.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.lines = append(r.lines, "CHECK FAILED: "+fmt.Sprintf(format, args...))
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) print(workload string) error {
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "perfbench: workload %s\n", workload)
	for _, l := range r.lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %16s %-9s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit, r.notes[n])
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, outputs correct %v\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

var workloads = map[string]func(runConfig) (*report, error){
	"serve_small": runServe,
	"adi_heat":    runADI,
	"dist_slab":   runDist,
}

func main() {
	var (
		workload = flag.String("workload", "", "serve_small, adi_heat or dist_slab")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		bin      = flag.String("bin", ".bench_build", "directory holding the tridserve binary")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload serve_small|adi_heat|dist_slab, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, bin: *bin}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := r.print(*workload); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// metricsFor returns the metrics a run reports: the end-to-end set
// untraced, the per-layer set traced.
func metricsFor(cfg runConfig) []metricDef {
	if cfg.trace {
		return perLayer
	}
	return endToEnd
}

// tracePath is where a traced run writes its spans.
func tracePath(cfg runConfig, workload string) string {
	return filepath.Join(cfg.bin, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
}

// peakRSSMB reads VmHWM, the peak resident set, of a process from
// /proc ("self" for this one).
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS returns freed memory to the OS and restarts this
// process's VmHWM from its current resident set, so a later peakRSSMB
// covers only what follows: set-up's discarded repeats drop out.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 11
