// Command perfbench is the repository benchmark: three workloads, each
// standing for one thing a user waits for, timed from outside the
// program through its public packages.
//
//	testbed-train  a fedtrain-recipe training round on paper Testbed II
//	population     a PopulationRunner round over a 10⁶-client fleet
//	serve-mix      fedserve jobs under an open-loop arrival schedule
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash _perfbench/run.sh --workload testbed-train --seed 1 --seconds 30 --trace 0
//	bash _perfbench/run.sh --workload all
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics.
// Every line above it is a human-readable report: each metric with its
// unit, direction and sample count. A failed output check makes the
// result incorrect and the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// defaultSeed is the seed whose workload outputs are recorded in
// expected.go.
const defaultSeed = 1

// metricDef names a metric the JSON result carries.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run (--trace 0), one set for
// every workload. latency is the workload's unit of waiting: a round for
// testbed-train and population, a job from its scheduled arrival to its
// first observed terminal state for serve-mix.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// tailP is each workload's tail percentile for latency_tail_ms: p90
// where a default-length run backs it with minBeyond samples beyond it,
// else p75. serve-mix backs p90 too, but its p90 spread 30% between runs
// on the reference host, its p75 less.
var tailP = map[string]float64{
	"testbed-train": 0.75,
	"population":    0.90,
	"serve-mix":     0.75,
}

var workloads = []string{"testbed-train", "population", "serve-mix"}

type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// stateDir holds files the workload writes (serve-mix daemons).
	stateDir string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and output-check outcomes.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]metricValue
	lines             map[string]string
	order             []string
}

func newReport() *report {
	return &report{values: map[string]metricValue{}, lines: map[string]string{}}
}

// set records a metric, with its unit, direction and the count it rests
// on, replacing an earlier value of the same name.
func (r *report) set(name string, v float64, unit, better, count string) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = metricValue{Value: v, Unit: unit}
	if better != "" {
		better = " (" + better + " is better)"
	}
	r.lines[name] = fmt.Sprintf("%-40s %14.6g %-10s%s  [%s]", name, v, unit, better, count)
}

// layer records a per-layer metric (no direction).
func (r *report) layer(name string, v float64, unit, count string) {
	r.set(name, v, unit, "", count)
}

// check counts ops attempted operations and fails all of them when ok
// is false, recording why.
func (r *report) check(ops int, ok bool, format string, args ...any) {
	r.attempted += ops
	r.expect(ops, ok, format, args...)
}

// expect fails ops already-attempted operations when ok is false,
// recording why.
func (r *report) expect(ops int, ok bool, format string, args ...any) {
	if !ok {
		r.failed += ops
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "all", "workload: testbed-train | population | serve-mix | all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	calib := flag.Bool("calibrate", false, "measure serve-mix capacity instead of running a workload")
	flag.Parse()
	o.trace = traceFlag == 1

	if o.workload == "all" && !*calib {
		os.Exit(runAll(o, traceFlag))
	}
	known := *calib
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", o.workload, o.seconds, traceFlag)
		os.Exit(2)
	}

	dir, err := os.MkdirTemp(".bench_build", "state-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	o.stateDir = dir
	if *calib {
		err = calibrate(o)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: calibrate: %v\n", err)
			os.Exit(1)
		}
		return
	}
	r := newReport()
	err = run(o, r)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	os.Exit(emit(o, r))
}

// run measures one workload. A traced run first sweeps the layers the
// workload does not exercise, then runs the workload traced, which
// reports the layers it does.
func run(o opts, r *report) error {
	if o.trace {
		if err := sweep(o, r); err != nil {
			return err
		}
	}
	switch o.workload {
	case "testbed-train":
		return runTestbed(o, r)
	case "population":
		return runPopulation(o, r)
	default:
		return runServeMix(o, r)
	}
}

// emit prints the report and the JSON result line; it returns the exit
// code.
func emit(o opts, r *report) int {
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, name := range r.order {
		fmt.Println(r.lines[name])
	}
	if r.failed > r.attempted { // several checks can fail one operation
		r.failed = r.attempted
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-40s %14.6g %-10s (lower is better)  [%d failed of %d attempted]\n", "failed_share", share, "fraction", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && len(r.problems) == 0 && r.attempted > 0, r.attempted, r.failed, map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		out.Metrics[d.Name] = v
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process (so each reports
// its own peak RSS) and exits non-zero if any of them failed.
func runAll(o opts, traceFlag int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(traceFlag))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// resetPeakRSS drops earlier garbage and restarts the kernel's
// resident-set high-water mark, so that peakRSSMB then reports the peak
// of the work that follows alone, as a fresh process running it would.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
