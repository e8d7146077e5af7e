// Command floodbench is the repository's end-to-end benchmark. One run
// drives one workload of the flooding simulator for a fixed time through
// the packages' public functions, checks every output it produces, and
// prints the metrics by name and unit.
//
// With --trace 0 it prints the end-to-end metrics a user of the simulator
// sees (wall time per flood or job, simulated agent-steps per second,
// parallel scaling, set-up time, memory). With --trace 1 it runs the same
// seeds again with spans recorded around the calls into each layer and
// prints the per-layer table instead. The last line of standard output is
// always one JSON object with the keys correct, attempted, failed and
// metrics; the exit code is non-zero when any check failed.
//
// Build and run it from the repository root with floodbench/run.sh:
//
//	bash floodbench/run.sh --workload sparse_flood_100k --seed 1 --seconds 30 --trace 0
//
// README.md in this directory lists the workloads, the metrics and which
// metric each planned change should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"manhattanflood/internal/kernel"
)

// defaultSeed is the workload seed used when --seed is not given. Every
// flood, job and probe seed of a run is derived from the workload seed,
// so any other seed runs the same workloads on fresh inputs.
const defaultSeed = 1

// endToEnd lists the metrics a --trace 0 run reports, in print order.
var endToEnd = []string{
	"setup_s", "wait_ms_p90", "agent_steps_per_s", "scaling_efficiency", "max_rss_mb",
}

// perLayer lists the metrics a --trace 1 run reports, in print order.
var perLayer = []string{
	"sim.world_step_us_p50", "sim.world_step_us_p99", "sim.world_step_share",
	"sim.new_world_ms", "sim.reset_ms_p50", "sim.index_sync_ns_per_agent",
	"mobility.advance_ns_per_agent",
	"spatialindex.classify_ns_per_agent", "spatialindex.rebuild_ns_per_agent",
	"core.protocol_us_p50", "core.protocol_share",
	"core.steps_per_flood", "core.newly_informed_per_step_p50",
	"tracev2.encode_ns_per_agent", "tracev2.bytes_per_agent_step", "tracev2.decode_ns_per_agent",
	"experiments.cell_ms_p50", "experiments.cell_ms_p99",
	"checkpoint.record_ms_p50", "checkpoint.record_ms_p99",
	"service.submit_ms_p50", "service.overhead_share",
	"runtime.alloc_bytes_per_step", "runtime.gc_cycles_per_flood",
	"trace_overhead", "trace_span_coverage",
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run){
	"sparse_flood_100k": func(r *run) { r.floodWorkload(sparseFlood(r.opt.tiny)) },
	"paused_record_20k": func(r *run) { r.floodWorkload(pausedRecord(r.opt.tiny)) },
	"sweep_service":     (*run).serviceWorkload,
}

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// results is the directory each run stores its result (and, when
	// tracing, its spans) in; empty stores nothing.
	results string
	// tiny shrinks every workload to smoke-test sizes.
	tiny bool
	// skewTracedT is added to every flooding time the traced leg
	// measures. Only tests set it, to plant a traced/untraced mismatch.
	skewTracedT int
}

// run is the state of one benchmark run.
type run struct {
	opt   options
	nproc int
	start time.Time
	tmp   string
	rep   report
	spans *spanBuffer
	// Flood-level runtime counters of the traced leg.
	allocBytes, gcCycles uint64
	tracedSteps          int
	floodsTraced         int
	// Trace file bytes and agent-frames of the recorded legs and probes.
	traceBytes, traceAgentFrames float64
	// worldStepNsPerAgent is the traced median world step per agent.
	worldStepNsPerAgent float64
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain parses args, runs the workload, prints the report to stdout and
// returns the process exit code.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("floodbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&opt.seed, "seed", defaultSeed, "workload seed; every flood, job and probe seed is derived from it")
	fs.Float64Var(&opt.seconds, "seconds", 30, "measurement time of the run in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer table")
	fs.StringVar(&opt.results, "results", "", "directory to store the run's result and spans in (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[opt.workload]
	if !ok {
		fmt.Fprintf(stderr, "floodbench: unknown workload %q (want one of %s)\n", opt.workload, strings.Join(names, ", "))
		return 2
	}
	if trace != 0 && trace != 1 || opt.seconds <= 0 {
		fmt.Fprintln(stderr, "floodbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	opt.trace = trace == 1
	return execute(opt, drive, stdout, stderr)
}

// execute runs one workload with the given options and reports it.
func execute(opt options, drive func(*run), stdout, stderr io.Writer) int {
	tmp, err := os.MkdirTemp("", "floodbench-")
	if err != nil {
		fmt.Fprintf(stderr, "floodbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	r := &run{opt: opt, nproc: runtime.NumCPU(), start: time.Now(), tmp: tmp}
	if opt.trace {
		r.spans = newSpanBuffer(1 << 18)
	}
	env := environment(opt)
	envJSON, _ := json.Marshal(env) // plain data; cannot fail
	fmt.Fprintf(stdout, "# env %s\n", envJSON)

	drive(r)

	want := endToEnd
	if opt.trace {
		want = perLayer
		r.rep.check(r.spans.dropped == 0, "span buffer overflowed: %d spans dropped", r.spans.dropped)
	} else {
		r.rep.set("max_rss_mb", "MiB", maxRSSMiB(), 1)
	}
	for _, name := range want {
		r.rep.check(r.rep.has(name), "metric %s was not measured", name)
	}
	r.rep.set("failed_frac", "ratio", float64(r.rep.failed())/float64(r.rep.attempted), r.rep.attempted)
	r.rep.print(stdout, want)
	if err := r.store(env); err != nil {
		fmt.Fprintf(stderr, "floodbench: storing result: %v\n", err)
	}
	line, err := r.rep.resultLine(want)
	if err != nil {
		fmt.Fprintf(stderr, "floodbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if r.rep.failed() > 0 {
		return 1
	}
	return 0
}

// header is the environment printed with, and stored beside, every
// result.
type header struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	KernelPath string  `json:"kernel_path"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func environment(opt options) header {
	return header{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		KernelPath: kernel.Path(),
		Workload:   opt.workload,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Trace:      opt.trace,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// elapsed is the time since the run started, in seconds.
func (r *run) elapsed() float64 { return time.Since(r.start).Seconds() }

// store writes the environment, every metric with its sample count and
// the failures to the results directory, plus the spans of a traced run.
func (r *run) store(e header) error {
	if r.opt.results == "" {
		return nil
	}
	mode := 0
	if r.opt.trace {
		mode = 1
	}
	base := filepath.Join(r.opt.results, fmt.Sprintf("%s-seed%d-trace%d", r.opt.workload, r.opt.seed, mode))
	blob, err := json.MarshalIndent(struct {
		Env       header   `json:"env"`
		Attempted int      `json:"attempted"`
		Failed    int      `json:"failed"`
		Failures  []string `json:"failures"`
		Metrics   []metric `json:"metrics"`
	}{e, r.rep.attempted, r.rep.failed(), r.rep.failures, r.rep.metrics}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", blob, 0o644); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	return r.spans.writeTSV(base + "-spans.tsv")
}
