// Command perfbench is the simulator's benchmark. It runs one workload
// with a seed, measures it from outside the simulator through its public
// entry points, checks the simulated outputs, and prints every metric by
// name and unit, ending with one JSON line:
//
//	perfbench --workload canneal64_noack --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics (host time, memory and the
// simulated makespan) with nothing instrumented; --trace 1 makes a separate
// traced run that breaks host time down per layer and writes its spans as
// Chrome trace-event JSON. NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options select what one run measures: the command-line arguments, plus
// the trace directory and workload size the benchmark's test overrides.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	sz       size
}

// traceDir is where the traced run writes its Chrome trace, inside the
// checkout's build directory.
const traceDir = ".bench_build/traces"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "how long the untraced run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, ok := benchByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		var names []string
		for _, b := range benches {
			names = append(names, b.name)
		}
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v and --trace 0 or 1\n", names)
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: traceDir, sz: full}
	rep := runBench(b, opt, stdout)
	rep.print(stdout)
	return 0
}

// runBench runs one workload and returns its report.
func runBench(b bench, opt options, log io.Writer) *report {
	fmt.Fprintf(log, "# perfbench %s seed=%d trace=%v nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		b.name, opt.seed, opt.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rep := &report{correct: true, defs: endToEnd, vals: map[string]float64{}, log: log}
	steal0 := stealSeconds()
	if opt.trace {
		rep.defs = perLayer
		traced(b, opt, rep)
	} else {
		untraced(b, opt, rep)
	}
	if steal0 >= 0 {
		rep.logf("# hypervisor steal during the run: %.2f CPU-s (other tenants' load)", stealSeconds()-steal0)
	}
	return rep
}

// metricDef is one metric the benchmark reports; the tables below mirror
// BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics: what a user of the simulator waits
// for and pays, plus the simulated makespan a speed-only change must keep.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_cycles", "cycles"},
}

// perLayer are the --trace 1 metrics. A metric that does not apply to a
// workload (the oracles off, no sweep) reads 0. NOTES.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"coherence.new_system_s", "s"},
	{"coherence.prefill_s", "s"},
	{"chip.setup_alloc_mb", "MB"},
	{"sim.step_ns_per_cycle", "ns/cycle"},
	{"sim.ticked_frac", "fraction"},
	{"noc.router_ns_per_cycle", "ns/cycle"},
	{"noc.ni_ns_per_cycle", "ns/cycle"},
	{"coherence.l1_ns_per_cycle", "ns/cycle"},
	{"coherence.l2_ns_per_cycle", "ns/cycle"},
	{"coherence.mc_ns_per_cycle", "ns/cycle"},
	{"cpu.core_ns_per_cycle", "ns/cycle"},
	{"sim.epilogue_ns_per_cycle", "ns/cycle"},
	{"workload.next_ns_per_op", "ns/op"},
	{"verify.check_us_per_call", "us/call"},
	{"verify.check_frac", "fraction"},
	{"verify.alloc_mb", "MB"},
	{"exp.cell_s_p50", "s"},
	{"exp.cell_s_p90", "s"},
	{"exp.worker_busy_frac", "fraction"},
	{"exp.failed_cells", "count"},
	{"exp.retried_cells", "count"},
	{"exp.fig9_err_pp", "pp"},
	{"noc.link_flits", "flits"},
	{"noc.pool_reuse_ratio", "fraction"},
	{"cache.l1_hit_ratio", "fraction"},
	{"cache.l2_hit_ratio", "fraction"},
	{"coherence.net_msgs", "msgs"},
	{"core.circuits_built", "count"},
	{"core.reserve_fail_ratio", "fraction"},
	{"core.undone_ratio", "fraction"},
	{"cpu.measured_ipc", "ops/cycle"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// report accumulates one run's metrics and verdict.
type report struct {
	correct           bool
	attempted, failed int
	defs              []metricDef
	vals              map[string]float64
	log               io.Writer
}

func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.vals[name] = v
			return
		}
	}
	panic("perfbench: metric " + name + " is not reported in this mode")
}

// wrong records a failed output check.
func (r *report) wrong(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(r.log, "CHECK FAILED: "+format+"\n", args...)
}

func (r *report) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the metric table and, as the last line, the JSON result.
func (r *report) print(w io.Writer) {
	ms := map[string]jsonMetric{}
	for _, d := range r.defs {
		v := r.vals[d.name]
		fmt.Fprintf(w, "%-28s %16.6g %s\n", d.name, v, d.unit)
		ms[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.correct, r.attempted, r.failed)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // only finite floats and strings are marshalled
	}
	fmt.Fprintf(w, "%s\n", line)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
