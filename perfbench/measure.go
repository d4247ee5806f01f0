package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/exp"
)

// setupBuilds is how many set-up-only runs setup_s takes the median of.
const setupBuilds = 7

// untraced measures the end-to-end metrics with nothing instrumented:
// set-up time, then repeats of the workload's operation for the run's time
// budget. The repeats cycle through the workload's inputs, all derived from
// the seed, and run at least one input twice: that repeat must reproduce
// the first run exactly. wall_s and sim_cycles average over the inputs, so
// one unusually long input does not set the run's figure. Timings taken
// while the hypervisor stole CPU time from this machine are left out of
// the medians whenever a quiet timing of the same input exists.
func untraced(b bench, opt options, rep *report) {
	rep.set("setup_s", setupTime(b.spec(opt.seed, opt.sz), rep))

	n := b.inputs()
	var op func(input int) (simCycles int64)
	if b.sweep != nil {
		op = sweepOp(b.sweep(opt.seed, opt.sz), rep)
	} else {
		specs := make([]chip.Spec, n)
		for i := range specs {
			specs[i] = b.spec(inputSeed(opt.seed, i), opt.sz)
		}
		op = machineOp(specs, rep)
	}

	start := time.Now()
	walls := make([][]sample, n)
	sims := make([]int64, n)
	var peaks []float64
	var last float64
	for r := 0; ; r++ {
		if r > n && time.Since(start).Seconds()+last > opt.seconds {
			break
		}
		i := r % n
		settle()
		resetPeakRSS()
		c0 := cpuSeconds()
		s := timeRun(func() { sims[i] = op(i) })
		rep.logf("repeat %d: input %d wall %.4f s, process CPU %.4f s, quiet %v",
			r, i, s.wall, cpuSeconds()-c0, s.quiet)
		last = s.wall
		walls[i] = append(walls[i], s)
		peaks = append(peaks, peakRSSMB())
	}
	var wall, simCycles float64
	for i, ss := range walls {
		med, quiet := quietMedian(ss)
		rep.logf("input %d (seed %d): %d cycles, wall_s median %.4f over %d quiet of %d repeats",
			i, inputSeed(opt.seed, i), sims[i], med, quiet, len(ss))
		wall += med / float64(n)
		simCycles += float64(sims[i]) / float64(n)
	}
	rep.logf("peak_rss_mb over %d repeats: min %.1f median %.1f max %.1f",
		len(peaks), quantile(peaks, 0), median(peaks), quantile(peaks, 1))
	rep.set("wall_s", wall)
	rep.set("peak_rss_mb", median(peaks))
	rep.set("sim_cycles", simCycles)
}

// sample is one timed run: its wall time, and whether the hypervisor left
// this machine's CPUs alone while it ran.
type sample struct {
	wall  float64
	quiet bool
}

// maxSteal is the share of the machine's CPU time the hypervisor may take
// during a timed run before the run counts as disturbed. Other tenants'
// load slows this host by up to half for minutes at a time, and shows up
// as steal; a slower program never does.
const maxSteal = 0.01

func timeRun(f func()) sample {
	s0, t0 := stealSeconds(), time.Now()
	f()
	wall := time.Since(t0).Seconds()
	steal := stealSeconds() - s0
	return sample{wall: wall, quiet: s0 < 0 || steal < maxSteal*wall*float64(runtime.NumCPU())}
}

// quietMedian is the median wall time of the quiet samples, or of all of
// them when none was quiet; quiet is how many were.
func quietMedian(ss []sample) (med float64, quiet int) {
	var q, all []float64
	for _, s := range ss {
		all = append(all, s.wall)
		if s.quiet {
			q = append(q, s.wall)
		}
	}
	if len(q) == 0 {
		return median(all), 0
	}
	return median(q), len(q)
}

// setupTime is the median host time of set-up-only runs of spec: the real
// build path (NewSystem, Prefill, wiring) with one measured op per core,
// over the quiet builds when there are any.
func setupTime(spec chip.Spec, rep *report) float64 {
	spec.WarmupOps, spec.MeasureOps = 0, 1
	var ss []sample
	for i := 0; i < setupBuilds; i++ {
		settle()
		rep.attempted++
		var err error
		ss = append(ss, timeRun(func() { _, err = chip.Run(spec) }))
		if err != nil {
			rep.failed++
			rep.wrong("set-up run failed: %v", err)
		}
	}
	med, quiet := quietMedian(ss)
	rep.logf("setup_s median %.4f over %d quiet of %d builds", med, quiet, len(ss))
	return med
}

// machineOp returns the operation of a machine workload: one chip.Run of
// an input's spec, whose outputs must validate and equal that input's
// first run.
func machineOp(specs []chip.Spec, rep *report) func(int) int64 {
	first := make([]*outputs, len(specs))
	return func(i int) int64 {
		spec := specs[i]
		rep.attempted++
		res, err := chip.Run(spec)
		if err != nil {
			rep.failed++
			rep.wrong("run failed: %v", err)
			return 0
		}
		o := outputsOf(res)
		if err := checkMachine(spec, o); err != nil {
			rep.wrong("%v", err)
		}
		if first[i] == nil {
			first[i] = &o
			rep.logf("seed %d: measured IPC %.4f (chip.Results.IPC %.4f counts warm-up retirements)",
				spec.Seed, measuredIPC(spec, o.Cycles), res.IPC())
		} else if err := o.diff(*first[i]); err != nil {
			rep.wrong("repeat with seed %d differs: %v", spec.Seed, err)
		}
		return int64(o.Cycles)
	}
}

// sweepOp returns the sweep workload's operation: one exp.RunSweepCtx with
// the production failure policy. A cell whose first run fails counts as a
// failed operation; the failures and every surviving cell must repeat
// exactly.
func sweepOp(p sweepPlan, rep *report) func(int) int64 {
	var first *sweepOutputs
	return func(int) int64 {
		s := exp.RunSweepCtx(context.Background(), p.chip, p.variants, p.scale, exp.DefaultPolicy())
		rep.attempted += p.cells()
		rep.failed += len(s.Failures)
		so := sweepOutputsOf(s)
		for _, apps := range s.Res {
			for _, r := range apps {
				if err := checkMachine(r.Spec, outputsOf(r)); err != nil {
					rep.wrong("%s/%s: %v", r.Spec.Variant.Name, r.Spec.Workload.Name, err)
				}
			}
		}
		if first == nil {
			first = &so
			rep.logf("sweep: %s; %d of %d cells failed their first run", p, len(s.Failures), p.cells())
			for _, f := range so.failures {
				rep.logf("  failed: %s", f)
			}
			gap, sp, ok := fig9Error(s, p.paperApps)
			if !ok {
				rep.wrong("Figure 9 speedups unavailable: %v", sp)
			}
			rep.logf("fig9 speedups %v vs paper %v: mean gap %.4f pp", sp, fig9Paper, gap)
		} else if err := so.diff(*first); err != nil {
			rep.wrong("repeat with the same seed differs: %v", err)
		}
		return paperCycles(s, p.paperApps)
	}
}

// cpuSeconds is the process's user plus system CPU time (0 if unknown).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds is the CPU time the hypervisor took from this machine's
// CPUs since boot (-1 if unknown): other tenants' load shows up here.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// settle collects garbage and returns freed memory to the OS before a
// timed run, so no run pays for its predecessor's garbage and the peak
// resident size starts from the live heap.
func settle() { debug.FreeOSMemory() }

// resetPeakRSS restarts the kernel's resident high-water mark (VmHWM).
// Where that is unsupported, peakRSSMB falls back to the process maximum.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns the resident high-water mark in MB.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}
