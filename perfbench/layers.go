package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/core"
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/verify"
)

// The layer classes of one simulated cycle, in System.Tick order, then the
// cores and the per-cycle epilogue.
const (
	clsRouter = iota
	clsNI
	clsL1
	clsL2
	clsMC
	clsCore
	clsEpilogue
	numClasses
)

var classMetric = [numClasses]string{
	"noc.router_ns_per_cycle", "noc.ni_ns_per_cycle", "coherence.l1_ns_per_cycle",
	"coherence.l2_ns_per_cycle", "coherence.mc_ns_per_cycle", "cpu.core_ns_per_cycle",
	"sim.epilogue_ns_per_cycle",
}

const (
	// classSampleEvery: the per-class pass times one cycle in this many.
	classSampleEvery = 4
	// spanEvery: one timed cycle (or step, or oracle check) in this many is
	// also kept as spans, which bounds the trace file.
	spanEvery = 64
	// overheadPairs is how many untraced runs and tracked passes the traced
	// run alternates to measure the tracing overhead.
	overheadPairs = 3
	// watchdogStall is chip.RunCtx's default watchdog threshold; the oracle
	// suite's progress check runs at half of it.
	watchdogStall = 50_000
)

// traced is the --trace 1 run. It runs the workload's spec through chip.Run
// untraced, and wired by hand and timed per layer in two kinds of pass,
// and checks that every traced pass reproduces the untraced outputs:
//   - the tracked pass steps the activity-tracked sim.Kernel exactly as
//     chip.RunCtx does, timing set-up, each Step and each oracle check;
//   - the class pass ticks every component densely in System.Tick order
//     (the reference schedule the golden suite proves bit-identical) and
//     times each layer class on one cycle in classSampleEvery.
//
// The sweep workload first runs its sweep with every cell timed through
// exp.Policy.Run, then does the above on its first cell.
func traced(b bench, opt options, rep *report) {
	gc0, cpu0 := gcCPU()
	tr := newTracer()
	spec := b.spec(opt.seed, opt.sz)

	var sweep *exp.Sweep
	if b.sweep != nil {
		sweep = tracedSweep(b.sweep(opt.seed, opt.sz), tr, rep)
	}

	// The untraced run and the tracked pass alternate, so that host-speed
	// drift lands on both sides of trace.overhead_frac alike; the layer
	// timings come from the first tracked pass.
	var refWalls, trackedWalls []float64
	var ref outputs
	var a trackedResult
	for pair := 0; pair < overheadPairs; pair++ {
		settle()
		rep.attempted++
		t0 := time.Now()
		res, err := chip.Run(spec)
		refWalls = append(refWalls, time.Since(t0).Seconds())
		if err != nil {
			rep.failed++
			rep.wrong("untraced run failed: %v", err)
			return
		}
		if pair == 0 {
			ref = outputsOf(res)
			checkReference(spec, ref, res, sweep, rep)
		} else if err := outputsOf(res).diff(ref); err != nil {
			rep.wrong("repeat with the same seed differs: %v", err)
		}

		settle()
		rep.attempted++
		tp, err := trackedPass(spec, tr)
		if err == nil {
			err = tp.out.diff(ref)
		}
		if err != nil {
			rep.failed++
			rep.wrong("tracked pass does not reproduce the untraced run: %v", err)
		}
		trackedWalls = append(trackedWalls, float64(tp.wall)/1e9)
		if pair == 0 {
			a = tp
		}
	}
	settle()
	rep.attempted++
	c, err := classPass(spec, tr)
	if err == nil {
		err = c.out.diff(ref)
	}
	if err != nil {
		rep.failed++
		rep.wrong("class pass does not reproduce the untraced run: %v", err)
	}

	rep.set("coherence.new_system_s", float64(a.setup.newSystem)/1e9)
	rep.set("coherence.prefill_s", float64(a.setup.prefill)/1e9)
	rep.set("chip.setup_alloc_mb", float64(a.setup.allocBytes)/(1<<20))
	rep.set("sim.step_ns_per_cycle", ratio(a.stepNs, a.cycles))
	rep.set("sim.ticked_frac", ratio(a.ticks, a.cycles*a.components))
	for cls, name := range classMetric {
		rep.set(name, ratio(max(c.ns[cls], 0), c.sampled))
	}
	rep.set("workload.next_ns_per_op", ratio(max(c.nextNs, 0), c.nextCalls))
	rep.set("verify.check_us_per_call", ratio(a.checkNs, a.checks)/1e3)
	rep.set("verify.check_frac", ratio(a.checkNs, a.wall))
	rep.set("verify.alloc_mb", float64(a.checkAlloc)/(1<<20))
	rep.set("trace.overhead_frac", median(trackedWalls)/median(refWalls)-1)
	rep.logf("untraced %v s, tracked pass %v s, class pass %.3f s (dense; timer cost %d ns)",
		refWalls, trackedWalls, float64(c.wall)/1e9, c.clockNs)

	if gc1, cpu1 := gcCPU(); cpu1 > cpu0 {
		rep.set("runtime.gc_cpu_frac", (gc1-gc0)/(cpu1-cpu0))
	}
	if path, err := tr.write(opt.traceDir, fmt.Sprintf("%s-seed%d.json", b.name, opt.seed)); err != nil {
		rep.logf("trace not written: %v", err)
	} else {
		rep.logf("trace: %s (%d spans kept, %d dropped)", path, len(tr.spans), tr.dropped)
	}
}

// checkReference validates the untraced reference run and reports the
// simulated counts: the run's own, or for the sweep, the sums over every
// surviving cell, whose first cell must equal the reference.
func checkReference(spec chip.Spec, ref outputs, res *chip.Results, sweep *exp.Sweep, rep *report) {
	if err := checkMachine(spec, ref); err != nil {
		rep.wrong("%v", err)
	}
	if sweep == nil {
		setSimulated(rep, []*chip.Results{res})
		return
	}
	if cell, ok := sweep.Res[spec.Variant.Name][spec.Workload.Name]; !ok {
		rep.wrong("sweep has no cell %s/%s", spec.Variant.Name, spec.Workload.Name)
	} else if err := outputsOf(cell).diff(ref); err != nil {
		rep.wrong("sweep's first cell differs from chip.Run of its spec: %v", err)
	}
	var runs []*chip.Results
	for _, apps := range sweep.Res {
		for _, r := range apps {
			runs = append(runs, r)
		}
	}
	setSimulated(rep, runs)
}

func ratio[T int64 | uint64 | int](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setSimulated reports the simulated counts summed over runs. A speed-only
// change must leave every one of them exactly unchanged.
func setSimulated(rep *report, runs []*chip.Results) {
	sum := map[string]int64{}
	var circ core.Stats
	var ops, cycles int64
	for _, r := range runs {
		for k, v := range r.Metrics.Vals {
			sum[k] += v
		}
		if r.Circ != nil {
			circ.Add(r.Circ)
		}
		ops += r.Spec.MeasureOps
		cycles += int64(r.Cycles)
	}
	reuses := sum["noc/pool_flit_reuses"] + sum["noc/pool_msg_reuses"]
	allocs := sum["noc/pool_flit_allocs"] + sum["noc/pool_msg_allocs"]
	rep.set("noc.link_flits", float64(sum["noc/link_flits"]))
	rep.set("noc.pool_reuse_ratio", ratio(reuses, reuses+allocs))
	rep.set("cache.l1_hit_ratio", ratio(sum["l1/hits"], sum["l1/hits"]+sum["l1/misses"]))
	rep.set("cache.l2_hit_ratio", ratio(sum["l2/hits"], sum["l2/hits"]+sum["l2/misses"]))
	rep.set("coherence.net_msgs", float64(sum["sys/net_msgs"]))
	var reserved int64
	for _, n := range circ.Ordinals {
		reserved += n
	}
	failed := circ.ReserveFailedStorage + circ.ReserveFailedConflict
	rep.set("core.circuits_built", float64(circ.CircuitsBuilt))
	rep.set("core.reserve_fail_ratio", ratio(failed, reserved+failed))
	rep.set("core.undone_ratio", ratio(circ.CircuitsUndone, circ.CircuitsBuilt))
	rep.set("cpu.measured_ipc", ratio(ops, cycles))
}

// gcCPU returns the process's estimated GC CPU seconds and its available
// CPU seconds (GOMAXPROCS × wall time).
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// trackedResult is the tracked pass's measurements.
type trackedResult struct {
	out               outputs
	setup             setupTimes
	wall              int64 // build to harvest, ns
	cycles            int64
	stepNs            int64
	ticks, components int64
	checks            int64
	checkNs           int64
	checkAlloc        uint64
}

// trackedPass runs spec on the activity-tracked kernel, wired and stepped
// as chip.RunCtx does, timing set-up, every Step and every oracle check.
func trackedPass(spec chip.Spec, tr *tracer) (res trackedResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	start := tr.now()
	root := tr.begin("tracked pass", 0, 0)
	setup := tr.begin("setup", 0, root)
	m, st := buildMachine(spec, tr, setup, nil)
	k := sim.NewKernel()
	defer k.Close()
	m.sys.Register(k)
	wakers := make([]sim.Waker, len(m.cores))
	for i, c := range m.cores {
		wakers[i] = k.Add(c)
	}
	tr.end(setup)
	res.setup = st

	var suite *verify.Suite
	every := spec.VerifyEvery
	if spec.Verify {
		if every <= 0 {
			every = 128
		}
		suite = verify.NewSuite(verify.Config{Sys: m.sys, ProgressStall: watchdogStall / 2})
	}
	check := func(parent int, quiescent bool) *verify.Violation {
		a0, c0 := heapAllocBytes(), tr.now()
		var v *verify.Violation
		if quiescent {
			v = suite.CheckQuiescent(k.Now())
		} else {
			v = suite.Check(k.Now())
		}
		c1 := tr.now()
		res.checkAlloc += heapAllocBytes() - a0
		res.checkNs += c1 - c0
		res.checks++
		if quiescent || res.checks%spanEvery == 0 {
			tr.add("verify.Suite.Check", 0, c0, c1, parent, map[string]any{"cycle": k.Now()})
		}
		return v
	}

	var measureStart sim.Cycle
	for _, phase := range m.phases() {
		if phase == "measured" {
			m.startMeasured(func(i int) { wakers[i].Wake() })
			measureStart = k.Now()
		}
		p := tr.begin(phase, 0, root)
		deadline := k.Now() + m.horizon()
		for !m.allDone() {
			if k.Now() >= deadline {
				return res, fmt.Errorf("%s phase did not finish within %d cycles", phase, m.horizon())
			}
			t0 := tr.now()
			k.Step()
			t1 := tr.now()
			res.stepNs += t1 - t0
			if k.Now()%spanEvery == 0 {
				tr.add("sim.Kernel.Step", 0, t0, t1, p, map[string]any{"cycle": k.Now() - 1})
			}
			if suite != nil && k.Now()%every == 0 {
				if v := check(p, false); v != nil {
					return res, fmt.Errorf("oracle %s: %s", v.Oracle, v.Msg)
				}
			}
		}
		tr.end(p)
	}
	if suite != nil {
		if v := check(root, true); v != nil {
			return res, fmt.Errorf("oracle %s: %s", v.Oracle, v.Msg)
		}
	}
	res.out = m.harvest(k.Now(), measureStart)
	res.cycles = k.Now()
	res.ticks = k.Ticks()
	res.components = int64(k.Components())
	res.wall = tr.now() - start
	tr.end(root)
	return res, nil
}

// classResult is the class pass's measurements. ns, nextNs and the cycle
// counts cover the sampled cycles only; each timing has the clock's own
// cost taken out.
type classResult struct {
	out               outputs
	wall              int64
	sampled           int64
	ns                [numClasses]int64
	nextNs, nextCalls int64
	clockNs           int64
}

// timedStream times a core's workload stream while on is set.
type timedStream struct {
	inner cpu.Stream
	t     *nextTimer
}

type nextTimer struct {
	tr        *tracer
	on        bool
	ns, calls int64
}

func (s *timedStream) Next() cpu.Op {
	if !s.t.on {
		return s.inner.Next()
	}
	t0 := s.t.tr.now()
	op := s.inner.Next()
	s.t.ns += s.t.tr.now() - t0
	s.t.calls++
	return op
}

// classPass runs spec with every component ticked every cycle in
// registration order (routers, NIs, each tile's L1 then L2, MCs, cores,
// then the epilogue) and times each class on sampled cycles.
func classPass(spec chip.Spec, tr *tracer) (res classResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	res.clockNs = clockCost(tr)
	start := tr.now()
	root := tr.begin("class pass", 0, 0)
	setup := tr.begin("setup", 0, root)
	nt := &nextTimer{tr: tr}
	m, _ := buildMachine(spec, tr, setup, func(s cpu.Stream) cpu.Stream { return &timedStream{inner: s, t: nt} })
	tr.end(setup)
	n := len(m.cores)
	routers := make([]*noc.Router, n)
	nis := make([]*noc.NI, n)
	for i := range routers {
		routers[i] = m.sys.Net.Router(mesh.NodeID(i))
		nis[i] = m.sys.Net.NI(mesh.NodeID(i))
	}
	sys := m.sys
	epilogue := func(now sim.Cycle) {
		if sys.Mgr != nil {
			sys.Mgr.FlushCycle(now)
		}
		sys.Net.FlushBoundary(now)
	}
	dense := func(now sim.Cycle) {
		for _, r := range routers {
			r.Tick(now)
		}
		for _, ni := range nis {
			ni.Tick(now)
		}
		for i := range sys.L1s {
			sys.L1s[i].Tick(now)
			sys.L2s[i].Tick(now)
		}
		for _, mc := range sys.MCs {
			mc.Tick(now)
		}
		for _, c := range m.cores {
			c.Tick(now)
		}
		epilogue(now)
	}
	c := res.clockNs
	sampled := func(now sim.Cycle, parent int) {
		var l1, l2 int64
		nt.on = true
		next0, calls0 := nt.ns, nt.calls
		t0 := tr.now()
		for _, r := range routers {
			r.Tick(now)
		}
		t1 := tr.now()
		for _, ni := range nis {
			ni.Tick(now)
		}
		t2 := tr.now()
		prev := t2
		for i := range sys.L1s {
			sys.L1s[i].Tick(now)
			t := tr.now()
			l1 += t - prev - c
			sys.L2s[i].Tick(now)
			prev = tr.now()
			l2 += prev - t - c
		}
		t3 := prev
		for _, mc := range sys.MCs {
			mc.Tick(now)
		}
		t4 := tr.now()
		for _, core := range m.cores {
			core.Tick(now)
		}
		t5 := tr.now()
		epilogue(now)
		t6 := tr.now()
		nt.on = false

		// The stream timer costs two clock reads per call inside the cores'
		// interval; its own reading holds one of them.
		next, calls := nt.ns-next0, nt.calls-calls0
		res.ns[clsRouter] += t1 - t0 - c
		res.ns[clsNI] += t2 - t1 - c
		res.ns[clsL1] += l1
		res.ns[clsL2] += l2
		res.ns[clsMC] += t4 - t3 - c
		res.ns[clsCore] += t5 - t4 - c - next - calls*c
		res.ns[clsEpilogue] += t6 - t5 - c
		res.nextNs += next - calls*c
		res.nextCalls += calls
		res.sampled++
		if res.sampled%spanEvery == 0 {
			cyc := tr.add("cycle", 0, t0, t6, parent, map[string]any{"cycle": now})
			tr.add("noc.Router.Tick", 0, t0, t1, cyc, nil)
			tr.add("noc.NI.Tick", 0, t1, t2, cyc, nil)
			tr.add("coherence.L1Ctrl+L2Ctrl.Tick", 0, t2, t3, cyc, map[string]any{"l1_ns": l1, "l2_ns": l2})
			tr.add("coherence.MemCtrl.Tick", 0, t3, t4, cyc, nil)
			tr.add("cpu.Core.Tick", 0, t4, t5, cyc, map[string]any{"stream_next_ns": next})
			tr.add("epilogue", 0, t5, t6, cyc, nil)
		}
	}

	var now, measureStart sim.Cycle
	for _, phase := range m.phases() {
		if phase == "measured" {
			m.startMeasured(nil)
			measureStart = now
		}
		p := tr.begin(phase, 0, root)
		deadline := now + m.horizon()
		for !m.allDone() {
			if now >= deadline {
				return res, fmt.Errorf("%s phase did not finish within %d cycles", phase, m.horizon())
			}
			if now%classSampleEvery == 0 {
				sampled(now, p)
			} else {
				dense(now)
			}
			now++
		}
		tr.end(p)
	}
	res.out = m.harvest(now, measureStart)
	res.wall = tr.now() - start
	tr.end(root)
	return res, nil
}

// clockCost is the host cost of one tracer clock read: the smallest mean
// gap between back-to-back reads over a few batches.
func clockCost(tr *tracer) int64 {
	best := int64(math.MaxInt64)
	for b := 0; b < 8; b++ {
		t0 := tr.now()
		for i := 0; i < 1000; i++ {
			tr.now()
		}
		best = min(best, (tr.now()-t0)/1001)
	}
	return best
}

// tracedSweep runs the sweep with every cell timed through the exp.Policy.Run
// seam, and reports the sweep layer's metrics and Figure 9 error.
func tracedSweep(p sweepPlan, tr *tracer, rep *report) *exp.Sweep {
	var mu sync.Mutex
	busy := make([]bool, p.scale.Workers)
	for w := range busy {
		tr.nameLane(w+1, fmt.Sprintf("sweep worker %d", w+1))
	}
	var cellSecs []float64
	var busyNs int64
	root := tr.begin("exp.RunSweepCtx", 0, 0)
	pol := exp.DefaultPolicy()
	pol.Run = func(ctx context.Context, spec chip.Spec) (*chip.Results, error) {
		mu.Lock()
		lane := 0
		for busy[lane] {
			lane++
		}
		busy[lane] = true
		mu.Unlock()
		t0 := tr.now()
		r, err := chip.RunCtx(ctx, spec)
		t1 := tr.now()
		mu.Lock()
		busy[lane] = false
		cellSecs = append(cellSecs, float64(t1-t0)/1e9)
		busyNs += t1 - t0
		mu.Unlock()
		tr.add("exp.cell", lane+1, t0, t1, root, map[string]any{
			"variant": spec.Variant.Name, "workload": spec.Workload.Name, "seed": spec.Seed, "ok": err == nil})
		return r, err
	}
	settle()
	t0 := tr.now()
	s := exp.RunSweepCtx(context.Background(), p.chip, p.variants, p.scale, pol)
	wall := tr.now() - t0
	tr.end(root)

	rep.attempted += p.cells()
	rep.failed += len(s.Failures)
	retried := 0
	for _, f := range s.Failures {
		rep.logf("failed: %s", failureLine(f))
		if f.Retried {
			retried++
		}
	}
	rep.set("exp.cell_s_p50", median(cellSecs))
	rep.set("exp.cell_s_p90", quantile(cellSecs, 0.9))
	rep.set("exp.worker_busy_frac", ratio(busyNs, wall*int64(p.scale.Workers)))
	rep.set("exp.failed_cells", float64(len(s.Failures)))
	rep.set("exp.retried_cells", float64(retried))
	gap, sp, ok := fig9Error(s, p.paperApps)
	if !ok {
		rep.wrong("Figure 9 speedups unavailable: %v", sp)
	}
	rep.set("exp.fig9_err_pp", gap)
	rep.logf("sweep: %s in %.2f s; %d runs; fig9 speedups %v", p, float64(wall)/1e9, len(cellSecs), sp)
	return s
}
