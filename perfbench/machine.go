package main

import (
	"fmt"
	"runtime/metrics"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/chip"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// machine is one chip wired by hand through the mid-level API, the way
// chip.RunCtx and examples/trafficmap wire it, so the traced passes can
// time each layer from outside.
type machine struct {
	spec  chip.Spec
	sys   *coherence.System
	cores []*cpu.Core
	reg   *sim.Registry
	done  int
	// now is the cycle the circ/open gauge reads at harvest.
	now sim.Cycle
}

// setupTimes is the host cost of building one machine.
type setupTimes struct {
	newSystem, prefill, wire int64 // ns
	allocBytes               uint64
}

// buildMachine builds, prefills and wires spec's machine. stream, when
// non-nil, wraps each core's workload stream.
func buildMachine(spec chip.Spec, tr *tracer, parent int, stream func(cpu.Stream) cpu.Stream) (*machine, setupTimes) {
	var st setupTimes
	alloc0 := heapAllocBytes()
	m := &machine{spec: spec}
	msh := mesh.New(spec.Chip.Width, spec.Chip.Height)
	opts := spec.Variant.Opts
	opts.NoPool = opts.NoPool || spec.NoPool

	t0 := tr.now()
	m.sys = coherence.NewSystem(msh, opts, spec.Chip.MCs)
	t1 := tr.now()
	n := msh.Nodes()
	for i := 0; i < n; i++ {
		for _, reg := range spec.Workload.Regions(i) {
			for l := 0; l < reg.Lines; l++ {
				tile := mesh.NodeID(-1)
				if l < reg.L1Lines {
					tile = mesh.NodeID(i)
				}
				m.sys.Prefill(reg.Start+cache.Addr(l*64), tile, reg.Exclusive)
			}
		}
	}
	t2 := tr.now()
	limit := spec.WarmupOps
	if limit <= 0 {
		limit = spec.MeasureOps
	}
	m.cores = make([]*cpu.Core, n)
	for i := range m.cores {
		s := spec.Workload.StreamGeom(i, msh.Width, msh.Height, spec.Seed)
		if stream != nil {
			s = stream(s)
		}
		m.cores[i] = cpu.New(i, m.sys.L1s[i], s, limit)
		m.cores[i].SetDoneSink(func() { m.done++ })
	}
	m.reg = sim.NewRegistry()
	m.sys.DescribeMetrics(m.reg)
	for _, c := range m.cores {
		c.Describe(m.reg)
	}
	if m.sys.Mgr != nil {
		m.reg.Gauge("circ/open", func() int64 { return m.sys.Mgr.OpenCircuits(m.now) })
	}
	t3 := tr.now()

	st.newSystem, st.prefill, st.wire = t1-t0, t2-t1, t3-t2
	st.allocBytes = heapAllocBytes() - alloc0
	tr.add("coherence.NewSystem", 0, t0, t1, parent, nil)
	tr.add("coherence.Prefill", 0, t1, t2, parent, nil)
	tr.add("wire cores+registry", 0, t2, t3, parent, nil)
	return m, st
}

// allDone is chip.RunCtx's end-of-phase predicate.
func (m *machine) allDone() bool { return m.done == len(m.cores) && !m.sys.Busy() }

// horizon is chip.RunCtx's per-phase cycle cap.
func (m *machine) horizon() sim.Cycle {
	return sim.Cycle(m.spec.WarmupOps+m.spec.MeasureOps)*220 + 1_000_000
}

// phases lists the run's phases: warm-up when the spec has one, then the
// measured phase.
func (m *machine) phases() []string {
	if m.spec.WarmupOps > 0 {
		return []string{"warm-up", "measured"}
	}
	return []string{"measured"}
}

// startMeasured is chip.RunCtx's transition into the measured phase:
// statistics reset after a warm-up, and every core gets its measured
// budget. wake revives core i.
func (m *machine) startMeasured(wake func(i int)) {
	if m.spec.WarmupOps > 0 {
		m.sys.ResetStats()
	}
	m.done = 0
	for i, c := range m.cores {
		c.ResetStats(m.spec.MeasureOps)
		if wake != nil {
			wake(i)
		}
	}
}

// harvest returns the run's simulated outputs, as chip.RunCtx computes
// them, at cycle now with the measured phase starting at measureStart.
func (m *machine) harvest(now, measureStart sim.Cycle) outputs {
	m.now = now
	o := outputs{SimCycles: now, Metrics: map[string]int64{}}
	var last sim.Cycle
	for _, c := range m.cores {
		last = max(last, c.FinishedAt)
		o.Retired = append(o.Retired, c.Retired)
	}
	o.Cycles = last - measureStart
	if o.Cycles <= 0 {
		o.Cycles = now - measureStart
	}
	for k, v := range m.reg.Snapshot(now).Vals {
		if !schedulingOnly[k] {
			o.Metrics[k] = v
		}
	}
	if m.sys.Mgr != nil {
		o.Circ = m.sys.Mgr.StatsTotal()
	}
	return o
}

// heapAllocBytes is the cumulative bytes the process has allocated.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		panic(fmt.Sprintf("perfbench: runtime metric %s unsupported", s[0].Name))
	}
	return s[0].Value.Uint64()
}
