package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/core"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/sim"
)

// outputs are the simulated results one machine run must reproduce
// exactly: on a repeat with the same seed, and in the traced run.
type outputs struct {
	Cycles    sim.Cycle // measured-phase makespan
	SimCycles sim.Cycle // including warm-up
	Retired   []int64   // per core, cumulative
	Metrics   map[string]int64
	Circ      core.Stats
}

// schedulingOnly names the registry entries that describe the scheduler,
// not the simulated machine; they may differ between engines.
var schedulingOnly = map[string]bool{"kernel/active": true}

func outputsOf(r *chip.Results) outputs {
	o := outputs{Cycles: r.Cycles, SimCycles: r.SimCycles, Metrics: map[string]int64{}}
	for _, c := range r.Cores {
		o.Retired = append(o.Retired, c.Retired)
	}
	for k, v := range r.Metrics.Vals {
		if !schedulingOnly[k] {
			o.Metrics[k] = v
		}
	}
	if r.Circ != nil {
		o.Circ = *r.Circ
	}
	return o
}

// diff returns the first difference between o and want, or nil.
func (o outputs) diff(want outputs) error {
	if o.Cycles != want.Cycles {
		return fmt.Errorf("makespan %d, want %d", o.Cycles, want.Cycles)
	}
	if o.SimCycles != want.SimCycles {
		return fmt.Errorf("simulated cycles %d, want %d", o.SimCycles, want.SimCycles)
	}
	if !slices.Equal(o.Retired, want.Retired) {
		return fmt.Errorf("per-core retired ops differ")
	}
	if o.Circ != want.Circ {
		return fmt.Errorf("circuit counters %+v, want %+v", o.Circ, want.Circ)
	}
	names := make([]string, 0, len(want.Metrics))
	for k := range want.Metrics {
		names = append(names, k)
	}
	for k := range o.Metrics {
		if _, ok := want.Metrics[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		if o.Metrics[k] != want.Metrics[k] {
			return fmt.Errorf("metric %s = %d, want %d", k, o.Metrics[k], want.Metrics[k])
		}
	}
	return nil
}

// checkMachine validates one machine run's outputs against its spec: every
// core retired exactly its warm-up plus measured budget, and the measured
// IPC stays within what an IPC-1 core can do.
func checkMachine(spec chip.Spec, o outputs) error {
	want := spec.WarmupOps + spec.MeasureOps
	for i, r := range o.Retired {
		if r != want {
			return fmt.Errorf("core %d retired %d ops, want %d", i, r, want)
		}
	}
	if ipc := measuredIPC(spec, o.Cycles); ipc <= 0 || o.Cycles+1 < sim.Cycle(spec.MeasureOps) {
		return fmt.Errorf("measured IPC %.4f over %d cycles is impossible for %d ops on an IPC-1 core",
			ipc, o.Cycles, spec.MeasureOps)
	}
	return nil
}

// measuredIPC is measured ops per core per measured-phase cycle.
// chip.Results.IPC divides cumulative retirements, warm-up included, by the
// measured cycles, so it overstates IPC (above 1 on an IPC-1 core).
func measuredIPC(spec chip.Spec, cycles sim.Cycle) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(spec.MeasureOps) / float64(cycles)
}

// sweepOutputs are a sweep's simulated results: every surviving cell's
// outputs and every failure's identity.
type sweepOutputs struct {
	cells    map[string]outputs
	failures []string
}

func sweepOutputsOf(s *exp.Sweep) sweepOutputs {
	so := sweepOutputs{cells: map[string]outputs{}}
	for v, apps := range s.Res {
		for app, r := range apps {
			so.cells[v+"/"+app] = outputsOf(r)
		}
	}
	for _, f := range s.Failures {
		so.failures = append(so.failures, failureLine(f))
	}
	sort.Strings(so.failures)
	return so
}

func failureLine(f exp.FailureReport) string {
	retry := "not retried"
	switch {
	case f.Deterministic():
		retry = "retry failed"
	case f.Retried:
		retry = "retry recovered"
	}
	return fmt.Sprintf("%s %s phase=%s cycle=%d (%s): %s",
		f.Variant, f.Workload, f.Err.Phase, f.Err.Cycle, retry, f.Err.Msg)
}

func (so sweepOutputs) diff(want sweepOutputs) error {
	if a, b := strings.Join(so.failures, "\n"), strings.Join(want.failures, "\n"); a != b {
		return fmt.Errorf("failures differ:\n%s\nwant:\n%s", a, b)
	}
	if len(so.cells) != len(want.cells) {
		return fmt.Errorf("%d cells, want %d", len(so.cells), len(want.cells))
	}
	for k, w := range want.cells {
		o, ok := so.cells[k]
		if !ok {
			return fmt.Errorf("cell %s missing", k)
		}
		if err := o.diff(w); err != nil {
			return fmt.Errorf("cell %s: %w", k, err)
		}
	}
	return nil
}

// paperCycles sums the makespans of the sweep's paper-app cells.
func paperCycles(s *exp.Sweep, paperApps []string) int64 {
	var sum int64
	for _, apps := range s.Res {
		for _, app := range paperApps {
			if r, ok := apps[app]; ok {
				sum += int64(r.Cycles)
			}
		}
	}
	return sum
}

// fig9Error is the mean absolute gap, in percentage points, between the
// sweep's Figure 9 speedups over the paper apps and the paper's 64-core
// numbers. ok is false when a compared variant has no surviving cell.
func fig9Error(s *exp.Sweep, paperApps []string) (gap float64, speedups map[string]float64, ok bool) {
	paper := *s
	paper.Apps = nil
	for _, a := range s.Apps {
		for _, n := range paperApps {
			if a.Name == n {
				paper.Apps = append(paper.Apps, a)
			}
		}
	}
	f9, err := exp.Fig9From(&paper)
	if err != nil {
		return 0, nil, false
	}
	speedups = map[string]float64{}
	for _, r := range f9.Rows {
		if _, want := fig9Paper[r.Variant]; want {
			speedups[r.Variant] = (r.Mean - 1) * 100
		}
	}
	if len(speedups) != len(fig9Paper) {
		return 0, speedups, false
	}
	for v, want := range fig9Paper {
		d := speedups[v] - want
		if d < 0 {
			d = -d
		}
		gap += d / float64(len(fig9Paper))
	}
	return gap, speedups, true
}
