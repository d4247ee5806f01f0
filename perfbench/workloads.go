package main

import (
	"fmt"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/exp"
	"reactivenoc/internal/workload"
)

// size holds a workload's operation counts. full is what the benchmark
// measures; tiny keeps the benchmark's own test fast.
type size struct {
	// warmup and measure are ops/core of a machine run.
	warmup, measure int64
	// sweepOps is the sweep's measured ops/core (warm-up stays at the
	// chip.DefaultSpec value, as in rcsweep).
	sweepOps int64
	// sweepApps caps the sweep's paper apps (exp.Scale.Apps semantics);
	// sweepVariants, when non-nil, replaces config.SweepVariants.
	sweepApps     int
	sweepVariants []string
}

var (
	full = size{warmup: 3000, measure: 12000, sweepOps: 1500, sweepApps: exp.QuickScale().Apps}
	tiny = size{warmup: 80, measure: 160, sweepOps: 80, sweepApps: 2,
		sweepVariants: []string{"Baseline", "Complete_NoAck", "SlackDelay_1_NoAck"}}
)

// sweepWorkers is the sweep's worker-pool size: the 2-core host's nproc.
const sweepWorkers = 2

// Paper Figure 9 speedups at 64 cores, in percent.
var fig9Paper = map[string]float64{"Complete_NoAck": 4.8, "SlackDelay_1_NoAck": 6.0}

// bench is one workload of the benchmark. Machine workloads run one
// chip.Run of spec; the sweep workload runs exp.RunSweepCtx and uses spec
// (its first cell) for set-up timing and the traced layer breakdown.
type bench struct {
	name string
	spec func(seed uint64, sz size) chip.Spec
	// sweep is nil for machine workloads.
	sweep func(seed uint64, sz size) sweepPlan
	// machineInputs is how many inputs, derived from the seed, an untraced
	// run of a machine workload cycles through. Makespans vary by several
	// percent from seed to seed, most at 256 cores, so averaging over a few
	// inputs keeps that variation from dominating the run-to-run spread.
	machineInputs int
}

// inputs is how many derived inputs an untraced run uses.
func (b bench) inputs() int {
	if b.sweep != nil {
		return 1
	}
	return b.machineInputs
}

// inputSeed derives a run's i-th input seed; input 0 is the seed itself,
// which the traced run uses.
func inputSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9E3779B97F4A7C15 }

// sweepPlan is one sweep's inputs.
type sweepPlan struct {
	chip      config.Chip
	variants  []config.Variant
	scale     exp.Scale
	paperApps []string // the apps Figure 9 averages over (hotspot excluded)
}

// Why each workload exists is recorded in NOTES.md.
var benches = []bench{
	{name: "canneal64_noack", spec: machineSpec(config.Chip64, "Complete_NoAck", "canneal", false), machineInputs: 4},
	{name: "light256_baseline", spec: machineSpec(config.Chip256, "Baseline", "blackscholes", false), machineInputs: 6},
	{name: "hotspot64_timed_verify", spec: machineSpec(config.Chip64, "SlackDelay_1_NoAck", "hotspot", true), machineInputs: 3},
	{name: "sweep64_fig9", spec: firstCell, sweep: fig9Sweep},
}

func benchByName(name string) (bench, bool) {
	for _, b := range benches {
		if b.name == name {
			return b, true
		}
	}
	return bench{}, false
}

func mustVariant(name string) config.Variant {
	v, ok := config.ByName(name)
	if !ok {
		panic("perfbench: unknown variant " + name)
	}
	return v
}

func mustWorkload(name string) workload.Profile {
	w, ok := workload.ByName(name)
	if !ok {
		panic("perfbench: unknown workload " + name)
	}
	return w
}

// machineSpec returns the spec builder of a single-run workload at rcsim's
// defaults; verify arms the online oracles at their default cadence.
func machineSpec(c func() config.Chip, variant, app string, verify bool) func(uint64, size) chip.Spec {
	return func(seed uint64, sz size) chip.Spec {
		spec := chip.DefaultSpec(c(), mustVariant(variant), mustWorkload(app))
		spec.WarmupOps, spec.MeasureOps = sz.warmup, sz.measure
		spec.Seed = seed
		spec.Verify = verify
		return spec
	}
}

// fig9Sweep is `rcsweep -exp fig9 -ops 1500` on 64 cores: every sweep
// variant over QuickScale's paper apps plus the hotspot generator.
func fig9Sweep(seed uint64, sz size) sweepPlan {
	variants := config.SweepVariants()
	if sz.sweepVariants != nil {
		variants = variants[:0:0]
		for _, n := range sz.sweepVariants {
			variants = append(variants, mustVariant(n))
		}
	}
	apps := exp.Scale{Apps: sz.sweepApps}.Workloads()
	var paper []string
	for _, a := range apps {
		paper = append(paper, a.Name)
	}
	apps = append(apps, mustWorkload("hotspot"))
	return sweepPlan{
		chip:     config.Chip64(),
		variants: variants,
		scale: exp.Scale{MeasureOps: sz.sweepOps, Seed: seed, Workers: sweepWorkers,
			Profiles: apps},
		paperApps: paper,
	}
}

// firstCell is the spec exp.RunSweepCtx builds for the sweep's first cell.
func firstCell(seed uint64, sz size) chip.Spec {
	p := fig9Sweep(seed, sz)
	spec := chip.DefaultSpec(p.chip, p.variants[0], p.scale.Profiles[0])
	spec.MeasureOps = p.scale.MeasureOps
	spec.Seed = p.scale.Seed
	return spec
}

func (p sweepPlan) cells() int { return len(p.variants) * len(p.scale.Profiles) }

func (p sweepPlan) String() string {
	return fmt.Sprintf("%s, %d variants x %d apps, %d ops, %d workers",
		p.chip.Name, len(p.variants), len(p.scale.Profiles), p.scale.MeasureOps, p.scale.Workers)
}
