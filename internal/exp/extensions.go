package exp

import (
	"fmt"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/workload"
)

// ---------------------------------------------------------------------------
// Load-threshold experiment (the paper's Section 5.5 claim: heavy traffic
// prevents complete circuits, and timed circuits raise that threshold).
// ---------------------------------------------------------------------------

// LoadSweep measures circuit success and speedup as the offered load grows.
type LoadSweep struct {
	Chip     config.Chip
	Rows     []LoadRow
	Failures []FailureReport
}

// LoadRow is one load point.
type LoadRow struct {
	Factor  float64
	InjRate float64 // baseline injected flits/node/cycle
	// Per variant: fraction of replies riding circuits, reservation
	// failures among attempts, and speedup over baseline at this load.
	Circuit map[string]float64
	Failed  map[string]float64
	Speedup map[string]float64
}

// loadVariants are the designs whose congestion behaviour the paper
// contrasts: untimed complete circuits vs timed with slack and delay.
func loadVariants() []string { return []string{"Complete_NoAck", "SlackDelay_1_NoAck"} }

// LoadSweepRun sweeps workload intensity multipliers on one chip. Failed
// runs are recorded in the result's Failures and their points skipped.
func LoadSweepRun(c config.Chip, factors []float64, ops int64, pol Policy) *LoadSweep {
	ls := &LoadSweep{Chip: c}
	cl := newCollector(nil, pol)
	base := workload.Micro()
	for _, f := range factors {
		if cl.halted() {
			break
		}
		w := base.Scaled(f)
		row := LoadRow{
			Factor:  f,
			Circuit: map[string]float64{},
			Failed:  map[string]float64{},
			Speedup: map[string]float64{},
		}
		bv, _ := config.ByName("Baseline")
		bspec := chip.DefaultSpec(c, bv, w)
		bspec.MeasureOps = ops
		b, ok := cl.run(bspec)
		if !ok {
			continue // no baseline at this load point; nothing to normalize to
		}
		row.InjRate = b.InjRate
		for _, name := range loadVariants() {
			v, _ := config.ByName(name)
			spec := chip.DefaultSpec(c, v, w)
			spec.MeasureOps = ops
			r, ok := cl.run(spec)
			if !ok {
				continue
			}
			row.Circuit[name] = r.Circ.OutcomeFraction(core.OutcomeCircuit)
			att := float64(r.Circ.CircuitsBuilt + r.Circ.ReserveFailedConflict + r.Circ.ReserveFailedStorage)
			if att > 0 {
				row.Failed[name] = float64(r.Circ.ReserveFailedConflict+r.Circ.ReserveFailedStorage) / att
			}
			row.Speedup[name] = r.Speedup(b)
		}
		ls.Rows = append(ls.Rows, row)
	}
	ls.Failures = cl.take()
	return ls
}

// Format renders the sweep.
func (ls *LoadSweep) Format() string {
	tb := &table{header: []string{"load", "flits/node/100cy"}}
	for _, v := range loadVariants() {
		tb.header = append(tb.header, v+" circ", v+" fail", v+" speedup")
	}
	for _, r := range ls.Rows {
		row := []string{fmt.Sprintf("x%g", r.Factor), fmt.Sprintf("%.2f", r.InjRate*100)}
		for _, v := range loadVariants() {
			row = append(row, pct(r.Circuit[v]), pct(r.Failed[v]),
				fmt.Sprintf("%+.2f%%", (r.Speedup[v]-1)*100))
		}
		tb.add(row...)
	}
	return fmt.Sprintf("Load threshold (%s): circuit construction vs offered load\n%s", ls.Chip.Name, tb.String()) +
		"the paper (Section 5.5): heavy loads make conflicts frequent and prevent complete circuits;\n" +
		"timed circuits hold ports only for their windows, raising the congestion threshold\n" +
		FormatFailures(ls.Failures)
}

// ---------------------------------------------------------------------------
// Ablations of the paper's experimentally chosen constants.
// ---------------------------------------------------------------------------

// Ablation is a one-dimensional design sweep.
type Ablation struct {
	Chip     config.Chip
	Param    string
	Rows     []AblationRow
	Failures []FailureReport
}

// AblationRow is one parameter value's outcome.
type AblationRow struct {
	Value          int
	CircuitFrac    float64
	StorageFailed  float64 // reservation failures from full entry storage
	ConflictFailed float64
	Undone         float64
	Speedup        float64
	AreaSavings    float64
}

// AblateCircuitsPerPort sweeps the simultaneous-circuit storage that the
// paper fixes at five entries per input port ("big enough to reduce failed
// circuits due to lack of storage but small enough to minimize area").
func AblateCircuitsPerPort(c config.Chip, values []int, ops int64, pol Policy) *Ablation {
	ab := &Ablation{Chip: c, Param: "circuits/port"}
	cl := newCollector(nil, pol)
	w := workload.Micro()
	bv, _ := config.ByName("Baseline")
	bspec := chip.DefaultSpec(c, bv, w)
	bspec.MeasureOps = ops
	b, ok := cl.run(bspec)
	if !ok {
		ab.Failures = cl.take()
		return ab // no baseline, no ratios worth reporting
	}
	for _, n := range values {
		if cl.halted() {
			break
		}
		opts := core.Options{Mechanism: core.MechComplete, MaxCircuitsPerPort: n, NoAck: true}
		v := config.Variant{Name: fmt.Sprintf("Complete_%dper", n), Opts: opts}
		spec := chip.DefaultSpec(c, v, w)
		spec.MeasureOps = ops
		r, ok := cl.run(spec)
		if !ok {
			continue
		}
		att := float64(r.Circ.CircuitsBuilt + r.Circ.ReserveFailedConflict + r.Circ.ReserveFailedStorage)
		row := AblationRow{
			Value:       n,
			CircuitFrac: r.Circ.OutcomeFraction(core.OutcomeCircuit),
			Speedup:     r.Speedup(b),
			AreaSavings: r.AreaSavings,
		}
		if att > 0 {
			row.StorageFailed = float64(r.Circ.ReserveFailedStorage) / att
			row.ConflictFailed = float64(r.Circ.ReserveFailedConflict) / att
		}
		ab.Rows = append(ab.Rows, row)
	}
	ab.Failures = cl.take()
	return ab
}

// AblateSlack sweeps the slack of timed reservations (the paper's Slack_N
// family): small slack loses circuits to jitter, large slack occupies
// ports too long.
func AblateSlack(c config.Chip, values []int, ops int64, pol Policy) *Ablation {
	ab := &Ablation{Chip: c, Param: "slack/hop"}
	cl := newCollector(nil, pol)
	w := workload.Micro()
	bv, _ := config.ByName("Baseline")
	bspec := chip.DefaultSpec(c, bv, w)
	bspec.MeasureOps = ops
	b, ok := cl.run(bspec)
	if !ok {
		ab.Failures = cl.take()
		return ab
	}
	for _, s := range values {
		if cl.halted() {
			break
		}
		opts := core.Options{
			Mechanism: core.MechComplete, MaxCircuitsPerPort: 5,
			NoAck: true, Timed: true, SlackPerHop: s,
		}
		v := config.Variant{Name: fmt.Sprintf("Slack_%d", s), Opts: opts}
		spec := chip.DefaultSpec(c, v, w)
		spec.MeasureOps = ops
		r, ok := cl.run(spec)
		if !ok {
			continue
		}
		att := float64(r.Circ.CircuitsBuilt + r.Circ.ReserveFailedConflict + r.Circ.ReserveFailedStorage)
		row := AblationRow{
			Value:       s,
			CircuitFrac: r.Circ.OutcomeFraction(core.OutcomeCircuit),
			Undone:      r.Circ.OutcomeFraction(core.OutcomeUndone),
			Speedup:     r.Speedup(b),
			AreaSavings: r.AreaSavings,
		}
		if att > 0 {
			row.ConflictFailed = float64(r.Circ.ReserveFailedConflict) / att
		}
		ab.Rows = append(ab.Rows, row)
	}
	ab.Failures = cl.take()
	return ab
}

// ---------------------------------------------------------------------------
// Related-work comparison: the design space the paper positions itself in.
// ---------------------------------------------------------------------------

// Compare contrasts Reactive Circuits with the related-work alternatives:
// speculative single-cycle routers and probe-based (Déjà-Vu) setup.
type Compare struct {
	Chip     config.Chip
	Rows     []CompareRow
	Failures []FailureReport
}

// CompareRow is one design's headline metrics at light load plus its
// speedup under an 8x-intensity workload (speculation decays with
// contention; circuits — especially timed ones — hold up).
type CompareRow struct {
	Name         string
	ReplyNet     float64 // circuit-eligible reply network latency (cycles)
	Speedup      float64
	SpeedupHeavy float64
	EnergyRatio  float64
	AreaSavings  float64
}

// CompareRun evaluates the comparator designs on one workload.
func CompareRun(c config.Chip, ops int64, pol Policy) *Compare {
	cmp := &Compare{Chip: c}
	cl := newCollector(nil, pol)
	light := workload.Micro()
	heavy := light.Scaled(8)
	var base, baseHeavy *chip.Results
	for _, v := range config.Comparators() {
		if cl.halted() {
			break
		}
		spec := chip.DefaultSpec(c, v, light)
		spec.MeasureOps = ops
		r, ok := cl.run(spec)
		if !ok {
			continue
		}
		hspec := chip.DefaultSpec(c, v, heavy)
		hspec.MeasureOps = ops
		hr, _ := cl.run(hspec)
		if v.Name == "Baseline" {
			base, baseHeavy = r, hr
		}
		row := CompareRow{
			Name:        v.Name,
			ReplyNet:    r.Lat.CircuitReplies.Network.Mean(),
			AreaSavings: r.AreaSavings,
		}
		if base != nil {
			row.Speedup = r.Speedup(base)
			row.EnergyRatio = r.Energy.Total() / base.Energy.Total()
		}
		if hr != nil && baseHeavy != nil {
			row.SpeedupHeavy = hr.Speedup(baseHeavy)
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	cmp.Failures = cl.take()
	return cmp
}

// Format renders the comparison.
func (cmp *Compare) Format() string {
	tb := &table{header: []string{"design", "data-reply net (cy)", "speedup", "speedup @8x load", "energy", "router area"}}
	for _, r := range cmp.Rows {
		tb.add(r.Name, fmt.Sprintf("%.1f", r.ReplyNet),
			fmt.Sprintf("%+.2f%%", (r.Speedup-1)*100),
			fmt.Sprintf("%+.2f%%", (r.SpeedupHeavy-1)*100),
			fmt.Sprintf("%.3f", r.EnergyRatio), pct2(r.AreaSavings))
	}
	return fmt.Sprintf("Related-work comparison (%s)\n%s", cmp.Chip.Name, tb.String()) +
		"speculative routers [16-19] are modelled WITHOUT their complexity/frequency penalty\n" +
		"(an optimistic bound) and only win while uncontended; probe setup at reply time [7]\n" +
		"cannot hide the traversal when the L2 answers in 7 cycles; reserving with the\n" +
		"request gets circuit latency plus the area and NoAck benefits\n" +
		FormatFailures(cmp.Failures)
}

// ---------------------------------------------------------------------------
// Scalability: circuit construction vs chip size (the paper's Section 5.5
// concern that longer paths and more traffic make circuits harder to build).
// ---------------------------------------------------------------------------

// ScaleSweep measures the mechanism across chip sizes.
type ScaleSweep struct {
	Rows     []ScaleRow
	Failures []FailureReport
}

// ScaleRow is one chip size's outcome for Complete_NoAck and the timed
// SlackDelay variant.
type ScaleRow struct {
	Nodes   int
	Circuit map[string]float64
	Failed  map[string]float64
	Speedup map[string]float64
}

func scaleVariants() []string { return []string{"Complete_NoAck", "SlackDelay_1_NoAck"} }

// ScaleSweepRun runs the micro workload across square meshes. Sizes above
// 64 nodes are rejected: the directory's sharer vector is one machine word,
// matching the paper's largest chip.
func ScaleSweepRun(dims []int, ops int64, pol Policy) *ScaleSweep {
	ss := &ScaleSweep{}
	cl := newCollector(nil, pol)
	w := workload.Micro()
	for _, d := range dims {
		if d*d > 64 {
			panic("exp: chips beyond 64 nodes exceed the directory's sharer vector")
		}
		if cl.halted() {
			break
		}
		c := config.Chip{Name: fmt.Sprintf("%d-core", d*d), Width: d, Height: d, MCs: 4}
		row := ScaleRow{
			Nodes:   d * d,
			Circuit: map[string]float64{},
			Failed:  map[string]float64{},
			Speedup: map[string]float64{},
		}
		bv, _ := config.ByName("Baseline")
		bspec := chip.DefaultSpec(c, bv, w)
		bspec.MeasureOps = ops
		b, ok := cl.run(bspec)
		if !ok {
			continue
		}
		for _, name := range scaleVariants() {
			v, _ := config.ByName(name)
			spec := chip.DefaultSpec(c, v, w)
			spec.MeasureOps = ops
			r, ok := cl.run(spec)
			if !ok {
				continue
			}
			row.Circuit[name] = r.Circ.OutcomeFraction(core.OutcomeCircuit)
			att := float64(r.Circ.CircuitsBuilt + r.Circ.ReserveFailedConflict + r.Circ.ReserveFailedStorage)
			if att > 0 {
				row.Failed[name] = float64(r.Circ.ReserveFailedConflict+r.Circ.ReserveFailedStorage) / att
			}
			row.Speedup[name] = r.Speedup(b)
		}
		ss.Rows = append(ss.Rows, row)
	}
	ss.Failures = cl.take()
	return ss
}

// Format renders the scalability sweep.
func (ss *ScaleSweep) Format() string {
	tb := &table{header: []string{"cores"}}
	for _, v := range scaleVariants() {
		tb.header = append(tb.header, v+" circ", v+" fail", v+" speedup")
	}
	for _, r := range ss.Rows {
		row := []string{fmt.Sprintf("%d", r.Nodes)}
		for _, v := range scaleVariants() {
			row = append(row, pct(r.Circuit[v]), pct(r.Failed[v]),
				fmt.Sprintf("%+.2f%%", (r.Speedup[v]-1)*100))
		}
		tb.add(row...)
	}
	return "Scalability: circuit construction vs chip size\n" + tb.String() +
		"the paper (Section 5.2/5.5): bigger chips mean longer paths and more conflicts,\n" +
		"so fewer circuits build; timed reservations are 'very useful to guarantee the\n" +
		"scalability of the mechanism'\n" +
		FormatFailures(ss.Failures)
}

// Format renders the ablation.
func (ab *Ablation) Format() string {
	tb := &table{header: []string{ab.Param, "circuit", "storage-fail", "conflict-fail", "undone", "speedup", "area"}}
	for _, r := range ab.Rows {
		tb.add(fmt.Sprintf("%d", r.Value), pct(r.CircuitFrac), pct(r.StorageFailed),
			pct(r.ConflictFailed), pct(r.Undone),
			fmt.Sprintf("%+.2f%%", (r.Speedup-1)*100), pct2(r.AreaSavings))
	}
	return fmt.Sprintf("Ablation (%s, %s)\n%s", ab.Chip.Name, ab.Param, tb.String()) +
		FormatFailures(ab.Failures)
}
