// Package chip assembles the full simulated machine — network, circuit
// manager, caches, coherence controllers, memory controllers and cores —
// and runs measured experiments on it. Every table and figure of the
// evaluation is regenerated from the Results this package produces.
package chip

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/cpu"
	"reactivenoc/internal/fault"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/noc"
	"reactivenoc/internal/power"
	"reactivenoc/internal/sim"
	"reactivenoc/internal/trace"
	"reactivenoc/internal/tracefeed"
	"reactivenoc/internal/verify"
	"reactivenoc/internal/workload"
)

// Spec describes one simulation run.
type Spec struct {
	Chip     config.Chip
	Variant  config.Variant
	Workload workload.Profile

	// WarmupOps and MeasureOps are retired operations per core: the
	// warm-up fills the caches without statistics (the paper warms for
	// 200M cycles), then the measured phase runs to completion.
	WarmupOps  int64
	MeasureOps int64

	Seed uint64
	// Horizon caps the run (cycles); 0 selects a generous default.
	Horizon sim.Cycle
	// TraceCap, when positive, attaches a lifecycle tracer retaining the
	// last TraceCap events (returned in Results.Trace).
	TraceCap int
	// Audit runs every conservation and coherence audit after the run
	// (leaked circuit entries, unreturned credits, directory soundness)
	// and fails the run on any violation.
	Audit bool

	// Verify arms the online invariant oracles (internal/verify) inside
	// the cycle loop: credit and flit conservation, per-VC order, circuit
	// table legality, registry/table cross-checks, circuit leaks, the
	// single-writer coherence invariant, and a waits-for-graph deadlock
	// detector that fires before the watchdog. A violation fails the run
	// with RunError.Oracle naming the detector. Off by default: the
	// measured hot path pays nothing for the machinery.
	Verify bool
	// VerifyEvery is the oracle cadence in cycles when Verify is set
	// (0 = a default of 128). Fault-injection tests run at 1 so a
	// corruption is caught on the boundary it appears.
	VerifyEvery sim.Cycle

	// Timeout caps the run's wall-clock time (0 = none); an exceeded run
	// returns a *RunError instead of hogging its sweep worker.
	Timeout time.Duration
	// WatchdogStall overrides the forward-progress watchdog threshold in
	// cycles (0 = the package default).
	WatchdogStall sim.Cycle
	// Fault, when non-nil, arms the deterministic fault injector for
	// chaos runs; injections are reported in Results.Faults or, when the
	// corruption is caught, in RunError.Faults.
	Fault *fault.Plan

	// SampleEvery, when positive, records a metrics-registry snapshot
	// every SampleEvery cycles of the measured phase (Results.Series):
	// per-window counter deltas plus end-of-window gauge levels.
	SampleEvery sim.Cycle
	// OnSample, when non-nil, observes each recorded window as it closes,
	// with At already rebased to the measured-phase start — the seam the
	// simulation service streams live progress from. Observers run on the
	// simulation goroutine and must not block; they never affect results
	// and are excluded from Fingerprint.
	OnSample func(sim.Snapshot) `json:"-"`
	// DenseKernel disables the activity tracker, ticking every component
	// every cycle — the reference scheduling the golden determinism suite
	// cross-checks against.
	DenseKernel bool
	// Shards selects the parallel engine's tile-shard count: the mesh is
	// split into contiguous row bands whose components step concurrently
	// each cycle, exchanging boundary link state only at the
	// per-cycle barrier. Results are bit-identical for every value, so it
	// is an engine switch like DenseKernel — excluded from Fingerprint
	// (json:"-") so the service's result cache never splits on it.
	// 0 consults RC_SHARDS (itself "0" → GOMAXPROCS); 1 (or an
	// unparsable/unset environment) runs today's sequential engine. Runs
	// that need cross-shard mutation mid-phase fall back to 1 shard: the
	// ideal mechanism (instant path-walking teardown), fault injection,
	// and lifecycle tracing (one shared trace buffer).
	Shards int `json:"-"`
	// NoPool disables flit/message recycling (see core.Options.NoPool):
	// the reference allocation behaviour the pooled hot path is
	// cross-checked against. Results are bit-identical either way.
	NoPool bool

	// RecordTrace, when set, dumps the run's per-core instruction streams
	// to this path as a replayable binary trace (internal/tracefeed). The
	// recorder is purely passive — a recorded run is bit-identical to an
	// unrecorded one — so the knob is an observer like OnSample, excluded
	// from Fingerprint (json:"-"): result caches never split on it.
	RecordTrace string `json:"-"`
}

// DefaultSpec returns a spec with sane defaults for the given chip,
// variant and workload: warm-up long enough to touch the working set a few
// times (the paper warms caches for 200M cycles before measuring).
func DefaultSpec(c config.Chip, v config.Variant, w workload.Profile) Spec {
	return Spec{
		Chip: c, Variant: v, Workload: w,
		WarmupOps:  3000,
		MeasureOps: 12000,
		Seed:       1,
	}
}

// CoreStats summarizes one core's measured phase.
type CoreStats struct {
	Retired     int64
	Loads       int64
	Stores      int64
	Misses      int64
	StallCycles int64
	FinishedAt  sim.Cycle
}

// Results carries everything the evaluation needs from one run.
type Results struct {
	Spec Spec

	// Cycles is the measured-phase makespan: the cycle the last core
	// retired its final operation, minus the warm-up boundary.
	Cycles sim.Cycle

	Cores []CoreStats

	Msgs coherence.MsgStats
	Lat  coherence.LatencyStats
	// Circ holds the circuit-mechanism statistics (nil for baseline).
	Circ *core.Stats

	Events noc.PowerEvents
	Energy power.Energy
	// AreaSavings is the router-area delta vs the baseline router.
	AreaSavings float64

	L1Hits, L1Misses int64
	L2Hits, L2Misses int64

	// InjRate is injected flits per node per measured cycle (each network
	// message counted once at its size), the network-load measure the
	// paper quotes ("less than four flits every 100 cycles").
	InjRate float64

	// SimCycles is the total simulated cycle count including warm-up —
	// the denominator for host-throughput metrics (sim_cycles/sec).
	SimCycles sim.Cycle

	// Metrics is the final metrics-registry snapshot of the run; Results'
	// scalar cache fields above are harvested from it.
	Metrics sim.Snapshot
	// Series holds the per-window snapshots recorded when
	// Spec.SampleEvery > 0, with At rebased to the measured-phase start.
	Series []sim.Snapshot

	// Trace holds the retained lifecycle events when Spec.TraceCap > 0.
	Trace []trace.Event

	// Faults logs the injected faults of a chaos run that finished
	// anyway (normally empty).
	Faults []fault.Event
}

// IPC returns measured operations per core per measured-phase cycle.
// CoreStats.Retired includes the warm-up, so the warm-up's retirements
// come off before dividing by the measured makespan.
func (r *Results) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	retired := -int64(len(r.Cores)) * r.Spec.WarmupOps
	for _, c := range r.Cores {
		retired += c.Retired
	}
	return float64(retired) / float64(r.Cycles) / float64(len(r.Cores))
}

// Speedup returns baseline.Cycles / r.Cycles.
func (r *Results) Speedup(baseline *Results) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// watchdogStall is how long the cores may collectively retire nothing
// before the run is declared deadlocked. Memory round trips under heavy
// line-blocking contention reach a few thousand cycles; an order of
// magnitude above that is unambiguous.
const watchdogStall sim.Cycle = 50_000

// diagTraceCap is the trace tail retained for fault-armed runs that did
// not ask for tracing themselves, so a chaos failure still carries its
// last lifecycle events.
const diagTraceCap = 48

// checkEvery is how often (in cycles) a run polls its context and
// wall-clock deadline; cancellation latency stays under a millisecond of
// simulation work.
const checkEvery = 2048

// envShards resolves RC_SHARDS once per process. The read is lazy (first
// sharded spec, not package init) so `go test` cache keys only include the
// variable for packages that actually consult it. Unset, empty or
// unparsable → 1 (sequential engine); "0" → GOMAXPROCS; N → N.
var envShards = sync.OnceValue(func() int {
	v, ok := os.LookupEnv("RC_SHARDS")
	if !ok || v == "" {
		return 1
	}
	sh, err := strconv.Atoi(v)
	if err != nil || sh < 0 {
		return 1
	}
	if sh == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return sh
})

// effectiveShards resolves a spec's shard count against the run's
// constraints. Runs whose hooks mutate cross-shard state mid-phase fall
// back to the sequential engine: the ideal mechanism tears circuits down
// by walking the whole path instantly, fault injection corrupts arbitrary
// tiles from one hook, and lifecycle tracing appends to one shared ring
// (traceCap covers both explicit TraceCap and the fault-armed diagnostic
// tail). Everything else clamps to one row band per shard.
func effectiveShards(spec *Spec, m mesh.Mesh, traceCap int) int {
	sh := spec.Shards
	if sh == 0 {
		sh = envShards()
	}
	if sh <= 1 {
		return 1
	}
	if spec.Variant.Opts.Mechanism == core.MechIdeal || spec.Fault != nil || traceCap > 0 {
		return 1
	}
	return m.ClampShards(sh)
}

// Run executes the spec and returns its measurements.
func Run(spec Spec) (*Results, error) { return RunCtx(context.Background(), spec) }

// RunCtx executes the spec with cancellation and failure containment: an
// invariant panic anywhere in the simulated machine is recovered into a
// structured *RunError (never re-thrown), as are watchdog deadlocks,
// horizon and wall-clock timeouts, context cancellation, and audit
// failures. A long sweep survives any single run dying.
func RunCtx(ctx context.Context, spec Spec) (res *Results, err error) {
	m := &Machine{spec: spec}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, m.runErr(fmt.Sprint(r), true)
		}
	}()
	if err := m.build(); err != nil {
		return nil, err
	}
	if err := m.Run(ctx); err != nil {
		return nil, err
	}
	return m.Harvest()
}

// Machine is one simulated chip wired for a Spec: Build assembles it, Run
// drives its warm-up and measured phases, and Harvest collects the
// Results. RunCtx is those three steps plus panic containment; a caller
// that wants to inspect the machine itself after the run (per-router
// counters, say) uses them directly.
type Machine struct {
	// Sys is the simulated memory hierarchy and its network.
	Sys *coherence.System

	spec     Spec
	kernel   *sim.Kernel
	reg      *sim.Registry
	cores    []*cpu.Core
	wakers   []sim.Waker
	tr       *trace.Buffer
	inj      *fault.Injector
	suite    *verify.Suite
	recorder *tracefeed.Recorder
	sampler  *sim.Sampler

	// doneBy counts done-transitions per shard (a core's sink runs on its
	// shard's worker) so the end-of-phase predicate is a short sum instead
	// of an O(cores) scan every cycle; sys.Busy() (which walks the whole
	// machine) only runs in the drain tail after the last core finishes.
	doneBy []int64

	phase                       string
	horizon, stall, verifyEvery sim.Cycle
	wallDeadline                time.Time
	measureStart                sim.Cycle
}

// Build validates the spec and wires its machine: the memory system,
// prefilled caches, optional tracer and fault injector, one core per tile,
// the kernel, the metrics registry and, under Spec.Verify, the oracle
// suite. An invariant panic during Build is not contained; RunCtx is the
// contained path.
func Build(spec Spec) (*Machine, error) {
	m := &Machine{spec: spec}
	if err := m.build(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Machine) build() error {
	m.phase = "setup"
	spec := &m.spec
	if spec.MeasureOps <= 0 {
		return fmt.Errorf("chip: MeasureOps must be positive")
	}
	if verr := spec.Workload.Validate(); verr != nil {
		return fmt.Errorf("chip: %w", verr)
	}

	msh := mesh.New(spec.Chip.Width, spec.Chip.Height)
	opts := spec.Variant.Opts
	opts.NoPool = opts.NoPool || spec.NoPool
	sys := coherence.NewSystem(msh, opts, spec.Chip.MCs)
	m.Sys = sys
	n := msh.Nodes()

	feed, err := loadFeed(spec, n)
	if err != nil {
		return err
	}

	// Functional cache warming (the paper warms for 200M cycles): every
	// region each core touches is installed in its home L2 bank, and the
	// hot private region in the core's L1.
	for i := 0; i < n; i++ {
		regions := spec.Workload.Regions(i)
		if feed != nil {
			regions = feed.CoreRegions(i)
		}
		for _, reg := range regions {
			for l := 0; l < reg.Lines; l++ {
				tile := mesh.NodeID(-1)
				if l < reg.L1Lines {
					tile = mesh.NodeID(i)
				}
				sys.Prefill(reg.Start+cache.Addr(l*64), tile, reg.Exclusive)
			}
		}
	}

	// A diagnostic tracer rides along whenever the caller asked for one or
	// armed the fault injector, so failures carry a bounded trace tail.
	traceCap := spec.TraceCap
	if traceCap <= 0 && spec.Fault != nil {
		traceCap = diagTraceCap
	}
	if traceCap > 0 {
		m.tr = trace.New(traceCap)
		sys.Net.SetTracer(m.tr)
		if sys.Mgr != nil {
			sys.Mgr.SetTracer(m.tr)
		}
	}

	if spec.Fault != nil {
		m.inj = fault.New(*spec.Fault)
		sys.Net.SetFaultHook(m.inj)
		if sys.Mgr != nil {
			sys.Mgr.SetFaultHook(m.inj)
		}
	}

	// The parallel engine partitions the mesh into row-band tiles stepped
	// concurrently each cycle. Sharding must be wired before Register and
	// DescribeMetrics below — both hand out per-shard counter slots that
	// SetShards allocates.
	shards := effectiveShards(spec, msh, traceCap)
	if shards > 1 {
		sys.SetShards(shards, msh.ShardMap(shards))
	}

	// The trace recorder, like the replayer, keeps all state per-core, so
	// neither forces the sequential engine: a core is only ever ticked by
	// its own shard worker.
	if spec.RecordTrace != "" {
		m.recorder = tracefeed.NewRecorder(spec.Workload, n, spec.Seed, spec.WarmupOps, spec.MeasureOps)
	}

	m.doneBy = make([]int64, shards)
	m.cores = make([]*cpu.Core, n)
	m.wakers = make([]sim.Waker, n)
	for i := 0; i < n; i++ {
		var st cpu.Stream
		if feed != nil {
			st = feed.Stream(i)
		} else {
			st = spec.Workload.StreamGeom(i, msh.Width, msh.Height, spec.Seed)
		}
		limit := spec.WarmupOps
		if limit <= 0 {
			limit = spec.MeasureOps
		}
		m.cores[i] = cpu.New(i, sys.L1s[i], st, limit)
		if m.recorder != nil {
			m.cores[i].SetRecorder(m.recorder)
		}
		s := msh.ShardOf(mesh.NodeID(i), shards)
		m.cores[i].SetDoneSink(func() { m.doneBy[s]++ })
	}

	// Registration order replicates the seed engine's tick order exactly:
	// the system (routers, NIs, per-tile L1/L2, MCs), then the cores. Each
	// core carries its tile's shard tag so it steps on the same worker as
	// the caches it shares state with.
	k := sim.NewKernel()
	m.kernel = k
	k.SetDense(spec.DenseKernel)
	k.SetShards(shards)
	sys.Register(k)
	for i, c := range m.cores {
		k.SetShard(msh.ShardOf(mesh.NodeID(i), shards))
		m.wakers[i] = k.Add(c)
	}
	k.SetShard(0)

	m.reg = sim.NewRegistry()
	sys.DescribeMetrics(m.reg)
	for _, c := range m.cores {
		c.Describe(m.reg)
	}
	if sys.Mgr != nil {
		m.reg.Gauge("circ/open", func() int64 { return sys.Mgr.OpenCircuits(k.Now()) })
	}
	m.reg.Gauge("kernel/active", func() int64 { return int64(k.ActiveCount()) })

	m.horizon = spec.Horizon
	if m.horizon == 0 {
		m.horizon = sim.Cycle(spec.WarmupOps+spec.MeasureOps)*220 + 1_000_000
	}
	m.stall = spec.WatchdogStall
	if m.stall <= 0 {
		m.stall = watchdogStall
	}

	// The oracle suite samples the machine on its own cadence, below the
	// watchdog threshold so a structural deadlock is diagnosed as a
	// waits-for cycle before the watchdog can blame generic "no progress".
	if spec.Verify {
		m.verifyEvery = spec.VerifyEvery
		if m.verifyEvery <= 0 {
			m.verifyEvery = 128
		}
		m.suite = verify.NewSuite(verify.Config{Sys: sys, ProgressStall: m.stall / 2})
	}
	return nil
}

// loadFeed opens a trace-driven workload's recording. The file supplies
// the prefill regions and each core's exact operation sequence, and the
// spec's phase budgets must match the recording's or the cores' retirement
// limits would slice the stream differently. It returns nil for a
// synthetic workload.
func loadFeed(spec *Spec, nodes int) (*tracefeed.Trace, error) {
	path := spec.Workload.TracePath
	if path == "" {
		return nil, nil
	}
	feed, crc, err := tracefeed.Load(path)
	if err != nil {
		return nil, fmt.Errorf("chip: %w", err)
	}
	if spec.Workload.TraceCRC != 0 && spec.Workload.TraceCRC != crc {
		return nil, fmt.Errorf("chip: trace %s has CRC %08x, spec pinned %08x",
			path, crc, spec.Workload.TraceCRC)
	}
	if feed.Cores() != nodes {
		return nil, fmt.Errorf("chip: trace %s recorded %d cores, chip %s has %d",
			path, feed.Cores(), spec.Chip.Name, nodes)
	}
	if feed.WarmupOps != spec.WarmupOps || feed.MeasureOps != spec.MeasureOps {
		return nil, fmt.Errorf("chip: trace %s recorded %d+%d ops/core, spec asks %d+%d",
			path, feed.WarmupOps, feed.MeasureOps, spec.WarmupOps, spec.MeasureOps)
	}
	return feed, nil
}

// Run drives the built machine once: the warm-up phase, the statistics
// reset, the measured phase (sampled when Spec.SampleEvery is set), and
// the quiescent checks. A failure comes back as a *RunError; invariant
// panics are not contained here (RunCtx contains them).
func (m *Machine) Run(ctx context.Context) error {
	defer m.kernel.Close()
	if ctx == nil {
		ctx = context.Background()
	}
	if m.spec.Timeout > 0 {
		m.wallDeadline = time.Now().Add(m.spec.Timeout)
	}

	if m.spec.WarmupOps > 0 {
		if err := m.runPhase(ctx, "warm-up"); err != nil {
			return err
		}
		m.Sys.ResetStats()
	}
	for s := range m.doneBy {
		m.doneBy[s] = 0
	}
	for i, c := range m.cores {
		c.ResetStats(m.spec.MeasureOps)
		m.wakers[i].Wake()
	}

	m.measureStart = m.kernel.Now()
	if m.spec.SampleEvery > 0 {
		m.sampler = sim.NewSampler(m.reg, m.spec.SampleEvery, m.measureStart)
		if onSample := m.spec.OnSample; onSample != nil {
			m.sampler.OnWindow = func(snap sim.Snapshot) {
				snap.At -= m.measureStart
				onSample(snap)
			}
		}
	}
	if err := m.runPhase(ctx, "measured"); err != nil {
		return err
	}
	if m.sampler != nil {
		m.sampler.Flush(m.kernel.Now())
	}

	if m.suite != nil {
		m.phase = "audit"
		if v := m.suite.CheckQuiescent(m.kernel.Now()); v != nil {
			return m.oracleErr(v)
		}
	}
	if m.spec.Audit {
		m.phase = "audit"
		if aerr := m.Sys.AuditQuiescent(m.kernel.Now()); aerr != nil {
			return m.runErr("post-run audit failed: "+aerr.Error(), false)
		}
	}
	return nil
}

// allDone is the end-of-phase predicate: every core finished and the
// memory system drained.
func (m *Machine) allDone() bool {
	var done int64
	for _, d := range m.doneBy {
		done += d
	}
	return done == int64(len(m.cores)) && !m.Sys.Busy()
}

// runPhase advances until every core finishes, with a forward-progress
// watchdog: if no operation retires for a long stretch, the phase is
// deadlocked and the network state dump is attached to the error. The
// context, wall-clock deadline, and watchdog's O(cores) retired sum are
// polled every checkEvery cycles.
func (m *Machine) runPhase(ctx context.Context, name string) error {
	m.phase = name
	k := m.kernel
	deadline := k.Now() + m.horizon
	lastRetired, lastProgress := int64(-1), k.Now()
	for k.Now() < deadline {
		if m.allDone() {
			return nil
		}
		if k.Now()%checkEvery == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return m.runErr("canceled: "+cerr.Error(), false)
			}
			if !m.wallDeadline.IsZero() && time.Now().After(m.wallDeadline) {
				return m.runErr(fmt.Sprintf("exceeded wall-clock timeout %v", m.spec.Timeout), false)
			}
			var retired int64
			for _, c := range m.cores {
				retired += c.Retired
			}
			if retired != lastRetired {
				lastRetired, lastProgress = retired, k.Now()
			} else if k.Now()-lastProgress > m.stall {
				return m.runErr(fmt.Sprintf("no progress for %d cycles (deadlock?)", m.stall), false)
			}
		}
		k.Step()
		if m.sampler != nil {
			m.sampler.Poll(k.Now())
		}
		if m.suite != nil && k.Now()%m.verifyEvery == 0 {
			if v := m.suite.Check(k.Now()); v != nil {
				return m.oracleErr(v)
			}
		}
	}
	if m.allDone() {
		return nil
	}
	return m.runErr(fmt.Sprintf("did not finish within %d cycles", m.horizon), false)
}

// runErr builds the structured failure for the current phase with the
// diagnostic dump, trace tail and injected-fault log attached.
func (m *Machine) runErr(msg string, panicked bool) *RunError {
	spec := &m.spec
	e := &RunError{
		Phase: m.phase, Chip: spec.Chip.Name, Variant: spec.Variant.Name,
		Workload: spec.Workload.Name, Seed: spec.Seed,
		Msg: msg, Panicked: panicked,
	}
	if m.kernel != nil {
		e.Cycle = m.kernel.Now()
	}
	if m.Sys != nil {
		e.Diag = m.Sys.Net.DumpState()
		if m.Sys.Mgr != nil {
			e.Diag += m.Sys.Mgr.DumpCircuits(e.Cycle)
		}
	}
	if m.tr != nil {
		e.TraceTail = m.tr.Events()
	}
	if m.inj != nil {
		e.Faults = m.inj.Events()
	}
	return e
}

// oracleErr is runErr for a violation the oracle suite caught.
func (m *Machine) oracleErr(v *verify.Violation) *RunError {
	e := m.runErr(v.Msg, false)
	e.Oracle = v.Oracle
	return e
}

// Harvest assembles the Results of a finished Run and writes the recorded
// trace when Spec.RecordTrace is set.
func (m *Machine) Harvest() (*Results, error) {
	spec, sys, now := m.spec, m.Sys, m.kernel.Now()
	n := len(m.cores)
	res := &Results{Spec: spec}
	var lastFinish sim.Cycle
	for _, c := range m.cores {
		if c.FinishedAt > lastFinish {
			lastFinish = c.FinishedAt
		}
		res.Cores = append(res.Cores, CoreStats{
			Retired:     c.Retired,
			Loads:       c.Loads,
			Stores:      c.Stores,
			Misses:      c.Misses,
			StallCycles: c.StallCycles,
			FinishedAt:  c.FinishedAt,
		})
	}
	res.Cycles = lastFinish - m.measureStart
	if res.Cycles <= 0 {
		res.Cycles = now - m.measureStart
	}

	res.Msgs = sys.MsgsTotal()
	res.Lat = sys.LatTotal()
	if sys.Mgr != nil {
		st := sys.Mgr.StatsTotal()
		res.Circ = &st
	}
	res.Events = sys.Net.EventsTotal()
	res.Energy = power.NetworkEnergy(&res.Events, n, spec.Variant.Opts, int64(res.Cycles))
	res.AreaSavings = power.AreaSavings(n, spec.Variant.Opts)

	// The cache-layer scalars come from the registry snapshot: every
	// controller registered its counters once at construction, replacing
	// the per-field harvest loop of the original engine.
	res.SimCycles = now
	res.Metrics = m.reg.Snapshot(now)
	res.L1Hits = res.Metrics.Value("l1/hits")
	res.L1Misses = res.Metrics.Value("l1/misses")
	res.L2Hits = res.Metrics.Value("l2/hits")
	res.L2Misses = res.Metrics.Value("l2/misses")
	if m.sampler != nil {
		res.Series = m.sampler.Samples()
		for i := range res.Series {
			res.Series[i].At -= m.measureStart
		}
	}
	if res.Cycles > 0 {
		var flits int64
		for t, c := range res.Msgs.Network {
			flits += c * int64(coherence.MsgType(t).SizeFlits())
		}
		res.InjRate = float64(flits) / float64(res.Cycles) / float64(n)
	}
	if spec.TraceCap > 0 && m.tr != nil {
		res.Trace = m.tr.Events()
	}
	if m.inj != nil {
		res.Faults = m.inj.Events()
	}
	if m.recorder != nil {
		if _, werr := m.recorder.Trace().WriteFile(spec.RecordTrace); werr != nil {
			return nil, fmt.Errorf("chip: writing trace: %w", werr)
		}
	}
	return res, nil
}

// MustRun is Run, panicking on error (benchmarks, examples).
func MustRun(spec Spec) *Results {
	r, err := Run(spec)
	if err != nil {
		panic(err)
	}
	return r
}
