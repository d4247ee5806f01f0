package sim

import (
	"fmt"
	"sync"
)

// Cycle is a simulation timestamp measured in core clock cycles (2 GHz in
// the modelled chip). Cycles are int64 so arithmetic on windows and
// deadlines can go transiently negative without wrapping.
type Cycle = int64

// Ticker is implemented by every clocked component. The kernel calls Tick
// exactly once per cycle on each registered component.
//
// Components must only *read* state written by other components in earlier
// cycles: all inter-component channels (links, credit wires) are one-cycle
// double-buffered pipelines, which makes the tick order across components
// observationally irrelevant.
type Ticker interface {
	Tick(now Cycle)
}

// Component is a Ticker that reports quiescence. The contract is strict:
// Quiescent() may return true only when the next Tick would be a pure
// no-op — no architectural state, statistic or counter may change when a
// quiescent component ticks. Under that contract the kernel may skip
// sleeping components without perturbing the simulation by a single bit,
// which is exactly what the golden determinism suite asserts.
//
// A component goes back to sleep on its own (the kernel re-checks
// quiescence after every tick); it is revived by a Waker, which whoever
// hands it work — a link delivering a flit, an NI accepting a message, a
// controller queueing a response — must invoke at hand-off time.
type Component interface {
	Ticker
	Quiescent() bool
}

// Waker revives one registered component. The zero Waker is a no-op, so
// components wired outside a kernel (unit tests driving Tick by hand) need
// no special casing. Waking an already-active component is free; waking a
// component whose slot already passed this cycle takes effect next cycle —
// identical to the dense engine, where that component's earlier tick was a
// no-op by the quiescence contract.
type Waker struct {
	k   *Kernel
	idx int
}

// Wake marks the component active so the kernel ticks it again.
func (w Waker) Wake() {
	if w.k == nil {
		return
	}
	w.k.entries[w.idx].active = true
}

// entry is one registered component with its scheduling state.
type entry struct {
	t Ticker
	// c is non-nil for activity-tracked components; nil entries (legacy
	// Register calls) are ticked unconditionally every cycle.
	c      Component
	active bool
	// shard is the tile shard that owns this component under parallel
	// execution; it is the value of SetShard at registration time.
	shard int32
}

// shardState is one worker shard's private scheduling state, padded so the
// per-shard tick counters never share a cache line across workers.
type shardState struct {
	ticks int64
	_     [7]int64
}

// Kernel drives a set of Tickers with a shared clock. Components added
// through Add are activity-tracked: the kernel skips them while they are
// quiescent and revives them through their Waker. Components added through
// Register tick every cycle, preserving the original engine's behaviour
// for monolithic tickers.
type Kernel struct {
	now     Cycle
	entries []entry
	// dense disables activity skipping: every component ticks every
	// cycle, exactly like the original engine. The golden determinism
	// suite cross-checks dense against sparse execution.
	dense bool
	// ticks counts component ticks actually executed; with the component
	// count and cycle count this yields the scheduler's skip ratio.
	ticks int64

	// Sharded (parallel) execution state. With nshards <= 1 the kernel is
	// exactly the sequential engine and none of this is consulted on the
	// hot path.
	nshards  int
	curShard int32
	// epilogues run at the end of every Step — after the tick phase, before
	// the cycle counter advances — in all engine modes. The circuit layer
	// drains its deferred cross-tile operations here and the network
	// flushes staged boundary links, which is what makes the parallel
	// engine bit-identical to the sequential one.
	epilogues []func(Cycle)
	plans     [][]int32
	shards    []shardState
	jobs      []chan struct{}
	wg        sync.WaitGroup
	workerWG  sync.WaitGroup
	prepared  bool
	closed    bool
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current cycle.
func (k *Kernel) Now() Cycle { return k.now }

// Register adds a component that ticks every cycle.
func (k *Kernel) Register(t Ticker) {
	k.checkOpen()
	k.entries = append(k.entries, entry{t: t, active: true, shard: k.curShard})
}

// Add registers an activity-tracked component and returns its Waker.
// Components start active and fall asleep after their first quiescent
// tick.
func (k *Kernel) Add(c Component) Waker {
	k.checkOpen()
	k.entries = append(k.entries, entry{t: c, c: c, active: true, shard: k.curShard})
	return Waker{k: k, idx: len(k.entries) - 1}
}

func (k *Kernel) checkOpen() {
	if k.prepared {
		panic("sim: component registered after the sharded kernel started stepping")
	}
}

// SetShards declares how many tile shards the kernel will step in parallel.
// 0 and 1 select the sequential engine. Call before registering components;
// components are tagged with the current SetShard value as they register.
func (k *Kernel) SetShards(n int) {
	if k.prepared {
		panic("sim: SetShards after the kernel started stepping")
	}
	if n < 1 {
		n = 1
	}
	k.nshards = n
}

// Shards returns the shard count the kernel executes with (1 = sequential).
func (k *Kernel) Shards() int {
	if k.nshards < 1 {
		return 1
	}
	return k.nshards
}

// SetShard selects the shard that owns components registered from now on.
func (k *Kernel) SetShard(s int) { k.curShard = int32(s) }

// AddEpilogue appends f to the per-cycle epilogue chain. Epilogues run at
// the end of every Step, after the tick phase and before the clock advances,
// in every engine mode — so any behaviour they carry (deferred circuit
// operations, boundary-link flushes) is shared by the sequential and
// parallel engines rather than a parallel-only code path.
func (k *Kernel) AddEpilogue(f func(Cycle)) { k.epilogues = append(k.epilogues, f) }

// SetDense switches the kernel to dense (tick-everything) execution, the
// reference mode the activity tracker is verified against.
func (k *Kernel) SetDense(d bool) { k.dense = d }

// Components returns how many components are registered.
func (k *Kernel) Components() int { return len(k.entries) }

// ActiveCount returns how many registered components are currently awake.
func (k *Kernel) ActiveCount() int {
	n := 0
	for i := range k.entries {
		if k.entries[i].active {
			n++
		}
	}
	return n
}

// Ticks returns the number of component ticks executed since construction.
// Comparing it against Components() × Now() gives the skip ratio the
// activity tracker achieved.
func (k *Kernel) Ticks() int64 {
	n := k.ticks
	for s := range k.shards {
		n += k.shards[s].ticks
	}
	return n
}

// Step advances the simulation by one cycle.
func (k *Kernel) Step() {
	now := k.now
	if k.nshards > 1 {
		if !k.prepared {
			k.prepare()
		}
		k.stepParallel()
	} else {
		k.stepSequential(now)
	}
	for _, f := range k.epilogues {
		f(now)
	}
	k.now++
}

// prepare seals the component set and builds the per-shard step plans: for
// each shard, the indices of its entries in global registration order. A
// shard's plan therefore preserves the sequential engine's relative tick
// order among the components it owns; components of different shards only
// interact through state exchanged at the cycle barrier, so their mutual
// order is immaterial.
func (k *Kernel) prepare() {
	k.plans = buildPlans(k.entries, k.nshards)
	k.shards = make([]shardState, k.nshards)
	k.jobs = make([]chan struct{}, k.nshards)
	for s := 1; s < k.nshards; s++ {
		k.jobs[s] = make(chan struct{}, 1)
		k.workerWG.Add(1)
		go k.worker(s)
	}
	k.prepared = true
}

func buildPlans(es []entry, nshards int) [][]int32 {
	plans := make([][]int32, nshards)
	for i := range es {
		s := int(es[i].shard)
		if s < 0 || s >= nshards {
			panic(fmt.Sprintf("sim: component %d tagged with shard %d of %d", i, s, nshards))
		}
		plans[s] = append(plans[s], int32(i))
	}
	return plans
}

// worker is one shard's persistent goroutine: it blocks on its job channel,
// steps its shard through one cycle, and signals the barrier.
func (k *Kernel) worker(s int) {
	defer k.workerWG.Done()
	for range k.jobs[s] {
		k.runShard(s)
		k.wg.Done()
	}
}

// stepParallel ticks one cycle with every shard running concurrently. The
// coordinator goroutine doubles as shard 0's worker. The WaitGroup is the
// cycle barrier: no goroutine observes another shard's writes except
// through it, and all cross-shard state (boundary links, deferred
// operations) is exchanged strictly on the coordinator side of it.
func (k *Kernel) stepParallel() {
	k.wg.Add(k.nshards - 1)
	for s := 1; s < k.nshards; s++ {
		k.jobs[s] <- struct{}{}
	}
	k.runShard(0)
	k.wg.Wait()
}

func (k *Kernel) runShard(s int) {
	now := k.now
	var n int64
	for _, idx := range k.plans[s] {
		e := &k.entries[idx]
		if !e.active && !k.dense {
			continue
		}
		e.t.Tick(now)
		n++
		if e.c != nil {
			e.active = !e.c.Quiescent()
		}
	}
	k.shards[s].ticks += n
}

// Close shuts down the shard workers. It is a no-op for a sequential
// kernel and is idempotent; a parallel kernel must not Step after Close.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for s := 1; s < len(k.jobs); s++ {
		close(k.jobs[s])
	}
	k.workerWG.Wait()
}

func (k *Kernel) stepSequential(now Cycle) {
	es := k.entries
	for i := range es {
		e := &es[i]
		if !e.active && !k.dense {
			continue
		}
		e.t.Tick(now)
		k.ticks++
		if e.c != nil {
			// Re-evaluated after every tick: work the component handed
			// itself keeps it awake; work handed to it by a later-ticking
			// peer sets the flag directly and survives this check because
			// sends only happen after this component's slot.
			e.active = !e.c.Quiescent()
		}
	}
}

// Run advances n cycles.
func (k *Kernel) Run(n Cycle) {
	for i := Cycle(0); i < n; i++ {
		k.Step()
	}
}

// RunUntil advances until done reports true or the horizon is hit,
// returning the cycle count actually simulated and whether done fired.
func (k *Kernel) RunUntil(done func() bool, horizon Cycle) (Cycle, bool) {
	start := k.now
	for k.now-start < horizon {
		if done() {
			return k.now - start, true
		}
		k.Step()
	}
	return k.now - start, done()
}
