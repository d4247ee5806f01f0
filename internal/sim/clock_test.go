package sim

import "testing"

type countTicker struct {
	n     int
	seen  []Cycle
	other *countTicker
	diffs []int
}

func (c *countTicker) Tick(now Cycle) {
	c.n++
	c.seen = append(c.seen, now)
	if c.other != nil {
		c.diffs = append(c.diffs, c.other.n-c.n)
	}
}

func TestKernelStepAdvancesClock(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("fresh kernel at cycle %d", k.Now())
	}
	k.Run(10)
	if k.Now() != 10 {
		t.Fatalf("after Run(10) at cycle %d", k.Now())
	}
}

func TestKernelTicksEveryComponentOncePerCycle(t *testing.T) {
	k := NewKernel()
	a, b := &countTicker{}, &countTicker{}
	k.Register(a)
	k.Register(b)
	k.Run(5)
	if a.n != 5 || b.n != 5 {
		t.Fatalf("tick counts a=%d b=%d, want 5", a.n, b.n)
	}
	for i, c := range a.seen {
		if c != Cycle(i) {
			t.Fatalf("a saw cycle %d at step %d", c, i)
		}
	}
}

type tickFunc func(Cycle)

func (f tickFunc) Tick(now Cycle) { f(now) }

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Register(tickFunc(func(Cycle) { n++ }))
	ran, ok := k.RunUntil(func() bool { return n >= 7 }, 100)
	if !ok {
		t.Fatal("RunUntil should have satisfied the predicate")
	}
	if ran != 7 {
		t.Fatalf("ran %d cycles, want 7", ran)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := NewKernel()
	ran, ok := k.RunUntil(func() bool { return false }, 50)
	if ok {
		t.Fatal("predicate can never be true")
	}
	if ran != 50 {
		t.Fatalf("ran %d cycles, want horizon 50", ran)
	}
	if k.Now() != 50 {
		t.Fatalf("kernel at cycle %d after horizon run, want 50", k.Now())
	}
}

// RunUntil must not step once the predicate holds, and a predicate that
// turns true exactly at the horizon is still reported as done.
func TestRunUntilDoneFiresWithoutStepping(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Register(tickFunc(func(Cycle) { n++ }))
	ran, ok := k.RunUntil(func() bool { return true }, 100)
	if !ok || ran != 0 || n != 0 {
		t.Fatalf("ran=%d ok=%v ticks=%d, want 0/true/0", ran, ok, n)
	}

	ran, ok = k.RunUntil(func() bool { return n >= 5 }, 5)
	if !ok {
		t.Fatal("predicate satisfied exactly at the horizon must report done")
	}
	if ran != 5 || n != 5 {
		t.Fatalf("ran=%d ticks=%d, want 5/5", ran, n)
	}
}

// toggler is an activity-tracked component: it works for burst ticks after
// every wake, then reports quiescence.
type toggler struct {
	pending int
	ticks   int
}

func (c *toggler) Tick(Cycle) {
	if c.pending > 0 {
		c.pending--
		c.ticks++
	}
}
func (c *toggler) Quiescent() bool { return c.pending == 0 }

func TestKernelSkipsQuiescentComponents(t *testing.T) {
	k := NewKernel()
	c := &toggler{pending: 3}
	w := k.Add(c)
	k.Run(10)
	if c.ticks != 3 {
		t.Fatalf("component worked %d ticks, want its 3-cycle burst", c.ticks)
	}
	if k.ActiveCount() != 0 {
		t.Fatalf("%d components awake after quiescence", k.ActiveCount())
	}
	// A quiescent component must not be ticked at all (the skip is what
	// the activity tracker buys): 1 registered component x 10 cycles
	// would be 10 ticks dense; quiescence is re-checked after every tick,
	// so the 3-cycle burst costs exactly 3 executed ticks.
	if got := k.Ticks(); got != 3 {
		t.Fatalf("kernel executed %d component ticks, want 3", got)
	}

	w.Wake()
	c.pending = 2
	k.Run(5)
	if c.ticks != 5 {
		t.Fatalf("woken component worked %d ticks total, want 5", c.ticks)
	}
}

// The zero Waker is a no-op so components can run outside a kernel.
func TestZeroWakerIsNoop(t *testing.T) {
	var w Waker
	w.Wake()
}

// Dense mode must tick everything every cycle and still produce the same
// component-visible behaviour.
func TestDenseModeTicksEverything(t *testing.T) {
	k := NewKernel()
	k.SetDense(true)
	c := &toggler{pending: 3}
	k.Add(c)
	k.Run(10)
	if c.ticks != 3 {
		t.Fatalf("dense component worked %d ticks, want 3", c.ticks)
	}
	if got := k.Ticks(); got != 10 {
		t.Fatalf("dense kernel executed %d ticks, want 10", got)
	}
}

// A sharded kernel must execute the same component ticks as the sequential
// engine: same per-component work, same executed-tick total, and the same
// quiescence state afterwards.
func TestShardedKernelMatchesSequential(t *testing.T) {
	build := func(k *Kernel, shards int) []*toggler {
		cs := make([]*toggler, 6)
		for i := range cs {
			if shards > 1 {
				k.SetShard(i * shards / len(cs))
			}
			// Uneven bursts so the shards finish draining at different
			// cycles and the skip accounting is exercised.
			cs[i] = &toggler{pending: (i*3)%5 + 1}
			k.Add(cs[i])
		}
		return cs
	}
	seq := NewKernel()
	ref := build(seq, 1)
	seq.Run(8)

	for _, shards := range []int{2, 3} {
		par := NewKernel()
		par.SetShards(shards)
		got := build(par, shards)
		par.Run(8)
		par.Close()
		for i := range ref {
			if got[i].ticks != ref[i].ticks {
				t.Fatalf("shards=%d: component %d worked %d ticks, sequential worked %d",
					shards, i, got[i].ticks, ref[i].ticks)
			}
		}
		if par.Ticks() != seq.Ticks() {
			t.Fatalf("shards=%d: kernel executed %d ticks, sequential executed %d",
				shards, par.Ticks(), seq.Ticks())
		}
		if par.ActiveCount() != seq.ActiveCount() {
			t.Fatalf("shards=%d: %d components awake, sequential has %d",
				shards, par.ActiveCount(), seq.ActiveCount())
		}
	}
}

// Epilogues run once per Step with the pre-advance cycle value, in every
// engine mode — they are where the circuit layer's deferred operations and
// the network's boundary flushes live, so a mode that skipped them would
// diverge from the sequential engine.
func TestEpilogueRunsEveryCycleInAllModes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		dense  bool
	}{{"sequential", 1, false}, {"dense", 1, true}, {"sharded", 2, false}} {
		k := NewKernel()
		k.SetShards(tc.shards)
		k.SetDense(tc.dense)
		var seen []Cycle
		k.AddEpilogue(func(now Cycle) { seen = append(seen, now) })
		k.Add(&toggler{pending: 1})
		k.SetShard(tc.shards - 1)
		k.Add(&toggler{pending: 1})
		k.Run(4)
		k.Close()
		if len(seen) != 4 {
			t.Fatalf("%s: epilogue ran %d times over 4 cycles", tc.name, len(seen))
		}
		for i, c := range seen {
			if c != Cycle(i) {
				t.Fatalf("%s: epilogue saw cycle %d at step %d", tc.name, c, i)
			}
		}
	}
}

// The sharded kernel seals its component set at the first Step; a late
// registration would silently miss the prepared step plans, so it panics
// instead. Close is idempotent and a no-op on a sequential kernel.
func TestShardedKernelSealsAndCloses(t *testing.T) {
	k := NewKernel()
	k.SetShards(2)
	k.Add(&toggler{pending: 1})
	k.SetShard(1)
	k.Add(&toggler{pending: 1})
	k.Step()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("registering after the sharded kernel stepped must panic")
			}
		}()
		k.Add(&toggler{})
	}()
	k.Close()
	k.Close() // idempotent

	seq := NewKernel()
	seq.Add(&toggler{})
	seq.Close() // no workers to stop; must not block or panic
	seq.Close()
}
