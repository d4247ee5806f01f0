package coherence

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/sim"
)

// TestSingleWriterOracleFires: a second tile handed an exclusive copy
// through the controller's own fill path is caught at the next check, and
// the report names both holders.
func TestSingleWriterOracleFires(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	if err := b.sys.CheckSingleWriter(); err != nil {
		t.Fatalf("empty system: %v", err)
	}
	addr := b.remoteAddr(3, 0)
	b.access(0, addr, true) // tile 0 takes M through the protocol
	b.drain()
	if err := b.sys.CheckSingleWriter(); err != nil {
		t.Fatalf("one writer: %v", err)
	}
	b.sys.L1s[1].fill(addr, l1M, b.kernel.Now())
	err := b.sys.CheckSingleWriter()
	if err == nil {
		t.Fatal("second exclusive holder not detected")
	}
	if !strings.Contains(err.Error(), "tile 0 and tile 1") {
		t.Fatalf("report does not name both holders: %v", err)
	}
}

// TestAuditCatchesUntrackedStateWrite: an L1 state write that bypasses
// noteState leaves the tracker out of step with the caches. The end-of-run
// audit reports that even though every other invariant it checks holds.
func TestAuditCatchesUntrackedStateWrite(t *testing.T) {
	b := newTB(t, 2, 2, core.Options{})
	if err := b.sys.CheckSingleWriter(); err != nil {
		t.Fatal(err)
	}
	addr := b.remoteAddr(3, 0)
	b.access(0, addr, true)
	b.drain()
	if err := b.sys.AuditCoherence(); err != nil {
		t.Fatalf("tracker out of step after a clean access: %v", err)
	}
	b.sys.L1s[0].Cache().Invalidate(addr) // not logged
	err := b.sys.AuditCoherence()
	if err == nil || !strings.Contains(err.Error(), "tracker") {
		t.Fatalf("untracked state write not reported: %v", err)
	}
}

// exclusiveScan is the reference the tracker must match: the number of L1s
// holding each line in E or M, by a full scan.
func exclusiveScan(s *System) map[cache.Addr]int32 {
	held := map[cache.Addr]int32{}
	for _, l1 := range s.L1s {
		l1.c.Walk(func(a cache.Addr, line *cache.Line) {
			if isExclusive(line.State) {
				held[a]++
			}
		})
	}
	return held
}

// tileDriver issues random loads and stores from one tile. Registered on
// its tile's shard, like a core, it touches only its own L1.
type tileDriver struct {
	l1   *L1Ctrl
	rng  *sim.RNG
	pool []cache.Addr
	left int
}

func (d *tileDriver) Tick(now sim.Cycle) {
	if d.left == 0 || d.l1.Pending() {
		return
	}
	d.left--
	d.l1.Access(d.pool[d.rng.Intn(len(d.pool))], d.rng.Bool(0.4), now)
}

// TestSingleWriterTrackerMatchesFullScan checks the tracker against a full
// scan at every cycle boundary, for every registered switching policy on
// the sequential engine and on four shards: verdicts and per-line counts
// must agree exactly. Exclusive copies migrate, downgrade, are invalidated
// and are evicted. Under -race the sharded legs also prove the
// per-tile logs are written without a data race.
func TestSingleWriterTrackerMatchesFullScan(t *testing.T) {
	ops := 40
	if testing.Short() {
		ops = 20
	}
	for _, policy := range config.PolicyNames() {
		v, ok := config.VariantForPolicy(policy)
		if !ok {
			t.Fatalf("no registered variant runs policy %s", policy)
		}
		for _, shards := range []int{1, 4} {
			// The ideal mechanism's instant path-walking teardown mutates
			// other tiles mid-phase, so it only runs sequentially.
			if shards > 1 && v.Opts.Mechanism == core.MechIdeal {
				continue
			}
			t.Run(fmt.Sprintf("%s/shards=%d", v.Name, shards), func(t *testing.T) {
				checkTrackerAgainstScan(t, v.Opts, shards, ops)
			})
		}
	}
}

func checkTrackerAgainstScan(t *testing.T, opts core.Options, shards, ops int) {
	m := mesh.New(4, 4)
	sys := NewSystem(m, opts, 4)
	k := sim.NewKernel()
	k.SetShards(shards)
	defer k.Close()
	if shards > 1 {
		sys.SetShards(shards, m.ShardMap(shards))
	}
	sys.Register(k)
	// Each tile mixes a dozen lines every tile shares with seven private
	// ones, all in one L1 set so the L1 evicts its own E/M copies. Four
	// are spread over L2 sets; the other three, like every line a
	// multiple of 1 MiB, share one set of bank 0, which must recall them
	// to make room.
	l1Stride := cache.Addr(cache.L1Config().Sets() * cache.L1Config().LineBytes)
	drivers := make([]*tileDriver, len(sys.L1s))
	for id := range drivers {
		var pool []cache.Addr
		for i := 0; i < 12; i++ {
			pool = append(pool, cache.Addr(i*64))
		}
		for i := 0; i < 4; i++ {
			pool = append(pool, cache.Addr(id+1)<<20+cache.Addr(i+1)*l1Stride)
		}
		for i := 0; i < 3; i++ {
			pool = append(pool, cache.Addr(64+id*3+i)<<20)
		}
		drivers[id] = &tileDriver{l1: sys.L1s[id], rng: sim.NewRNG(uint64(7 + id)), pool: pool, left: ops}
		k.SetShard(m.ShardOf(mesh.NodeID(id), shards))
		k.Register(drivers[id])
	}
	k.SetShard(0)

	checks := 0
	check := func() {
		t.Helper()
		checks++
		err := sys.CheckSingleWriter()
		want := exclusiveScan(sys)
		wantBad := false
		for _, n := range want {
			wantBad = wantBad || n > 1
		}
		if (err != nil) != wantBad {
			t.Fatalf("cycle %d: tracker verdict %v, full scan finds a double writer: %v", k.Now(), err, wantBad)
		}
		if !maps.Equal(sys.sw.count, want) {
			t.Fatalf("cycle %d: tracker counts %d lines, full scan %d", k.Now(), len(sys.sw.count), len(want))
		}
	}
	done := func() bool {
		for _, d := range drivers {
			if d.left > 0 {
				return false
			}
		}
		return !sys.Busy()
	}
	check()
	for !done() {
		if k.Now() > 200000 {
			t.Fatal("traffic did not drain")
		}
		k.Step()
		check()
	}
	// The coherence audit, not AuditQuiescent: this traffic also trips a
	// known circuit leak when a bank refetches a line it has just written
	// back, which is a defect of the circuit layer, not of this tracker.
	if err := sys.AuditCoherence(); err != nil {
		t.Fatalf("final audit after %d checks: %v", checks, err)
	}
}
