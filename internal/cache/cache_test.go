package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func small() Config {
	return Config{SizeBytes: 1024, Ways: 4, LineBytes: 64, HitLatency: 2}
}

func TestGeometry(t *testing.T) {
	l1 := L1Config()
	if l1.Sets() != 128 {
		t.Fatalf("L1 sets %d, want 128", l1.Sets())
	}
	l2 := L2BankConfig()
	if l2.Sets() != 1024 {
		t.Fatalf("L2 sets %d, want 1024", l2.Sets())
	}
	if l1.Block(0x12345) != 0x12340 {
		t.Fatalf("Block alignment wrong: %#x", l1.Block(0x12345))
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 4, LineBytes: 64},
		{SizeBytes: 1024, Ways: 3, LineBytes: 64},
		{SizeBytes: 1000, Ways: 4, LineBytes: 64},
		{SizeBytes: 1024, Ways: 4, LineBytes: 48},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted: %+v", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(small())
	if _, ok := c.Lookup(0x1000); ok {
		t.Fatal("empty cache hit")
	}
	v := c.Victim(0x1000)
	if v == nil || v.Valid {
		t.Fatal("no invalid victim in an empty set")
	}
	c.Fill(v, 0x1000, 2)
	l, ok := c.Lookup(0x1000)
	if !ok || l.State != 2 {
		t.Fatal("fill not visible")
	}
	// Same line, different byte offset.
	if _, ok := c.Lookup(0x103f); !ok {
		t.Fatal("offset within the line missed")
	}
	// Different line.
	if _, ok := c.Lookup(0x1040); ok {
		t.Fatal("neighbouring line hit")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits/misses %d/%d, want 2/2", c.Hits, c.Misses)
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	c := New(small())
	v := c.Victim(0x40)
	c.Fill(v, 0x40, 1)
	h, m := c.Hits, c.Misses
	if _, ok := c.Peek(0x40); !ok {
		t.Fatal("peek missed")
	}
	if _, ok := c.Peek(0x80); ok {
		t.Fatal("peek hit a missing line")
	}
	if c.Hits != h || c.Misses != m {
		t.Fatal("peek changed counters")
	}
}

// conflictAddrs returns n addresses mapping to the same set.
func conflictAddrs(c *Cache, n int) []Addr {
	stride := Addr(c.cfg.Sets() * c.cfg.LineBytes)
	out := make([]Addr, n)
	for i := range out {
		out[i] = Addr(i+1) * stride
	}
	return out
}

func TestPLRUEvictsColdLine(t *testing.T) {
	c := New(small())
	addrs := conflictAddrs(c, 5)
	for _, a := range addrs[:4] {
		c.Fill(c.Victim(a), a, 1)
	}
	// Touch all but addrs[0]; it becomes the PLRU victim.
	for _, a := range addrs[1:4] {
		if _, ok := c.Lookup(a); !ok {
			t.Fatal("expected hit")
		}
	}
	v := c.Victim(addrs[4])
	if got := c.AddrOf(v, addrs[4]); got != addrs[0] {
		t.Fatalf("PLRU victim %#x, want cold line %#x", got, addrs[0])
	}
	c.Fill(v, addrs[4], 1)
	if _, ok := c.Lookup(addrs[0]); ok {
		t.Fatal("evicted line still present")
	}
	if c.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", c.Evictions)
	}
}

func TestBusyLinesNotVictimized(t *testing.T) {
	c := New(small())
	addrs := conflictAddrs(c, 4)
	for _, a := range addrs {
		c.Fill(c.Victim(a), a, 1)
	}
	for _, a := range addrs[:3] {
		l, _ := c.Peek(a)
		l.Busy = true
	}
	v := c.Victim(Addr(5 * c.cfg.Sets() * c.cfg.LineBytes))
	if v == nil {
		t.Fatal("one way is free; victim must exist")
	}
	if got := c.AddrOf(v, addrs[3]); got != addrs[3] {
		t.Fatalf("victim %#x, want the only non-busy line %#x", got, addrs[3])
	}
	l, _ := c.Peek(addrs[3])
	l.Busy = true
	if c.Victim(Addr(5*c.cfg.Sets()*c.cfg.LineBytes)) != nil {
		t.Fatal("all ways busy: victim must be nil")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(small())
	c.Fill(c.Victim(0x40), 0x40, 3)
	c.Invalidate(0x40)
	if _, ok := c.Peek(0x40); ok {
		t.Fatal("line survived invalidation")
	}
	c.Invalidate(0x9999940) // absent: no-op
}

func TestAddrOfRoundTrip(t *testing.T) {
	c := New(L1Config())
	check := func(raw uint32) bool {
		a := Addr(raw) &^ 63
		v := c.Victim(a)
		if v == nil {
			return true
		}
		c.Fill(v, a, 1)
		return c.AddrOf(v, a) == a
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestWalkVisitsValidLines: Walk reports exactly the filled lines at their
// own addresses, on a private cache and on one bank of an interleaved L2,
// and never allocates.
func TestWalkVisitsValidLines(t *testing.T) {
	bank := L2BankConfig()
	bank.Interleave, bank.InterleaveIndex = 4, 3
	for _, cfg := range []Config{L1Config(), bank} {
		c := New(cfg)
		want := map[Addr]bool{}
		for i := 0; i < 300; i++ {
			a := (Addr(i)*7919*4 + 3) * 64 // bank residue 3
			if v := c.Victim(a); v != nil {
				if v.Valid {
					delete(want, c.AddrOf(v, a))
				}
				c.Fill(v, a, 1)
				want[a] = true
			}
		}
		c.Invalidate(3 * 64)
		delete(want, 3*64)
		got := map[Addr]bool{}
		c.Walk(func(a Addr, l *Line) {
			if !l.Valid || got[a] {
				t.Fatalf("walk visited %#x twice or invalid", a)
			}
			got[a] = true
		})
		if len(got) != len(want) {
			t.Fatalf("walk visited %d lines, want %d", len(got), len(want))
		}
		for a := range want {
			if !got[a] {
				t.Fatalf("walk missed %#x", a)
			}
		}
		n := 0
		if allocs := testing.AllocsPerRun(5, func() { c.Walk(func(Addr, *Line) { n++ }) }); allocs != 0 {
			t.Fatalf("walk allocated %v times per run", allocs)
		}
	}
}

func TestDirectoryFieldsResetOnFill(t *testing.T) {
	c := New(small())
	addrs := conflictAddrs(c, 5)
	for _, a := range addrs[:4] {
		c.Fill(c.Victim(a), a, 1)
	}
	l, _ := c.Peek(addrs[0])
	l.Sharers = 0xff
	l.Owner = 3
	// Evict through the same set; the reused way must come back clean.
	for i := 0; i < 4; i++ {
		v := c.Victim(addrs[4])
		c.Fill(v, addrs[4]+Addr(i)*64*Addr(c.cfg.Sets()), 1)
		if v.Sharers != 0 || v.Owner != -1 {
			t.Fatal("directory fields not reset on fill")
		}
	}
}

// TestPLRUFullCoverage: filling W conflicting lines and touching them in
// order, repeated evictions must cycle through all ways rather than
// thrashing one.
func TestPLRUCyclesAllWays(t *testing.T) {
	c := New(small())
	addrs := conflictAddrs(c, 12)
	seen := map[Addr]bool{}
	for _, a := range addrs {
		v := c.Victim(a)
		if v.Valid {
			seen[c.AddrOf(v, a)] = true
		}
		c.Fill(v, a, 1)
	}
	if len(seen) < 4 {
		t.Fatalf("PLRU evicted only %d distinct lines over 8 evictions", len(seen))
	}
}

func TestSixteenWayPLRU(t *testing.T) {
	c := New(L2BankConfig())
	stride := Addr(c.cfg.Sets() * c.cfg.LineBytes)
	for i := 0; i < 16; i++ {
		a := Addr(i+1) * stride
		c.Fill(c.Victim(a), a, 1)
	}
	// All 16 resident.
	for i := 0; i < 16; i++ {
		if _, ok := c.Lookup(Addr(i+1) * stride); !ok {
			t.Fatalf("way %d lost", i)
		}
	}
	// 17th fill evicts exactly one.
	c.Fill(c.Victim(17*stride), 17*stride, 1)
	live := 0
	for i := 0; i < 17; i++ {
		if _, ok := c.Peek(Addr(i+1) * stride); ok {
			live++
		}
	}
	if live != 16 {
		t.Fatalf("%d lines live after 17 fills into one 16-way set", live)
	}
}

// TestLinePointersSurviveChunkAllocation: coherence holds *Line across
// cycles (an L2 transaction's victim), so a line must not move when later
// sets allocate chunks and the cache takes on new slabs.
func TestLinePointersSurviveChunkAllocation(t *testing.T) {
	c := New(L2BankConfig())
	const a = 0x40
	held := c.Victim(a)
	c.Fill(held, a, 1)
	slabs := len(c.slabs)
	for i := 0; i < 4*c.cfg.Sets(); i++ {
		b := Addr(i) * 64
		if b == a {
			continue
		}
		if _, ok := c.Peek(b); !ok {
			c.Fill(c.Victim(b), b, 2)
		}
	}
	if len(c.slabs) <= slabs {
		t.Fatalf("%d slabs after filling every set, %d before: nothing allocated", len(c.slabs), slabs)
	}
	held.Owner = 7
	l, ok := c.Peek(a)
	if !ok || l != held || l.Owner != 7 {
		t.Fatalf("Peek(%#x) = %p (ok %v), held pointer %p", a, l, ok, held)
	}
}

// TestLineIs24Bytes pins Line's packing: a 256-core chip holds millions of
// lines, and a field added in the wrong place grows each by 8 bytes.
func TestLineIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 24 {
		t.Fatalf("Line is %d bytes, want 24", n)
	}
}

// TestNoSlabBeforeFirstVictim: building, looking up and invalidating
// allocate no lines; the first Victim allocates exactly one slab.
func TestNoSlabBeforeFirstVictim(t *testing.T) {
	c := New(L2BankConfig())
	c.Lookup(0x40)
	c.Peek(0x80)
	c.Invalidate(0xc0)
	c.Walk(func(Addr, *Line) { t.Fatal("walk visited a line of an empty cache") })
	if len(c.slabs) != 0 {
		t.Fatalf("%d slabs before the first Victim, want 0", len(c.slabs))
	}
	c.Victim(0x40)
	if len(c.slabs) != 1 {
		t.Fatalf("%d slabs after the first Victim, want 1", len(c.slabs))
	}
}

// TestNewChunkLinesHaveNoOwner: every line of a freshly allocated chunk
// reads as an invalid line with no directory owner, as a dense array's
// lines did.
func TestNewChunkLinesHaveNoOwner(t *testing.T) {
	for _, cfg := range []Config{L1Config(), L2BankConfig()} {
		c := New(cfg)
		addrs := conflictAddrs(c, cfg.Ways)
		idx := c.index(addrs[0])
		for i, a := range addrs {
			v := c.Victim(a)
			if i%c.chunk == 0 {
				k := idx<<c.setChunkShift + i>>c.chunkShift
				for j, l := range c.chunkAt(k) {
					if l != (Line{Owner: -1}) {
						t.Fatalf("%d-way cache: new chunk %d line %d is %+v, want Owner -1 and nothing else", cfg.Ways, k, j, l)
					}
				}
			}
			c.Fill(v, a, 1)
		}
	}
}
