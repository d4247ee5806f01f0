// Package cache provides the set-associative cache arrays of the modelled
// chip: 32 KB 4-way L1s and 1 MB 16-way L2 banks with 64-byte lines and
// tree-PLRU replacement (Table 2). The coherence protocol lives in
// internal/coherence; this package only manages tags, state bytes and the
// directory fields embedded in L2 lines ("the directory, which is included
// in the L2 cache bank").
package cache

import (
	"fmt"
	"math/bits"

	"reactivenoc/internal/sim"
)

// Addr is a physical byte address.
type Addr = uint64

// Config describes one cache's geometry. For a bank of an interleaved
// cache, Interleave is the bank count and InterleaveIndex this bank's
// residue: the bank-select bits are stripped before set indexing, so the
// bank's sets see a dense local line space.
type Config struct {
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency sim.Cycle

	Interleave      int
	InterleaveIndex int
}

// L1Config returns the paper's L1 geometry: 32 KB, 4-way, 64 B lines,
// 2-cycle hit.
func L1Config() Config {
	return Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 2}
}

// L2BankConfig returns the paper's per-bank L2 geometry: 1 MB, 16-way,
// 64 B lines, 7-cycle hit.
func L2BankConfig() Config {
	return Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, HitLatency: 7}
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line", c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	if c.Ways&(c.Ways-1) != 0 {
		return fmt.Errorf("cache: way count %d not a power of two", c.Ways)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.Interleave < 0 || (c.Interleave > 1 &&
		(c.InterleaveIndex < 0 || c.InterleaveIndex >= c.Interleave)) {
		return fmt.Errorf("cache: invalid interleave %d/%d", c.InterleaveIndex, c.Interleave)
	}
	return nil
}

// Block returns the line-aligned address containing a.
func (c Config) Block(a Addr) Addr { return a &^ Addr(c.LineBytes-1) }

// Line is one cache line's bookkeeping. State is owned by the coherence
// protocol; Sharers and Owner embed the directory for L2 banks. The field
// order packs a line into 24 bytes.
type Line struct {
	Tag uint64

	// Directory payload (L2 banks only): bit i of Sharers set means tile
	// i's L1 holds the line in shared state; Owner >= 0 names the tile
	// holding it exclusively. Sharers has one bit per tile, so it can
	// record sharers only on tiles 0-63: on a 256-core chip a shared copy
	// on tile 64 or above is neither recorded nor invalidated.
	Sharers uint64
	Owner   int16

	Valid bool
	State uint8
	// Busy marks lines pinned by an in-flight transaction; the victim
	// picker never selects them.
	Busy bool
}

// Ways are allocated lazily, a chunk at a time, from slabs. A slab is a
// fixed-size block of lines that is never moved or grown, so a *Line stays
// valid for the cache's lifetime. Victim prefers the lowest-index invalid
// way, so the ways a set has ever used are a prefix of its ways; an
// unallocated way is therefore indistinguishable from an invalid one, and
// every operation behaves exactly as on a fully allocated array.
const (
	maxChunkWays = 4
	maxSlabShift = 10 // at most 1024 lines (24 KB) per slab
)

// set is one set's record. It holds no pointers, so the GC never scans
// the set array.
type set struct {
	// plru is the tree-PLRU bit vector: bit i is the direction flag of
	// internal node i (0 = left subtree is older).
	plru uint64
	// n is the number of allocated ways, a multiple of the chunk size.
	n int32
}

// Cache is one set-associative array.
type Cache struct {
	cfg      Config
	sets     []set
	setShift uint
	setMask  uint64
	tagShift uint
	div      uint64 // interleave divisor (1 for private caches)
	rem      uint64 // this bank's residue

	// chunk is the ways per chunk (1<<chunkShift). Set i's k-th chunk
	// starts at line offset offs[i<<setChunkShift+k]; offset o lives in
	// slabs[o>>slabShift] at index o&slabMask.
	chunk, chunkShift, setChunkShift int
	offs                             []int32
	slabs                            [][]Line
	slabShift                        uint
	slabMask                         int32
	used                             int32 // lines handed out so far

	// Access statistics.
	Hits, Misses, Evictions int64
}

// New builds a cache; it panics on invalid geometry (configs are static).
// It allocates no lines: each set's ways come into being on first use.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg}
	c.sets = make([]set, cfg.Sets())
	c.chunk = min(maxChunkWays, cfg.Ways)
	c.chunkShift = bits.TrailingZeros(uint(c.chunk))
	c.setChunkShift = bits.TrailingZeros(uint(cfg.Ways / c.chunk))
	c.offs = make([]int32, cfg.Sets()<<c.setChunkShift)
	c.slabShift = uint(min(maxSlabShift, bits.TrailingZeros(uint(cfg.Sets()*cfg.Ways))))
	c.slabMask = 1<<c.slabShift - 1
	// Room for every slab: growing the list never costs an allocation.
	c.slabs = make([][]Line, 0, cfg.Sets()*cfg.Ways>>c.slabShift)
	c.setShift = uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	c.setMask = uint64(cfg.Sets() - 1)
	c.tagShift = uint(bits.TrailingZeros(uint(cfg.Sets())))
	c.div = 1
	if cfg.Interleave > 1 {
		c.div = uint64(cfg.Interleave)
		c.rem = uint64(cfg.InterleaveIndex)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// localLine maps a global address to this bank's dense line number.
func (c *Cache) localLine(a Addr) uint64 { return (a >> c.setShift) / c.div }

func (c *Cache) index(a Addr) int  { return int(c.localLine(a) & c.setMask) }
func (c *Cache) tag(a Addr) uint64 { return c.localLine(a) >> c.tagShift }

// chunkAt returns the lines of the chunk recorded at offs[k].
func (c *Cache) chunkAt(k int) []Line {
	o := c.offs[k]
	i := int(o & c.slabMask)
	return c.slabs[o>>c.slabShift][i : i+c.chunk : i+c.chunk]
}

// find returns the valid line with tag t in set idx and its way.
func (c *Cache) find(idx int, t uint64) (*Line, int) {
	k := idx << c.setChunkShift
	for w := 0; w < int(c.sets[idx].n); w += c.chunk {
		lines := c.chunkAt(k)
		for i := range lines {
			if lines[i].Valid && lines[i].Tag == t {
				return &lines[i], w + i
			}
		}
		k++
	}
	return nil, -1
}

// grow allocates set idx's next chunk of ways and returns it.
func (c *Cache) grow(idx int) []Line {
	if c.used&c.slabMask == 0 {
		c.slabs = append(c.slabs, make([]Line, 1<<c.slabShift))
	}
	s := &c.sets[idx]
	k := idx<<c.setChunkShift + int(s.n)>>c.chunkShift
	c.offs[k] = c.used
	c.used += int32(c.chunk)
	s.n += int32(c.chunk)
	lines := c.chunkAt(k)
	for i := range lines {
		lines[i].Owner = -1
	}
	return lines
}

// Lookup returns the line holding a, touching PLRU state and hit counters.
func (c *Cache) Lookup(a Addr) (*Line, bool) {
	idx := c.index(a)
	if l, w := c.find(idx, c.tag(a)); l != nil {
		c.Hits++
		c.sets[idx].touch(w, c.cfg.Ways)
		return l, true
	}
	c.Misses++
	return nil, false
}

// Peek returns the line holding a without touching replacement state or
// counters (used by snoop-style lookups: invalidations, forwards).
func (c *Cache) Peek(a Addr) (*Line, bool) {
	l, _ := c.find(c.index(a), c.tag(a))
	return l, l != nil
}

// Victim picks the fill way for address a: an invalid way if one exists,
// else the tree-PLRU victim among non-busy lines. It returns nil when every
// way is pinned by an in-flight transaction.
func (c *Cache) Victim(a Addr) *Line {
	idx := c.index(a)
	k0 := idx << c.setChunkShift
	n := int(c.sets[idx].n)
	for k := k0; k < k0+n>>c.chunkShift; k++ {
		lines := c.chunkAt(k)
		for i := range lines {
			if !lines[i].Valid && !lines[i].Busy {
				return &lines[i]
			}
		}
	}
	if n < c.cfg.Ways {
		// Every allocated way is in use; the first unallocated way is
		// the lowest-index invalid one.
		return &c.grow(idx)[0]
	}
	w := c.sets[idx].plruVictim(c.cfg.Ways)
	if l := &c.chunkAt(k0 + w>>c.chunkShift)[w&(c.chunk-1)]; !l.Busy {
		return l
	}
	// The PLRU choice is pinned: fall back to any non-busy way.
	for k := k0; k < k0+n>>c.chunkShift; k++ {
		lines := c.chunkAt(k)
		for i := range lines {
			if !lines[i].Busy {
				return &lines[i]
			}
		}
	}
	return nil
}

// Fill installs address a into the given line (obtained from Victim),
// resetting directory fields and touching PLRU. The caller must have
// handled any eviction first.
func (c *Cache) Fill(l *Line, a Addr, state uint8) {
	if l.Valid {
		c.Evictions++
	}
	*l = Line{Valid: true, Tag: c.tag(a), State: state, Owner: -1}
	idx := c.index(a)
	k := idx << c.setChunkShift
	for w := 0; w < int(c.sets[idx].n); w += c.chunk {
		lines := c.chunkAt(k)
		for i := range lines {
			if &lines[i] == l {
				c.sets[idx].touch(w+i, c.cfg.Ways)
				return
			}
		}
		k++
	}
	panic("cache: Fill with a line from another set")
}

// AddrOf reconstructs the block address stored in line l of the set that
// contains address hint (same index).
func (c *Cache) AddrOf(l *Line, hint Addr) Addr {
	return c.addrAt(l.Tag, c.index(hint))
}

// addrAt is the block address with tag t in set idx.
func (c *Cache) addrAt(t uint64, idx int) Addr {
	local := (t << c.tagShift) | uint64(idx)
	return (local*c.div + c.rem) << c.setShift
}

// Walk calls fn with the block address of every valid line, set by set
// and way by way, for invariant checkers. fn may modify the line but must
// not retain the pointer; the walk itself does not allocate.
func (c *Cache) Walk(fn func(a Addr, l *Line)) {
	for idx := range c.sets {
		k := idx << c.setChunkShift
		for w := 0; w < int(c.sets[idx].n); w += c.chunk {
			lines := c.chunkAt(k)
			for i := range lines {
				if l := &lines[i]; l.Valid {
					fn(c.addrAt(l.Tag, idx), l)
				}
			}
			k++
		}
	}
}

// Invalidate clears the line holding a, if present.
func (c *Cache) Invalidate(a Addr) {
	if l, ok := c.Peek(a); ok {
		*l = Line{Owner: -1}
	}
}

// touch marks way w most recently used in the PLRU tree.
func (s *set) touch(w, ways int) {
	node := 0
	for span := ways; span > 1; {
		span /= 2
		var dir uint64
		if w%(span*2) >= span {
			dir = 1
		}
		// Point the node away from the touched side.
		if dir == 1 {
			s.plru &^= 1 << uint(node)
		} else {
			s.plru |= 1 << uint(node)
		}
		node = node*2 + 1 + int(dir)
	}
}

// plruVictim walks the tree toward the pseudo-least-recently-used way.
func (s *set) plruVictim(ways int) int {
	node, w := 0, 0
	for span := ways; span > 1; {
		span /= 2
		dir := (s.plru >> uint(node)) & 1
		if dir == 1 {
			w += span
		}
		node = node*2 + 1 + int(dir)
	}
	return w
}
