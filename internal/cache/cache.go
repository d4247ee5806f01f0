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
// protocol; Sharers and Owner embed the directory for L2 banks.
type Line struct {
	Valid bool
	Tag   uint64
	State uint8
	// Busy marks lines pinned by an in-flight transaction; the victim
	// picker never selects them.
	Busy bool

	// Directory payload (L2 banks only): bit i of Sharers set means tile
	// i's L1 holds the line in shared state; Owner >= 0 names the tile
	// holding it exclusively.
	Sharers uint64
	Owner   int16
}

type set struct {
	lines []Line
	// plru is the tree-PLRU bit vector: bit i is the direction flag of
	// internal node i (0 = left subtree is older).
	plru uint64
}

// Cache is one set-associative array.
type Cache struct {
	cfg      Config
	sets     []set
	setShift uint
	setMask  uint64
	div      uint64 // interleave divisor (1 for private caches)
	rem      uint64 // this bank's residue

	// Access statistics.
	Hits, Misses, Evictions int64
}

// New builds a cache; it panics on invalid geometry (configs are static).
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg}
	c.sets = make([]set, cfg.Sets())
	// All sets share one backing array: building a chip instantiates
	// thousands of sets, and a per-set make dominated construction cost.
	backing := make([]Line, cfg.Sets()*cfg.Ways)
	// Seed Owner = -1 by doubling copies: memmove beats a per-line loop on
	// the quarter-million lines a 64-tile chip instantiates.
	backing[0].Owner = -1
	for i := 1; i < len(backing); i *= 2 {
		copy(backing[i:], backing[:i])
	}
	for i := range c.sets {
		c.sets[i].lines = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.setShift = uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	c.setMask = uint64(cfg.Sets() - 1)
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

func (c *Cache) index(a Addr) int { return int(c.localLine(a) & c.setMask) }
func (c *Cache) tag(a Addr) uint64 {
	return c.localLine(a) >> uint(bits.TrailingZeros(uint(c.cfg.Sets())))
}

// Lookup returns the line holding a, touching PLRU state and hit counters.
func (c *Cache) Lookup(a Addr) (*Line, bool) {
	s := &c.sets[c.index(a)]
	t := c.tag(a)
	for w := range s.lines {
		if s.lines[w].Valid && s.lines[w].Tag == t {
			c.Hits++
			s.touch(w, c.cfg.Ways)
			return &s.lines[w], true
		}
	}
	c.Misses++
	return nil, false
}

// Peek returns the line holding a without touching replacement state or
// counters (used by snoop-style lookups: invalidations, forwards).
func (c *Cache) Peek(a Addr) (*Line, bool) {
	s := &c.sets[c.index(a)]
	t := c.tag(a)
	for w := range s.lines {
		if s.lines[w].Valid && s.lines[w].Tag == t {
			return &s.lines[w], true
		}
	}
	return nil, false
}

// Victim picks the fill way for address a: an invalid way if one exists,
// else the tree-PLRU victim among non-busy lines. It returns nil when every
// way is pinned by an in-flight transaction.
func (c *Cache) Victim(a Addr) *Line {
	s := &c.sets[c.index(a)]
	for w := range s.lines {
		if !s.lines[w].Valid && !s.lines[w].Busy {
			return &s.lines[w]
		}
	}
	w := s.plruVictim(c.cfg.Ways)
	if !s.lines[w].Busy {
		return &s.lines[w]
	}
	// The PLRU choice is pinned: fall back to any non-busy way.
	for w := range s.lines {
		if !s.lines[w].Busy {
			return &s.lines[w]
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
	s := &c.sets[c.index(a)]
	for w := range s.lines {
		if &s.lines[w] == l {
			s.touch(w, c.cfg.Ways)
			return
		}
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
	shift := uint(bits.TrailingZeros(uint(c.cfg.Sets())))
	local := (t << shift) | uint64(idx)
	return (local*c.div + c.rem) << c.setShift
}

// Walk calls fn with the block address of every valid line, set by set
// and way by way, for invariant checkers. fn may modify the line but must
// not retain the pointer; the walk itself does not allocate.
func (c *Cache) Walk(fn func(a Addr, l *Line)) {
	for idx := range c.sets {
		lines := c.sets[idx].lines
		for w := range lines {
			if l := &lines[w]; l.Valid {
				fn(c.addrAt(l.Tag, idx), l)
			}
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
