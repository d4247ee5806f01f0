package cache

import (
	"math/bits"
	"math/rand"
	"testing"
)

// dense is the reference model for the lazily allocated Cache: every way of
// every set allocated up front in one backing array, as the cache was laid
// out before ways were allocated on first use. It shares only the PLRU tree
// code with Cache.
type dense struct {
	cfg      Config
	sets     []denseSet
	setShift uint
	setMask  uint64
	div, rem uint64

	Hits, Misses, Evictions int64
}

type denseSet struct {
	set
	lines []Line
}

func newDense(cfg Config) *dense {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	d := &dense{cfg: cfg, sets: make([]denseSet, cfg.Sets())}
	backing := make([]Line, cfg.Sets()*cfg.Ways)
	for i := range backing {
		backing[i].Owner = -1
	}
	for i := range d.sets {
		d.sets[i].lines = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	d.setShift = uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	d.setMask = uint64(cfg.Sets() - 1)
	d.div = 1
	if cfg.Interleave > 1 {
		d.div, d.rem = uint64(cfg.Interleave), uint64(cfg.InterleaveIndex)
	}
	return d
}

func (d *dense) localLine(a Addr) uint64 { return (a >> d.setShift) / d.div }
func (d *dense) index(a Addr) int        { return int(d.localLine(a) & d.setMask) }
func (d *dense) tag(a Addr) uint64 {
	return d.localLine(a) >> uint(bits.TrailingZeros(uint(d.cfg.Sets())))
}

func (d *dense) Lookup(a Addr) (*Line, bool) {
	s := &d.sets[d.index(a)]
	t := d.tag(a)
	for w := range s.lines {
		if s.lines[w].Valid && s.lines[w].Tag == t {
			d.Hits++
			s.touch(w, d.cfg.Ways)
			return &s.lines[w], true
		}
	}
	d.Misses++
	return nil, false
}

func (d *dense) Peek(a Addr) (*Line, bool) {
	s := &d.sets[d.index(a)]
	t := d.tag(a)
	for w := range s.lines {
		if s.lines[w].Valid && s.lines[w].Tag == t {
			return &s.lines[w], true
		}
	}
	return nil, false
}

func (d *dense) Victim(a Addr) *Line {
	s := &d.sets[d.index(a)]
	for w := range s.lines {
		if !s.lines[w].Valid && !s.lines[w].Busy {
			return &s.lines[w]
		}
	}
	w := s.plruVictim(d.cfg.Ways)
	if !s.lines[w].Busy {
		return &s.lines[w]
	}
	for w := range s.lines {
		if !s.lines[w].Busy {
			return &s.lines[w]
		}
	}
	return nil
}

func (d *dense) Fill(l *Line, a Addr, state uint8) {
	if l.Valid {
		d.Evictions++
	}
	*l = Line{Valid: true, Tag: d.tag(a), State: state, Owner: -1}
	s := &d.sets[d.index(a)]
	for w := range s.lines {
		if &s.lines[w] == l {
			s.touch(w, d.cfg.Ways)
			return
		}
	}
	panic("dense: Fill with a line from another set")
}

func (d *dense) Walk(fn func(a Addr, l *Line)) {
	shift := uint(bits.TrailingZeros(uint(d.cfg.Sets())))
	for idx := range d.sets {
		lines := d.sets[idx].lines
		for w := range lines {
			if l := &lines[w]; l.Valid {
				local := (l.Tag << shift) | uint64(idx)
				fn((local*d.div+d.rem)<<d.setShift, l)
			}
		}
	}
}

func (d *dense) Invalidate(a Addr) {
	if l, ok := d.Peek(a); ok {
		*l = Line{Owner: -1}
	}
}

// wayOf is the way index of l in set idx, or -1 (nil or another set).
func (c *Cache) wayOf(idx int, l *Line) int {
	for w := 0; w < int(c.sets[idx].n); w++ {
		if &c.chunkAt(idx<<c.setChunkShift + w>>c.chunkShift)[w&(c.chunk-1)] == l {
			return w
		}
	}
	return -1
}

func (d *dense) wayOf(idx int, l *Line) int {
	for w := range d.sets[idx].lines {
		if &d.sets[idx].lines[w] == l {
			return w
		}
	}
	return -1
}

type walked struct {
	a Addr
	l Line
}

func walkOf(walk func(func(Addr, *Line))) []walked {
	var out []walked
	walk(func(a Addr, l *Line) { out = append(out, walked{a, *l}) })
	return out
}

// diffGeometries are the geometries the differential test runs on: the
// paper's L1 and one bank of a 4-way interleaved L2, plus shapes whose
// chunk arithmetic differs (one chunk of fewer than four ways, sixteen
// chunks per set, a cache smaller than one slab).
func diffGeometries() []Config {
	bank := L2BankConfig()
	bank.Interleave, bank.InterleaveIndex = 4, 3
	return []Config{
		L1Config(),
		bank,
		{SizeBytes: 1024, Ways: 2, LineBytes: 64, HitLatency: 1},
		{SizeBytes: 64 * 64 * 4, Ways: 64, LineBytes: 64, HitLatency: 1},
		{SizeBytes: 256, Ways: 1, LineBytes: 64, HitLatency: 1},
	}
}

// runDifferential decodes prog three bytes at a time (operation, set, tag)
// and applies each operation to a Cache and a dense reference, failing at
// the first difference in hits, chosen ways, line contents, PLRU bits,
// counters or Walk order. Addresses fall in three sets and twice as many
// tags as ways, so sets fill, evict and run out of unpinned ways.
func runDifferential(t *testing.T, cfg Config, prog []byte) {
	t.Helper()
	c, d := New(cfg), newDense(cfg)
	div, rem := Addr(1), Addr(0)
	if cfg.Interleave > 1 {
		div, rem = Addr(cfg.Interleave), Addr(cfg.InterleaveIndex)
	}
	sets := []int{0, 1, cfg.Sets() - 1}
	type pin struct{ c, d *Line }
	var pins []pin
	same := func(step int, what string, lc, ld *Line) {
		t.Helper()
		if (lc == nil) != (ld == nil) {
			t.Fatalf("step %d %s: cache line %v, dense line %v", step, what, lc != nil, ld != nil)
		}
		if lc == nil {
			return
		}
		if *lc != *ld {
			t.Fatalf("step %d %s: cache line %+v, dense line %+v", step, what, *lc, *ld)
		}
	}
	for step := 0; step+2 < len(prog); step += 3 {
		op, sel, tg := prog[step]%7, prog[step+1], prog[step+2]
		idx := sets[int(sel)%len(sets)]
		local := Addr(int(tg)%(2*cfg.Ways))*Addr(cfg.Sets()) + Addr(idx)
		a := (local*div+rem)*Addr(cfg.LineBytes) + Addr(sel)%Addr(cfg.LineBytes)
		switch op {
		case 0:
			lc, hc := c.Lookup(a)
			ld, hd := d.Lookup(a)
			if hc != hd || c.wayOf(idx, lc) != d.wayOf(idx, ld) {
				t.Fatalf("step %d lookup %#x: hit %v way %d, dense hit %v way %d",
					step, a, hc, c.wayOf(idx, lc), hd, d.wayOf(idx, ld))
			}
			same(step, "lookup", lc, ld)
		case 1:
			lc, _ := c.Peek(a)
			ld, _ := d.Peek(a)
			same(step, "peek", lc, ld)
		case 2, 3:
			vc, vd := c.Victim(a), d.Victim(a)
			if c.wayOf(idx, vc) != d.wayOf(idx, vd) {
				t.Fatalf("step %d victim %#x: way %d, dense way %d",
					step, a, c.wayOf(idx, vc), d.wayOf(idx, vd))
			}
			same(step, "victim", vc, vd)
			if vc == nil {
				break
			}
			if op == 2 {
				c.Fill(vc, a, tg)
				d.Fill(vd, a, tg)
			} else {
				vc.Busy, vd.Busy = true, true
				pins = append(pins, pin{vc, vd})
			}
		case 4:
			c.Invalidate(a)
			d.Invalidate(a)
		case 5:
			if len(pins) > 0 {
				i := int(tg) % len(pins)
				pins[i].c.Busy, pins[i].d.Busy = false, false
				pins = append(pins[:i], pins[i+1:]...)
			}
		case 6:
			lc, _ := c.Peek(a)
			ld, _ := d.Peek(a)
			same(step, "peek", lc, ld)
			if lc != nil {
				lc.Sharers, lc.Owner = uint64(sel)<<8|uint64(tg), int16(tg)
				ld.Sharers, ld.Owner = uint64(sel)<<8|uint64(tg), int16(tg)
			}
		}
		if c.sets[idx].plru != d.sets[idx].plru {
			t.Fatalf("step %d: set %d PLRU %#x, dense %#x", step, idx, c.sets[idx].plru, d.sets[idx].plru)
		}
		if c.Hits != d.Hits || c.Misses != d.Misses || c.Evictions != d.Evictions {
			t.Fatalf("step %d: counters %d/%d/%d, dense %d/%d/%d",
				step, c.Hits, c.Misses, c.Evictions, d.Hits, d.Misses, d.Evictions)
		}
	}
	wc, wd := walkOf(c.Walk), walkOf(d.Walk)
	if len(wc) != len(wd) {
		t.Fatalf("walk visited %d lines, dense %d", len(wc), len(wd))
	}
	for i := range wc {
		if wc[i] != wd[i] {
			t.Fatalf("walk entry %d: %+v, dense %+v", i, wc[i], wd[i])
		}
	}
}

// TestCacheMatchesDense: on seeded random operation sequences, the lazily
// allocated cache is indistinguishable from the dense reference.
func TestCacheMatchesDense(t *testing.T) {
	for _, cfg := range diffGeometries() {
		for seed := int64(1); seed <= 20; seed++ {
			prog := make([]byte, 3*3000)
			rand.New(rand.NewSource(seed)).Read(prog)
			func() {
				defer func() {
					if t.Failed() {
						t.Logf("geometry %+v, seed %d", cfg, seed)
					}
				}()
				runDifferential(t, cfg, prog)
			}()
		}
	}
}

func FuzzCacheMatchesDense(f *testing.F) {
	for geom := range diffGeometries() {
		prog := make([]byte, 3*200)
		rand.New(rand.NewSource(int64(geom))).Read(prog)
		f.Add(uint8(geom), prog)
	}
	f.Fuzz(func(t *testing.T, geom uint8, prog []byte) {
		gs := diffGeometries()
		runDifferential(t, gs[int(geom)%len(gs)], prog)
	})
}
