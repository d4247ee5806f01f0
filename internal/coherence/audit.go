package coherence

import (
	"fmt"

	"reactivenoc/internal/cache"
	"reactivenoc/internal/sim"
)

// AuditCoherence verifies the protocol's steady-state invariants across
// every cache and directory: inclusion (an L1 line is present in its home
// bank), ownership (a directory owner actually holds the line exclusively),
// sharer soundness (an L1 shared copy has its directory record) and
// single-writer (at most one exclusive copy, never alongside others).
// Once the single-writer oracle is armed, its per-line counts must also
// equal this scan's. It may be called at any quiescent point.
func (s *System) AuditCoherence() error {
	type copies struct{ all, exclusive int32 }
	held := map[cache.Addr]copies{}
	var err error
	for tile, l1 := range s.L1s {
		l1.c.Walk(func(a cache.Addr, line *cache.Line) {
			if err == nil {
				err = s.auditL1Copy(tile, a, line.State)
			}
			c := held[a]
			c.all++
			if isExclusive(line.State) {
				c.exclusive++
			}
			held[a] = c
		})
		if err != nil {
			return err
		}
	}
	tracked := s.trackedWriters()
	exclusiveLines := 0
	for a, c := range held {
		if c.exclusive > 1 {
			return fmt.Errorf("coherence: %#x has %d exclusive holders", a, c.exclusive)
		}
		if tracked != nil && tracked[a] != c.exclusive {
			return fmt.Errorf("coherence: single-writer tracker counts %d exclusive holders of %#x, caches hold %d",
				tracked[a], a, c.exclusive)
		}
		if c.exclusive == 1 {
			exclusiveLines++
			if c.all > 1 {
				return fmt.Errorf("coherence: %#x: exclusive copy coexists with %d other copies", a, c.all)
			}
		}
	}
	if tracked != nil && len(tracked) != exclusiveLines {
		return fmt.Errorf("coherence: single-writer tracker counts %d exclusively held lines, caches hold %d",
			len(tracked), exclusiveLines)
	}
	return nil
}

// auditL1Copy checks one L1 copy against its home bank: the bank holds the
// line, and its directory names the tile as owner of an E/M copy, or as
// owner or sharer of an S copy.
func (s *System) auditL1Copy(tile int, a cache.Addr, state uint8) error {
	home := s.HomeBank(a)
	l2line, ok := s.L2s[home].c.Peek(a)
	if !ok {
		return fmt.Errorf("coherence: inclusion violated: %#x cached in L1 but absent from bank %d", a, home)
	}
	switch state {
	case l1M, l1E:
		if int(l2line.Owner) != tile {
			return fmt.Errorf("coherence: %#x: tile %d holds E/M but directory owner is %d", a, tile, l2line.Owner)
		}
	case l1S:
		if l2line.Sharers&(1<<uint(tile)) == 0 && int(l2line.Owner) != tile {
			return fmt.Errorf("coherence: %#x: tile %d holds S without a directory record", a, tile)
		}
	}
	return nil
}

// AuditQuiescent runs every layer's leak and conservation audit: the
// protocol controllers, the network and — when circuits are enabled — the
// mechanism state. The system must be idle.
func (s *System) AuditQuiescent(now sim.Cycle) error {
	if s.Busy() {
		return fmt.Errorf("coherence: audit requires an idle system")
	}
	for i := range s.L1s {
		if s.L1s[i].txn != nil {
			return fmt.Errorf("coherence: L1 %d retains a transaction", i)
		}
		if n := len(s.L1s[i].wb); n != 0 {
			return fmt.Errorf("coherence: L1 %d retains %d write-back entries", i, n)
		}
		if n := len(s.L2s[i].txns); n != 0 {
			return fmt.Errorf("coherence: L2 %d retains %d blocked lines", i, n)
		}
		for a, q := range s.L2s[i].waiting {
			if len(q) != 0 {
				return fmt.Errorf("coherence: L2 %d retains %d queued requests for %#x", i, len(q), a)
			}
		}
	}
	if err := s.AuditCoherence(); err != nil {
		return err
	}
	if err := s.Net.AuditQuiescent(); err != nil {
		return err
	}
	if s.Mgr != nil {
		if err := s.Mgr.AuditQuiescent(now); err != nil {
			return err
		}
	}
	return nil
}
