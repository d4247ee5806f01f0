package coherence

import (
	"fmt"

	"reactivenoc/internal/cache"
)

// exclDelta is one L1 state write's change to the number of exclusive (E or
// M) holders of its line: +1 when the tile gains exclusivity, -1 when it
// loses it.
type exclDelta struct {
	addr cache.Addr
	d    int32
}

// writerTracker is the single-writer oracle's state: how many L1s hold each
// line exclusively, kept up to date from the per-tile logs the L1
// controllers append to as their states change. Each tile writes only its
// own log, so the sharded engine's workers never share one; the logs are
// drained at cycle boundaries, when no worker runs.
type writerTracker struct {
	logs  [][]exclDelta        // per tile; L1Ctrl.exclLog points into it
	count map[cache.Addr]int32 // lines with a nonzero count only
}

func isExclusive(state uint8) bool { return state == l1E || state == l1M }

// CheckSingleWriter is the online slice of the coherence audit: at most one
// L1 may hold a line exclusively (E or M) at any cycle boundary, even
// mid-transaction. The remaining AuditCoherence invariants (inclusion,
// directory owner/sharer agreement) are legitimately violated while a
// transfer is in flight and stay quiescent-only; two simultaneous writers
// never are.
//
// The first call arms the oracle: one full scan of the L1s seeds the logs
// with every exclusive copy already held, and from then on every L1 state
// write that gains or loses exclusivity is logged. Each call folds the logs
// into per-line counts of exclusive holders and inspects only the lines
// they name. Counts commute, so the verdict is independent of the order
// the tiles' logs drain in. A violation is reported once, at the first
// boundary it is observed; callers stop the run on it.
func (s *System) CheckSingleWriter() error {
	if s.sw == nil {
		s.armSingleWriter()
	}
	var err error
	s.sw.drain(func(a cache.Addr, n int32) {
		if err == nil && (n < 0 || n > 1) {
			err = s.writerViolation(a, n)
		}
	})
	return err
}

// armSingleWriter starts the L1 logs, seeding each with the lines its
// tile already holds exclusively.
func (s *System) armSingleWriter() {
	t := &writerTracker{logs: make([][]exclDelta, len(s.L1s)), count: map[cache.Addr]int32{}}
	for tile, l1 := range s.L1s {
		l1.exclLog = &t.logs[tile]
		l1.c.Walk(func(a cache.Addr, line *cache.Line) { l1.noteState(a, 0, line.State) })
	}
	s.sw = t
}

// drain applies every tile's log to the counts, then calls visit once per
// log entry with the line's settled count (zero counts are dropped instead)
// and empties the logs.
func (t *writerTracker) drain(visit func(a cache.Addr, n int32)) {
	for _, log := range t.logs {
		for _, e := range log {
			t.count[e.addr] += e.d
		}
	}
	for i, log := range t.logs {
		for _, e := range log {
			if n := t.count[e.addr]; n == 0 {
				delete(t.count, e.addr)
			} else {
				visit(e.addr, n)
			}
		}
		t.logs[i] = log[:0]
	}
}

// writerViolation describes a line whose tracked exclusive-holder count n
// is not 0 or 1. A targeted look-up in every L1 names two holders; if the
// caches disagree with the count, the tracker has drifted from them.
func (s *System) writerViolation(a cache.Addr, n int32) error {
	var holders []int
	for tile, l1 := range s.L1s {
		if line, ok := l1.c.Peek(a); ok && isExclusive(line.State) {
			holders = append(holders, tile)
		}
	}
	if len(holders) != int(n) {
		return fmt.Errorf("coherence: single-writer tracker counts %d exclusive holders of %#x, caches hold %d",
			n, a, len(holders))
	}
	return fmt.Errorf("coherence: %#x held exclusively by both tile %d and tile %d", a, holders[0], holders[1])
}

// trackedWriters settles the tracker and returns its per-line counts for
// AuditCoherence to cross-check against a full scan, or nil when the
// oracle is not armed.
func (s *System) trackedWriters() map[cache.Addr]int32 {
	if s.sw == nil {
		return nil
	}
	s.sw.drain(func(cache.Addr, int32) {})
	return s.sw.count
}
