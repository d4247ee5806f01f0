package verify

import (
	"strings"
	"testing"

	"reactivenoc/internal/coherence"
	"reactivenoc/internal/core"
	"reactivenoc/internal/mesh"
)

const line = 0x1000

// newPrefilledSuite builds an idle 2x2 baseline chip whose tile 0 holds
// line exclusively, and a suite over it whose first check has passed.
func newPrefilledSuite(t *testing.T) (*coherence.System, *Suite) {
	t.Helper()
	sys := coherence.NewSystem(mesh.New(2, 2), core.Options{}, 4)
	sys.Prefill(line, 0, true)
	s := NewSuite(Config{Sys: sys})
	if v := s.Check(0); v != nil {
		t.Fatalf("clean chip: %v", v)
	}
	return sys, s
}

// TestCheckReportsDoubleWriter: a second exclusive copy of a line is a
// violation of the coherence oracle that names both holders.
func TestCheckReportsDoubleWriter(t *testing.T) {
	sys, s := newPrefilledSuite(t)
	sys.Prefill(line, 1, true) // tile 1 gains E; tile 0 keeps its copy
	v := s.Check(1)
	if v == nil || v.Oracle != "coherence" {
		t.Fatalf("got %v, want a coherence violation", v)
	}
	if !strings.Contains(v.Msg, "tile 0 and tile 1") {
		t.Fatalf("violation does not name both holders: %v", v)
	}
}

// TestCheckQuiescentCatchesUntrackedWrite: an L1 state write that bypasses
// the controller leaves the single-writer tracker out of step with the
// caches, and the end-of-run audit fails under the coherence oracle.
func TestCheckQuiescentCatchesUntrackedWrite(t *testing.T) {
	sys, s := newPrefilledSuite(t)
	if v := s.CheckQuiescent(0); v != nil {
		t.Fatalf("clean chip: %v", v)
	}
	sys.L1s[0].Cache().Invalidate(line)
	if v := s.CheckQuiescent(1); v == nil || v.Oracle != "coherence" {
		t.Fatalf("got %v, want a coherence violation", v)
	}
}
