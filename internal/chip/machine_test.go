package chip

import (
	"strings"
	"testing"

	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/workload"
)

// metricScopes are the layer prefixes DESIGN §5a documents for registry
// names.
var metricScopes = []string{"core/", "l1/", "l2/", "mem/", "noc/", "circ/", "sys/", "kernel/"}

// Boot every registered policy's machine, then assert its wiring without
// running it: every component registered with the kernel, every metric
// under a documented scope, and the circuit gauge present exactly when a
// circuit manager exists.
func TestMachineWiring(t *testing.T) {
	for _, policy := range config.PolicyNames() {
		v, ok := config.VariantForPolicy(policy)
		if !ok {
			t.Fatalf("policy %s has no registered variant", policy)
		}
		for _, shards := range []int{1, 2} {
			if shards > 1 && v.Opts.Mechanism == core.MechIdeal {
				continue // the ideal mechanism always runs sequentially
			}
			spec := DefaultSpec(config.Chip16(), v, workload.Micro())
			spec.Shards = shards
			m, err := Build(spec)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", policy, shards, err)
			}
			sys := m.Sys
			if got := m.kernel.Shards(); got != shards {
				t.Errorf("%s: kernel runs %d shards, spec asked %d", policy, got, shards)
			}
			nodes := sys.M.Nodes()
			want := nodes + nodes + len(sys.L1s) + len(sys.L2s) + len(sys.MCs) + len(m.cores)
			if got := m.kernel.Components(); got != want {
				t.Errorf("%s shards=%d: kernel has %d components, want %d routers+NIs+L1s+L2s+MCs+cores",
					policy, shards, got, want)
			}
			hasOpen := false
			for _, name := range m.reg.Names() {
				hasOpen = hasOpen || name == "circ/open"
				scoped := false
				for _, s := range metricScopes {
					scoped = scoped || strings.HasPrefix(name, s)
				}
				if !scoped {
					t.Errorf("%s: metric %q has no documented scope", policy, name)
				}
			}
			if hasOpen != (sys.Mgr != nil) {
				t.Errorf("%s: circ/open registered=%v, circuit manager present=%v", policy, hasOpen, sys.Mgr != nil)
			}
		}
	}
}

// The sampler's windows partition the measured phase: ends increase,
// interior windows span SampleEvery, and the per-window counter deltas sum
// to the run's totals.
func TestSeriesWindowsPartitionMeasuredPhase(t *testing.T) {
	spec := DefaultSpec(config.Chip16(), variant(t, "Complete_NoAck"), workload.Micro())
	spec.WarmupOps = 600
	spec.MeasureOps = 2400
	spec.SampleEvery = 512
	r := MustRun(spec)
	if len(r.Series) < 2 {
		t.Fatalf("only %d windows for a multi-thousand-cycle run", len(r.Series))
	}

	var flits, built, prevEnd int64
	for i, w := range r.Series {
		if w.At <= prevEnd {
			t.Fatalf("window ends not increasing: %d after %d", w.At, prevEnd)
		}
		if i < len(r.Series)-1 && w.At-prevEnd != spec.SampleEvery {
			t.Fatalf("interior window %d spans %d cycles, want %d", i, w.At-prevEnd, spec.SampleEvery)
		}
		flits += w.Value("noc/link_flits")
		built += w.Value("circ/built")
		prevEnd = w.At
	}
	if r.Circ == nil || built != r.Circ.CircuitsBuilt {
		t.Fatalf("windowed circuits built %d, run total %+v", built, r.Circ)
	}
	if flits != r.Events.LinkFlits {
		t.Fatalf("windowed link flits %d, run total %d", flits, r.Events.LinkFlits)
	}
}
