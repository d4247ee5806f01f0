package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/cpu"
)

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]jsonMetric
}

// runTiny runs one workload at the tiny size and parses its JSON line.
func runTiny(t *testing.T, b bench, seed uint64, trace bool) (result, string) {
	t.Helper()
	var log, out bytes.Buffer
	rep := runBench(b, options{seed: seed, trace: trace, traceDir: t.TempDir(), sz: tiny}, &log)
	rep.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	return r, log.String() + out.String()
}

// benchmarkFile is the parts of BENCHMARK.json the driver's tables mirror.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the driver reports %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the driver %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
	if len(f.Workloads) != len(benches) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver has %d", len(f.Workloads), len(benches))
	}
	for i, b := range benches {
		if f.Workloads[i].Name != b.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the driver %s", i, f.Workloads[i].Name, b.name)
		}
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at the tiny size,
// untraced and traced, and checks every named metric comes out with its
// unit and the output checks pass.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, b := range benches {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			r, out := runTiny(t, b, 3, trace)
			if !r.Correct || r.Attempted < 1 || r.Failed > r.Attempted {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", b.name, trace, r.Correct, r.Attempted, r.Failed, out)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", b.name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", b.name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if r.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", b.name, d.name, r.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestSeedChangesInputs checks the seed argument reaches the generated
// inputs: the instruction streams every core executes.
func TestSeedChangesInputs(t *testing.T) {
	ops := func(spec chip.Spec) []cpu.Op {
		s := spec.Workload.StreamGeom(0, spec.Chip.Width, spec.Chip.Height, spec.Seed)
		out := make([]cpu.Op, 500)
		for i := range out {
			out[i] = s.Next()
		}
		return out
	}
	for _, b := range benches {
		s1, s2 := b.spec(1, full), b.spec(2, full)
		if slices.Equal(ops(s1), ops(s2)) {
			t.Errorf("%s: seeds 1 and 2 generate the same instruction stream", b.name)
		}
		if !slices.Equal(ops(s1), ops(b.spec(1, full))) {
			t.Errorf("%s: seed 1 does not reproduce its instruction stream", b.name)
		}
		if b.sweep != nil {
			if p := b.sweep(2, full); p.scale.Seed != 2 {
				t.Errorf("%s: sweep seed %d, want 2", b.name, p.scale.Seed)
			}
		}
	}
}

// TestTracedCheckFiresOnDifferentSeeds gives the traced passes a different
// seed from the untraced run: the equality check must report it.
func TestTracedCheckFiresOnDifferentSeeds(t *testing.T) {
	b, _ := benchByName("canneal64_noack")
	ref, err := chip.Run(b.spec(1, tiny))
	if err != nil {
		t.Fatal(err)
	}
	want := outputsOf(ref)
	tr := newTracer()
	same, err := trackedPass(b.spec(1, tiny), tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := same.out.diff(want); err != nil {
		t.Fatalf("tracked pass with the same seed differs: %v", err)
	}
	a, err := trackedPass(b.spec(2, tiny), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.out.diff(want) == nil {
		t.Error("tracked pass with another seed passed the equality check")
	}
	c, err := classPass(b.spec(2, tiny), tr)
	if err != nil {
		t.Fatal(err)
	}
	if c.out.diff(want) == nil {
		t.Error("class pass with another seed passed the equality check")
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1"}, &out, &errs); code == 0 {
		t.Errorf("exit code 0 for an unknown workload")
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %s", out.String())
	}
}
