// Traffic map: render per-router link utilization on the 64-node mesh as
// an ASCII heat map, baseline vs complete Reactive Circuits. The map makes
// two things visible at once: the XY/YX dimension-order hot rows/columns
// around the four memory-controller tiles, and how little the circuit
// mechanism changes *where* traffic flows (it changes how fast replies
// cross each router, not their paths).
//
// Results carries chip-wide totals only, so this example builds the
// machine with chip.Build, runs it, and then reads each router's
// forwarded-flit counters straight off the machine's network.
package main

import (
	"context"
	"fmt"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/mesh"
	"reactivenoc/internal/workload"
)

func main() {
	c := config.Chip64()
	w, _ := workload.ByName("canneal")
	fmt.Printf("link utilization heat map: %s on the %s chip\n", w.Name, c.Name)

	for _, name := range []string{"Baseline", "Complete_NoAck"} {
		v, _ := config.ByName(name)
		spec := chip.DefaultSpec(c, v, w)
		spec.WarmupOps, spec.MeasureOps = 0, 6000
		m, err := chip.Build(spec)
		if err != nil {
			panic(err)
		}
		if err := m.Run(context.Background()); err != nil {
			panic(err)
		}
		res, err := m.Harvest()
		if err != nil {
			panic(err)
		}

		// Per-router total forwarded flits, normalized to the hottest.
		msh := m.Sys.M
		heat := make([]int64, msh.Nodes())
		var max int64 = 1
		for id := mesh.NodeID(0); int(id) < msh.Nodes(); id++ {
			r := m.Sys.Net.Router(id)
			var sum int64
			for d := mesh.Dir(0); d < mesh.NumDirs; d++ {
				sum += r.FlitsOut(d)
			}
			heat[id] = sum
			if sum > max {
				max = sum
			}
		}

		fmt.Printf("\n%s (cycles: %d, hottest router forwarded %d flits)\n", name, res.Cycles, max)
		shades := []byte(" .:-=+*#%@")
		for y := 0; y < c.Height; y++ {
			fmt.Print("  ")
			for x := 0; x < c.Width; x++ {
				v := heat[msh.Node(x, y)] * int64(len(shades)-1) / max
				fmt.Printf("%c%c", shades[v], shades[v])
			}
			fmt.Println()
		}
	}
	fmt.Println("\nthe dimension-order hot spots (memory-controller rows/columns) persist;")
	fmt.Println("circuits change per-hop latency, not paths — so the map barely moves")
}
