// Command rcshardscale measures the parallel engine's shard scaling: the
// same run at every requested shard count across three mesh sizes, with
// wall-clock, simulated-cycles-per-second and speedup-vs-sequential per
// cell. It regenerates the shard-scaling table in EXPERIMENTS.md.
//
// Every cell simulates the identical chip — the engine is bit-identical at
// any shard count, which the golden suite and the differential fuzzers
// assert — so the only thing varying across a row is wall-clock time. On a
// single-core host the table therefore records the engine's overhead floor
// (the price of the cycle barrier with no parallelism to pay for it);
// speedup needs GOMAXPROCS ≥ the shard count.
//
// Usage:
//
//	rcshardscale                    # 8x8, 16x16, 32x32 at 1/2/4/8 shards
//	rcshardscale -shards 1,4,16     # custom shard counts
//	rcshardscale -ops 6000          # longer runs (steadier numbers)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"reactivenoc/internal/chip"
	"reactivenoc/internal/config"
	"reactivenoc/internal/workload"
)

func main() { os.Exit(run()) }

func run() int {
	shardList := flag.String("shards", "1,2,4,8", "comma-separated shard counts; each row is normalized to the count-1 run")
	variantName := flag.String("variant", "Complete_NoAck", "mechanism variant to run")
	ops := flag.Int64("ops", 3000, "measured operations per core (halved on the 32x32 mesh)")
	flag.Parse()

	var shards []int
	for _, f := range strings.Split(*shardList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "rcshardscale: bad shard count %q\n", f)
			return 1
		}
		shards = append(shards, n)
	}
	v, ok := config.ByName(*variantName)
	if !ok {
		fmt.Fprintf(os.Stderr, "rcshardscale: unknown variant %q\n", *variantName)
		return 1
	}

	fmt.Printf("host: GOMAXPROCS=%d (speedup saturates there regardless of shard count)\n\n",
		runtime.GOMAXPROCS(0))
	fmt.Printf("%-7s %-7s %10s %9s %11s %9s\n", "mesh", "shards", "cycles", "wall", "kcycles/s", "speedup")
	for _, c := range []config.Chip{
		{Name: "8x8", Width: 8, Height: 8, MCs: 4},
		{Name: "16x16", Width: 16, Height: 16, MCs: 4},
		{Name: "32x32", Width: 32, Height: 32, MCs: 4},
	} {
		cellOps := *ops
		if c.Width >= 32 {
			cellOps /= 2
		}
		var seq float64
		for _, sh := range shards {
			spec := chip.DefaultSpec(c, v, workload.Micro())
			spec.MeasureOps = cellOps
			spec.Shards = sh
			t0 := time.Now()
			r := chip.MustRun(spec)
			wall := time.Since(t0)
			rate := float64(r.SimCycles) / wall.Seconds()
			if seq == 0 {
				seq = rate
			}
			fmt.Printf("%-7s %-7d %10d %8.2fs %11.1f %8.2fx\n",
				c.Name, sh, r.SimCycles, wall.Seconds(), rate/1000, rate/seq)
		}
		fmt.Println()
	}
	return 0
}
