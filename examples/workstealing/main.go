// Work-stealing example: run the paper's Chase-Lev work-stealing-queue
// benchmark (the motivating example of Sections II and IV) across workload
// levels and compare traditional fences with class-scoped S-Fences —
// reproducing one curve of Figure 12 from the public API.
//
//	go run ./examples/workstealing
package main

import (
	"context"
	"fmt"
	"log"

	"sfence"
)

func main() {
	ctx := context.Background()
	cfg := sfence.DefaultConfig()
	fmt.Println("Chase-Lev work-stealing queue: 1 owner + 3 thieves, 120 tasks")
	fmt.Printf("%-10s%14s%14s%10s%16s\n", "workload", "T cycles", "S cycles", "speedup", "stall cut")
	for _, w := range []int{1, 2, 3, 4, 5, 6} {
		var cycles [2]int64
		var stalls [2]uint64
		for i, mode := range []sfence.FenceMode{sfence.Traditional, sfence.Scoped} {
			res, err := sfence.RunBenchmark(ctx, "wsq", sfence.BenchmarkOptions{
				Mode: mode, Threads: 4, Ops: 120, Workload: w,
			}, cfg, nil)
			if err != nil {
				log.Fatal(err)
			}
			cycles[i] = res.Cycles
			stalls[i] = res.FenceStall
		}
		cut := 0.0
		if stalls[0] > 0 {
			cut = 100 * (1 - float64(stalls[1])/float64(stalls[0]))
		}
		fmt.Printf("%-10d%14d%14d%9.2fx%15.1f%%\n",
			w, cycles[0], cycles[1], float64(cycles[0])/float64(cycles[1]), cut)
	}
	fmt.Println("\nEvery run is verified: each task extracted exactly once.")
}
