package sfence_test

import (
	"context"
	"fmt"
	"log"

	"sfence"
)

// ExampleNewBuilder assembles a two-thread message-passing program whose
// producer uses a class-scoped fence: the fence orders the message
// stores against the ready flag without waiting for the private scratch
// store outside the scope.
func ExampleNewBuilder() {
	b := sfence.NewBuilder()

	b.Entry("producer")
	b.MovI(sfence.R1, 1<<16) // private scratch, outside the scope
	b.MovI(sfence.R2, 4096)  // message base
	b.MovI(sfence.R3, 42)    // payload
	b.MovI(sfence.R4, 1)     // flag value
	b.Store(sfence.R1, 0, sfence.R3)
	b.FsStart(1)
	b.Store(sfence.R2, 0, sfence.R3)  // message.payload = 42
	b.Fence(sfence.ScopeClass)        // payload before flag
	b.Store(sfence.R2, 64, sfence.R4) // message.ready = 1
	b.FsEnd(1)
	b.Halt()

	b.Entry("consumer")
	b.MovI(sfence.R2, 4096)
	b.Label("spin")
	b.Load(sfence.R5, sfence.R2, 64)
	b.Beq(sfence.R5, sfence.R0, "spin")
	b.Fence(sfence.ScopeGlobal)
	b.Load(sfence.R6, sfence.R2, 0)
	b.MovI(sfence.R7, 8192)
	b.Store(sfence.R7, 0, sfence.R6)
	b.Halt()

	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	m, err := sfence.NewMachine(sfence.DefaultConfig(), prog, []sfence.Thread{
		{Entry: "producer"}, {Entry: "consumer"},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consumer observed payload: %d\n", m.Image().Load(8192))
	// Output: consumer observed payload: 42
}

// ExampleRunBenchmark runs one of the paper's Table IV benchmarks —
// Chase-Lev work-stealing queues with scoped fences — and inspects the
// measurements. Every benchmark run verifies its architectural result,
// so a returned Result is also a correctness witness.
func ExampleRunBenchmark() {
	res, err := sfence.RunBenchmark(context.Background(), "wsq", sfence.BenchmarkOptions{
		Mode: sfence.Scoped, Threads: 4, Ops: 30, Workload: 1,
	}, sfence.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified: %t\n", res.Cycles > 0)
	fmt.Printf("committed fences: %t\n", res.Stats.CommittedFences > 0)
	fmt.Printf("fence-stall fraction in [0,1]: %t\n",
		res.FenceStallFraction() >= 0 && res.FenceStallFraction() <= 1)
	// Output:
	// verified: true
	// committed fences: true
	// fence-stall fraction in [0,1]: true
}

// ExampleNewLab builds a Lab session — the context-aware, option-based
// experiment API — and regenerates the paper's workload-sweep experiment
// at quick scale through the experiment registry. The Lab owns its run
// cache, worker pool, and progress sink, so several Labs can run
// experiments concurrently in one process; the context can cancel or
// time-box every simulation mid-cycle-loop.
func ExampleNewLab() {
	lab := sfence.NewLab(
		sfence.WithScale(sfence.Quick),
		sfence.WithCache(sfence.NewMemCache()),
	)
	res, err := lab.Run(context.Background(), "fig12")
	if err != nil {
		log.Fatal(err)
	}
	series := res.Data.([]sfence.SpeedupSeries)
	fmt.Printf("curves: %d\n", len(series))
	allWin := true
	for _, s := range series {
		peak, _ := s.Peak()
		if peak <= 1.0 {
			allWin = false
		}
	}
	fmt.Printf("every benchmark peaks above 1.0x: %t\n", allWin)
	// The simulator is deterministic, so the qualitative result —
	// S-Fence always wins somewhere on the sweep — is stable.
	// Output:
	// curves: 4
	// every benchmark peaks above 1.0x: true
}

// ExampleLab_stats drills into the full hierarchical stats snapshot of a
// benchmark run — every per-core pipeline, S-Fence hardware, and cache
// counter plus machine totals, under stable dotted names. The same
// snapshot set for every Table IV benchmark is available as the "stats"
// experiment (lab.Run(ctx, "stats")); here a single run's snapshot is
// read through BenchmarkResult.Snapshot.
func ExampleLab_stats() {
	res, err := sfence.RunBenchmark(context.Background(), "dekker",
		sfence.BenchmarkOptions{Mode: sfence.Scoped, Ops: 10}, sfence.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	snap := res.Snapshot
	fmt.Printf("schema: %d\n", snap.Schema)
	// Exact counter values are pinned by the golden determinism test;
	// here we read the structure: stable dotted names, per-core and
	// machine-level views of the same counters.
	c0, _ := snap.Lookup("core0.fence.stall_cycles")
	c1, _ := snap.Lookup("core1.fence.stall_cycles")
	fmt.Printf("per-core fence stalls sum to machine total: %t\n",
		c0.Value+c1.Value == snap.Value("machine.fence_stall_cycles"))
	fmt.Printf("committed matches headline stats: %t\n",
		snap.UValue("machine.committed") == res.Stats.Committed)
	fmt.Printf("fast-forward engaged: %t\n", snap.Value("machine.clock.skipped_cycles") > 0)
	fmt.Printf("tracer pinned: %d\n", snap.Value("machine.clock.tracer_pinned"))
	// Output:
	// schema: 1
	// per-core fence stalls sum to machine total: true
	// committed matches headline stats: true
	// fast-forward engaged: true
	// tracer pinned: 0
}
