package kernels

import (
	"fmt"

	"sfence/internal/isa"
	"sfence/internal/machine"
	"sfence/internal/memsys"
	"sfence/internal/scopecheck"
)

func init() {
	register(Info{
		Name:      "fence-drain",
		ScopeType: "set",
		Group:     "micro",
		Description: "Fence-drain microbenchmark (the paper's Fig. 10 pattern): every iteration " +
			"writes a fresh cold line out of scope, dirties an in-scope flag, and fences. " +
			"Traditional fences idle the pipeline for the full memory round-trip; set-scoped " +
			"fences wait only for the warm flag (not part of the paper's Table IV)",
		Hidden: true,
		Build:  buildFenceDrain,
	})
}

// buildFenceDrain assembles the fence-heavy, miss-heavy microbenchmark
// used by the clock tests and bench/'s sim-skip workload:
// per iteration, a private store to a never-before-touched cache line (an
// L2 miss that drains from the store buffer at full memory latency), an
// in-scope flag store, a fence, and an in-scope flag load. Under
// Traditional fences the core spends almost the entire iteration stalled
// at the fence with an empty pipeline — the worst case for a per-cycle
// simulator loop and the best case for the event-driven clock — while the
// Scoped variant (set scope over the flag) barely stalls at all, exactly
// the contrast of the paper's Figure 10.
//
// Threads (default 2) run fully privately: disjoint cold regions and
// per-thread flags on separate lines, so the measurement is free of
// coherence noise. Ops bounds the iteration count (and the region size).
func buildFenceDrain(opts Options) (*Kernel, error) {
	opts = opts.withDefaults(2, 200, 0)
	if opts.Threads < 1 || opts.Threads > 8 {
		return nil, fmt.Errorf("fence-drain: thread count %d out of range [1,8]", opts.Threads)
	}
	s := newScopeCtx(opts, isa.ScopeSet)
	if s.mode == Scoped && s.kind != isa.ScopeSet {
		return nil, fmt.Errorf("fence-drain: only set scope is meaningful (the cold stores are deliberately unscoped)")
	}

	lay := memsys.NewLayout(4096, 48<<20)
	flags := make([]int64, opts.Threads)
	for t := range flags {
		lay.AlignTo(64)
		flags[t] = lay.Word(fmt.Sprintf("flag%d", t))
	}
	regions := make([]int64, opts.Threads)
	for t := range regions {
		lay.AlignTo(64)
		regions[t] = lay.Array(fmt.Sprintf("cold%d", t), int64(opts.Ops)*8)
	}

	const (
		rPtr  = isa.R1
		rFlag = isa.R2
		rIter = isa.R3
		rVal  = isa.R4
		rTmp  = isa.R5
	)

	b := isa.NewBuilder()
	for t := 0; t < opts.Threads; t++ {
		b.Entry(fmt.Sprintf("t%d", t))
		b.Inline(func(b *isa.Builder) {
			b.MovI(rPtr, regions[t]-64)
			b.MovI(rFlag, flags[t])
			b.MovI(rIter, int64(opts.Ops))
			b.MovI(rVal, 0)
			b.Label("loop")
			b.AddI(rPtr, rPtr, 64) // fresh cache line every iteration
			b.AddI(rVal, rVal, 1)
			b.Store(rPtr, 0, rVal) // cold, out of every fence scope
			s.shared(b)
			b.Store(rFlag, 0, rVal) // warm, in scope
			s.fence(b)
			s.shared(b)
			b.Load(rTmp, rFlag, 0)
			b.AddI(rIter, rIter, -1)
			b.Bne(rIter, isa.R0, "loop")
			b.Halt()
		})
	}
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	threads := make([]machine.Thread, opts.Threads)
	for t := range threads {
		threads[t] = machine.Thread{Entry: fmt.Sprintf("t%d", t)}
	}
	ops := opts.Ops
	nthreads := opts.Threads
	return &Kernel{
		Name:    "fence-drain",
		Program: prog,
		Regions: regionsFor(lay, func(name string) (scopecheck.Sharing, int) {
			if t, ok := ownedSuffix(name, "flag"); ok {
				return scopecheck.Private, t
			}
			if t, ok := ownedSuffix(name, "cold"); ok {
				return scopecheck.Private, t
			}
			return scopecheck.SharedRW, -1
		}),
		Threads: threads,
		Verify: func(img *memsys.Image) error {
			for t := 0; t < nthreads; t++ {
				if got := img.Load(flags[t]); got != int64(ops) {
					return fmt.Errorf("fence-drain: thread %d flag = %d, want %d", t, got, ops)
				}
				// Every cold line must hold its iteration index: the
				// store buffer drained each private store exactly once.
				for i := 0; i < ops; i++ {
					if got := img.Load(regions[t] + int64(i)*64); got != int64(i)+1 {
						return fmt.Errorf("fence-drain: thread %d word %d = %d, want %d", t, i, got, i+1)
					}
				}
			}
			return nil
		},
	}, nil
}
