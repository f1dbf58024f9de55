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
		Name:        "scale",
		ScopeType:   "set",
		Group:       "micro",
		Hidden:      true,
		Description: "Many-core scaling microbenchmark: long private-L1-resident compute phases punctuated by one ring communication round (flagged store, fence, neighbor read) — runs on 2 up to memsys.MaxCores threads",
		Build:       func(opts Options) (*Kernel, error) { return buildScale(opts, 1) },
	})
	register(Info{
		Name:        "scale-imb",
		ScopeType:   "set",
		Group:       "micro",
		Hidden:      true,
		Description: "Imbalanced scale variant: thread 0 computes 8x per round and the rest wait at a flag barrier, so the straggler's solo tail dominates the run on wide machines",
		Build:       func(opts Options) (*Kernel, error) { return buildScale(opts, 8) },
	})
}

// The scale kernels are the core-count sweep workloads (fig-cores). Each
// thread owns a small private array (well inside the 32 KiB L1) and a
// tiny read-shared constant table, and alternates long phases of
// LCG-indexed read-modify-write compute over that array with one
// synchronization round. The compute phases are private L1 hits; the
// per-round synchronization is the only cross-core interaction. The
// read-shared table gives every line a full-machine sharer set, which at
// 65+ threads exercises the directory's extension sharer words.
//
// scale (straggle == 1) synchronizes over a ring: publish the running
// checksum to a comm slot, fence, read the left neighbor's slot.
//
// scale-imb (straggle > 1) gives thread 0 straggle x the compute
// iterations per round and synchronizes over a flag barrier: every
// thread stores the round number to its own arrival slot (one cache
// line each — no contended CAS), the highest-numbered thread scans the
// slots and then releases a shared flag, and everyone else spins on the
// flag. While the straggler finishes its solo tail the other cores sit
// in confirmed spin loops on locally cached lines: the two-speed clock
// cannot jump (one core is still active), so it parks the spinners and
// ticks the straggler alone until its release store catches them up.
// That barrier tail is the pattern wide machines actually exhibit, and
// the workload exists to measure it.
const (
	scaleArrWords   = 256 // 2 KiB private array (32 lines)
	scaleTableWords = 64  // read-shared constant table (8 lines)
)

func scaleTableVal(i int64) int64 { return (i*40503 + 9176) & 0x7fff }

// buildScale emits a scale kernel. straggle multiplies thread 0's
// per-round compute iterations (1 = balanced ring variant). Per-thread
// parameters are register-fed, so every thread runs the same program
// text.
func buildScale(opts Options, straggle int64) (*Kernel, error) {
	opts = opts.withDefaults(8, 6, 2)
	if opts.Threads < 2 || opts.Threads > memsys.MaxCores {
		return nil, fmt.Errorf("scale: threads %d out of range [2,%d]", opts.Threads, memsys.MaxCores)
	}
	s := newScopeCtx(opts, isa.ScopeSet)
	if s.kind != isa.ScopeSet {
		return nil, fmt.Errorf("scale: only set scope applies")
	}
	rounds := int64(opts.Ops)
	computeIters := int64(128 * opts.Workload)

	lay := memsys.NewLayout(4096, 1<<30)
	table := lay.Array("table", scaleTableWords)
	lay.AlignTo(64)
	flag := lay.Word("flag")
	lay.AlignTo(64)
	comm := lay.Array("comm", int64(opts.Threads)*8) // one line per slot
	arr := make([]int64, opts.Threads)
	scr := make([]int64, opts.Threads)
	resSlot := make([]int64, opts.Threads)
	for t := 0; t < opts.Threads; t++ {
		lay.AlignTo(64)
		arr[t] = lay.Array(fmt.Sprintf("arr%d", t), scaleArrWords)
		lay.AlignTo(64)
		// One never-warmed line per round (line index = the round's rRound
		// value, so [1,rounds]; line 0 stays unused). Each round's
		// checkpoint store is a guaranteed cold miss pending at the fence.
		scr[t] = lay.Array(fmt.Sprintf("scr%d", t), (rounds+1)*8)
		lay.AlignTo(64)
		resSlot[t] = lay.Word(fmt.Sprintf("res%d", t))
	}

	const (
		rArr   = isa.R20
		rTab   = isa.R21
		rMine  = isa.R22
		rPeer  = isa.R23 // ring: left neighbor slot; barrier: flag address
		rRes   = isa.R24
		rX     = isa.R25 // LCG state
		rRound = isa.R26 // ring: rounds remaining; barrier: current round, counting up
		rIter  = isa.R27
		rAcc   = isa.R28
		rIdx   = isa.R29
		rA     = isa.R30
		rTmp   = isa.R31
		rSink  = isa.R32
		rMyIt  = isa.R33 // barrier: per-round compute iterations (straggler-scaled)
		rIsCol = isa.R34 // barrier: 1 on the collector thread
		rSlots = isa.R35 // barrier: arrival slot array base
		rScr   = isa.R36 // per-thread checkpoint scratch base
	)

	arrMask := int64(scaleArrWords - 1)
	tabMask := int64(scaleTableWords - 1)

	b := isa.NewBuilder()
	b.Entry("worker")
	b.Inline(func(b *isa.Builder) {
		b.MovI(rAcc, 0)
		b.MovI(rSink, 0)
		// Warmup: touch every private line (write for M state) and every
		// table line, so the cold misses are compact at the start of the
		// run instead of sprinkled through the first compute phase.
		b.MovI(rIdx, 0)
		b.Label("warm")
		b.Add(rA, rArr, rIdx)
		b.Store(rA, 0, isa.R0)
		b.AddI(rIdx, rIdx, 64)
		b.MovI(rTmp, scaleArrWords*8)
		b.Blt(rIdx, rTmp, "warm")
		b.MovI(rIdx, 0)
		b.Label("warmtab")
		b.Add(rA, rTab, rIdx)
		b.Load(rTmp, rA, 0)
		b.AddI(rIdx, rIdx, 64)
		b.MovI(rA, scaleTableWords*8)
		b.Blt(rIdx, rA, "warmtab")

		// Per-round private checkpoint: store the running checksum to this
		// round's own cold line, the canonical update-then-publish shape.
		// The store is a miss still pending in the store buffer when the
		// round's fence executes, so a traditional fence drains it while a
		// scoped fence — knowing no other thread reads the checkpoint —
		// skips it. This is where the T/S gap of the fig-cores sweep comes
		// from.
		checkpoint := func() {
			b.ShlI(rTmp, rRound, 6)
			b.Add(rA, rScr, rTmp)
			b.Store(rA, 0, rAcc)
		}

		if straggle == 1 {
			// --- ring variant: rRound is register-fed and counts down ---
			b.Label("roundloop")
			b.MovI(rIter, computeIters)
			emitScaleCompute(b, arrMask, tabMask)
			// Checkpoint privately, fence, then publish: the fence orders
			// the checkpoint before the flagged publish for T, while S
			// recognizes nothing in scope is pending.
			checkpoint()
			s.fence(b)
			// Communication round: publish the checksum, fence, read the
			// left neighbor. The neighbor value depends on global timing,
			// so it feeds the unverified sink only.
			s.shared(b)
			b.Store(rMine, 0, rAcc)
			s.fence(b)
			s.shared(b)
			b.Load(rTmp, rPeer, 0)
			b.Add(rSink, rSink, rTmp)
			b.AddI(rRound, rRound, -1)
			b.Bne(rRound, isa.R0, "roundloop")
		} else {
			// --- barrier variant: rRound counts up 1..rounds so it can
			// double as the arrival/flag value ---
			b.MovI(rRound, 1)
			b.Label("roundloop")
			b.Add(rIter, rMyIt, isa.R0)
			emitScaleCompute(b, arrMask, tabMask)
			checkpoint()
			s.fence(b)
			// Arrive: one flagged store to this thread's own slot line.
			s.shared(b)
			b.Store(rMine, 0, rRound)
			b.Bne(rIsCol, isa.R0, "collect")
			// Waiter: spin until the collector releases this round.
			b.Label("spinw")
			s.shared(b)
			b.Load(rTmp, rPeer, 0)
			b.Blt(rTmp, rRound, "spinw")
			b.Jmp("bdone")
			// Collector: scan every arrival slot, then release the flag.
			b.Label("collect")
			b.MovI(rIdx, 0)
			b.Label("scan")
			b.Add(rA, rSlots, rIdx)
			b.Label("scanspin")
			s.shared(b)
			b.Load(rTmp, rA, 0)
			b.Blt(rTmp, rRound, "scanspin")
			b.AddI(rIdx, rIdx, 64)
			b.MovI(rTmp, int64(opts.Threads)*64)
			b.Blt(rIdx, rTmp, "scan")
			s.shared(b)
			b.Store(rPeer, 0, rRound)
			b.Label("bdone")
			b.AddI(rRound, rRound, 1)
			b.MovI(rTmp, rounds+1)
			b.Blt(rRound, rTmp, "roundloop")
		}
		b.Store(rRes, 0, rAcc)
		b.Halt()
	})
	p, err := b.Build()
	if err != nil {
		return nil, err
	}

	threads := make([]machine.Thread, opts.Threads)
	expect := make([]int64, opts.Threads)
	checkExpect := make([][]int64, opts.Threads)
	for t := 0; t < opts.Threads; t++ {
		seed := opts.Seed*1000003 + int64(t)*7919
		regs := map[isa.Reg]int64{
			rArr: arr[t], rTab: table, rScr: scr[t],
			rMine: comm + int64(t)*64,
			rRes:  resSlot[t], rX: seed,
		}
		iters := computeIters
		if straggle == 1 {
			regs[rRound] = rounds
			regs[rPeer] = comm + int64((t+1)%opts.Threads)*64
		} else {
			if t == 0 {
				iters = computeIters * straggle
			}
			regs[rMyIt] = iters
			regs[rPeer] = flag
			if t == opts.Threads-1 {
				regs[rIsCol] = 1
			}
			regs[rSlots] = comm
		}
		threads[t] = machine.Thread{Entry: "worker", Regs: regs}
		// Mirror the compute chain exactly (the ring variant's neighbor
		// reads feed the unverified sink only). checkAt[r] is the checksum
		// the round-r checkpoint line must hold; the ring variant indexes
		// checkpoints by its count-down register, so its round r lands on
		// line rounds-r.
		x := seed
		var acc int64
		mem := make([]int64, scaleArrWords)
		checkAt := make([]int64, rounds+1)
		for r := int64(0); r < rounds; r++ {
			for it := int64(0); it < iters; it++ {
				var idx, tidx int64
				x, idx = lcgNext(x, arrMask)
				acc += mem[idx]
				x, tidx = lcgNext(x, tabMask)
				acc ^= scaleTableVal(tidx)
				mem[idx] = acc
			}
			if straggle == 1 {
				checkAt[rounds-r] = acc
			} else {
				checkAt[r+1] = acc
			}
		}
		expect[t] = acc
		checkExpect[t] = checkAt
	}

	name := "scale"
	if straggle > 1 {
		name = "scale-imb"
	}
	return &Kernel{
		Name:    name,
		Program: p,
		Regions: regionsFor(lay, func(rn string) (scopecheck.Sharing, int) {
			if rn == "table" {
				return scopecheck.ReadShared, -1
			}
			if t, ok := ownedSuffix(rn, "arr"); ok {
				return scopecheck.Private, t
			}
			if t, ok := ownedSuffix(rn, "scr"); ok {
				return scopecheck.Private, t
			}
			if t, ok := ownedSuffix(rn, "res"); ok {
				return scopecheck.Private, t
			}
			return scopecheck.SharedRW, -1
		}),
		Threads: threads,
		InitImage: func(img *memsys.Image) {
			for i := int64(0); i < scaleTableWords; i++ {
				img.Store(table+i*8, scaleTableVal(i))
			}
		},
		Verify: func(img *memsys.Image) error {
			for t := 0; t < opts.Threads; t++ {
				if got := img.Load(resSlot[t]); got != expect[t] {
					return fmt.Errorf("scale: thread %d checksum = %d, want %d", t, got, expect[t])
				}
				for r := int64(1); r <= rounds; r++ {
					if got := img.Load(scr[t] + r*64); got != checkExpect[t][r] {
						return fmt.Errorf("scale: thread %d round-%d checkpoint = %d, want %d", t, r, got, checkExpect[t][r])
					}
				}
			}
			if straggle > 1 {
				// The barrier cells are deterministic too: every slot and
				// the flag end at the final round number.
				for t := 0; t < opts.Threads; t++ {
					if got := img.Load(comm + int64(t)*64); got != rounds {
						return fmt.Errorf("scale: arrival slot %d = %d, want %d", t, got, rounds)
					}
				}
				if got := img.Load(flag); got != rounds {
					return fmt.Errorf("scale: flag = %d, want %d", got, rounds)
				}
			}
			return nil
		},
	}, nil
}

// emitScaleCompute emits one compute phase: rIter iterations of
// LCG-indexed read-modify-write over the private array plus a
// read-shared table gather — all L1 hits after warmup, so the whole
// phase stays inside the core's private cache.
func emitScaleCompute(b *isa.Builder, arrMask, tabMask int64) {
	const (
		rX    = isa.R25
		rIter = isa.R27
		rAcc  = isa.R28
		rIdx  = isa.R29
		rA    = isa.R30
		rTmp  = isa.R31
		rArr  = isa.R20
		rTab  = isa.R21
	)
	b.Label("compute")
	emitLCG(b, rX, rIdx, arrMask)
	b.ShlI(rIdx, rIdx, 3)
	b.Add(rA, rArr, rIdx)
	b.Load(rTmp, rA, 0)
	b.Add(rAcc, rAcc, rTmp)
	emitLCG(b, rX, rIdx, tabMask)
	b.ShlI(rIdx, rIdx, 3)
	b.Add(rIdx, rTab, rIdx)
	b.Load(rTmp, rIdx, 0)
	b.Xor(rAcc, rAcc, rTmp)
	b.Store(rA, 0, rAcc)
	b.AddI(rIter, rIter, -1)
	b.Bne(rIter, isa.R0, "compute")
}
