package kernels

import (
	"fmt"
	"sync"

	"sfence/internal/isa"
	"sfence/internal/machine"
	"sfence/internal/memsys"
	"sfence/internal/scopecheck"
)

func init() {
	register(Info{
		Name:        "barnes",
		ScopeType:   "set",
		Group:       "full-app",
		Description: "Synthetic SPLASH-2 barnes-hut stand-in: SC enforced by delay-set-flagged accesses and set-scoped fences; gather-heavy, low locality",
		Build: func(opts Options) (*Kernel, error) {
			return buildSCIKernel("barnes", sciParams{
				posWords:   1 << 18, // 2 MiB shared read-only positions: gathers miss
				gathers:    8,
				bodies:     48,
				iters:      3,
				fencePairs: 1,
				accWords:   32768, // 256 KiB private accumulators: stores miss
				accStride:  67,    // line-jumping store pattern
				computeOps: 6,
			}, opts)
		},
	})
	register(Info{
		Name:        "radiosity",
		ScopeType:   "set",
		Group:       "full-app",
		Description: "Synthetic SPLASH-2 radiosity stand-in: higher fence density, moderate gather volume (delay-set SC enforcement with set scope)",
		Build: func(opts Options) (*Kernel, error) {
			return buildSCIKernel("radiosity", sciParams{
				posWords:   1 << 17,
				gathers:    4,
				bodies:     48,
				iters:      4,
				fencePairs: 2,
				accWords:   16384,
				accStride:  53,
				computeOps: 4,
			}, opts)
		},
	})
}

// sciParams shape the synthetic SC-enforcement kernels standing in for the
// SPLASH-2 applications (see DESIGN.md, substitution notes). The paper ran
// barnes and radiosity with compiler-inserted fences enforcing sequential
// consistency via delay set analysis; what matters for the experiment is
// the access structure: a large volume of private/read-only traffic with
// poor locality, punctuated by fences that — under set scope — only order
// the delay-set (conflicting, shared) accesses.
type sciParams struct {
	posWords   int64 // shared read-only position table size (words)
	gathers    int   // scattered reads per body
	bodies     int   // bodies per thread per iteration
	iters      int   // phase iterations
	fencePairs int   // flagged store+fence+flagged load groups per body
	accWords   int64 // per-thread private accumulator region (words)
	accStride  int64 // accumulator index stride (lines apart)
	computeOps int   // arithmetic ops between gather and update
}

// buildSCIKernel emits the shared skeleton: per body, gather `gathers`
// pseudo-random positions (unflagged loads — not in any delay set), update
// a private accumulator slot (unflagged store — the long-latency access a
// traditional fence needlessly waits for), then perform `fencePairs`
// communication rounds: a flagged store to the thread's slot, an S-Fence
// with set scope, and a flagged load of a peer's slot.
func buildSCIKernel(name string, prm sciParams, opts Options) (*Kernel, error) {
	opts = opts.withDefaults(8, prm.bodies, 0)
	if opts.Threads < 2 || opts.Threads > 16 {
		return nil, fmt.Errorf("%s: threads %d out of range [2,16]", name, opts.Threads)
	}
	s := newScopeCtx(opts, isa.ScopeSet)
	if s.kind != isa.ScopeSet {
		return nil, fmt.Errorf("%s: only set scope applies (delay-set flagged accesses)", name)
	}
	bodies := int64(opts.Ops)

	lay := memsys.NewLayout(4096, 56<<20)
	pos := lay.Array("pos", prm.posWords)
	lay.AlignTo(64)
	comm := lay.Array("comm", int64(opts.Threads)*8) // one line per slot
	acc := make([]int64, opts.Threads)
	resSlot := make([]int64, opts.Threads)
	for t := 0; t < opts.Threads; t++ {
		lay.AlignTo(64)
		acc[t] = lay.Array(fmt.Sprintf("acc%d", t), prm.accWords)
		lay.AlignTo(64)
		resSlot[t] = lay.Word(fmt.Sprintf("res%d", t))
	}

	const (
		rPos   = isa.R20
		rAcc   = isa.R21
		rMine  = isa.R22 // own comm slot address
		rPeer  = isa.R23 // peer comm slot address
		rRes   = isa.R24
		rX     = isa.R25 // LCG state
		rIter  = isa.R26
		rBody  = isa.R27
		rSum   = isa.R28
		rIdx   = isa.R29
		rA     = isa.R30
		rTotal = isa.R31
		rSink  = isa.R32
		rG     = isa.R33
		rBI    = isa.R34
	)

	posMask := prm.posWords - 1
	accMask := prm.accWords - 1

	b := isa.NewBuilder()
	b.Entry("worker")
	b.Inline(func(b *isa.Builder) {
		b.MovI(rTotal, 0)
		b.MovI(rSink, 0)
		b.MovI(rIter, int64(prm.iters))
		b.Label("iterloop")
		b.MovI(rBody, 0)
		b.Label("bodyloop")
		// Gather: scattered read-only loads, deliberately unflagged
		// (never in a delay set).
		b.MovI(rSum, 0)
		b.MovI(rG, int64(prm.gathers))
		b.Label("gather")
		emitLCG(b, rX, rIdx, posMask)
		b.ShlI(rIdx, rIdx, 3)
		b.Add(rA, rPos, rIdx)
		b.Load(rIdx, rA, 0)
		b.Add(rSum, rSum, rIdx)
		b.AddI(rG, rG, -1)
		b.Bne(rG, isa.R0, "gather")
		// Compute.
		for i := 0; i < prm.computeOps; i++ {
			b.Mul(rIdx, rSum, rSum)
			b.ShrI(rIdx, rIdx, 11)
			b.Xor(rSum, rSum, rIdx)
		}
		b.Add(rTotal, rTotal, rSum)
		// Private accumulator store: long latency, unflagged, and with
		// a register-sourced value — it drains while the set-scoped
		// fence below proceeds, but a traditional fence waits for it.
		b.MovI(rIdx, prm.accStride*8)
		b.Mul(rIdx, rBody, rIdx)
		b.AndI(rIdx, rIdx, accMask*8)
		b.AndI(rIdx, rIdx, -8)
		b.Add(rA, rAcc, rIdx)
		b.Store(rA, 0, rSum)
		// Delay-set communication rounds.
		for fp := 0; fp < prm.fencePairs; fp++ {
			s.shared(b)
			b.Store(rMine, 0, rSum)
			s.fence(b)
			s.shared(b)
			b.Load(rBI, rPeer, 0)
			b.Add(rSink, rSink, rBI)
		}
		b.AddI(rBody, rBody, 1)
		b.MovI(rIdx, bodies)
		b.Blt(rBody, rIdx, "bodyloop")
		b.AddI(rIter, rIter, -1)
		b.Bne(rIter, isa.R0, "iterloop")
		b.Store(rRes, 0, rTotal)
		b.Halt()
	})
	p, err := b.Build()
	if err != nil {
		return nil, err
	}

	threads := make([]machine.Thread, opts.Threads)
	expect := make([]int64, opts.Threads)
	for t := 0; t < opts.Threads; t++ {
		seed := opts.Seed*1000003 + int64(t)*7919
		threads[t] = machine.Thread{Entry: "worker", Regs: map[isa.Reg]int64{
			rPos: pos, rAcc: acc[t],
			rMine: comm + int64(t)*64,
			rPeer: comm + int64((t+1)%opts.Threads)*64,
			rRes:  resSlot[t], rX: seed,
		}}
		// Mirror the kernel in Go to compute the expected checksum.
		x := seed
		var total int64
		for it := 0; it < prm.iters; it++ {
			for body := int64(0); body < bodies; body++ {
				var sum int64
				for g := 0; g < prm.gathers; g++ {
					var idx int64
					x, idx = lcgNext(x, posMask)
					sum += posVal(idx)
				}
				for i := 0; i < prm.computeOps; i++ {
					sum ^= (sum * sum) >> 11
				}
				total += sum
			}
		}
		expect[t] = total
	}

	return &Kernel{
		Name:    name,
		Program: p,
		Regions: regionsFor(lay, func(rn string) (scopecheck.Sharing, int) {
			if rn == "pos" {
				return scopecheck.ReadShared, -1
			}
			if t, ok := ownedSuffix(rn, "acc"); ok {
				return scopecheck.Private, t
			}
			if t, ok := ownedSuffix(rn, "res"); ok {
				return scopecheck.Private, t
			}
			return scopecheck.SharedRW, -1
		}),
		Threads: threads,
		InitImage: func(img *memsys.Image) {
			img.Share(posTable(img.Size(), pos, prm.posWords))
		},
		Verify: func(img *memsys.Image) error {
			for t := 0; t < opts.Threads; t++ {
				if got := img.Load(resSlot[t]); got != expect[t] {
					return fmt.Errorf("%s: thread %d checksum = %d, want %d", name, t, got, expect[t])
				}
			}
			return nil
		},
	}, nil
}

// posVal is word i of a position table.
func posVal(i int64) int64 { return (i*2654435761 + 12345) & 0xffff }

// posTables holds every position table built so far, keyed by image
// size, table address and words. Its values depend on nothing else, so
// each is built once per process and every run's image shares it
// copy-on-write; no run writes it, so no page is ever copied. barnes and
// radiosity hold one entry each per image size (3 MiB at the default).
var posTables struct {
	sync.Mutex
	m map[[3]int64]*memsys.Image
}

// posTable returns the never-written image of the given size that holds
// the words-word position table at byte address addr, building it on
// first use.
func posTable(size, addr, words int64) *memsys.Image {
	posTables.Lock()
	defer posTables.Unlock()
	key := [3]int64{size, addr, words}
	if img := posTables.m[key]; img != nil {
		return img
	}
	img := memsys.NewImage(size)
	for i := range words {
		img.Store(addr+i*8, posVal(i))
	}
	if posTables.m == nil {
		posTables.m = make(map[[3]int64]*memsys.Image)
	}
	posTables.m[key] = img
	return img
}
