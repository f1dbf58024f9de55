package kernels

import (
	"fmt"
	"math/rand"

	"sfence/internal/isa"
	"sfence/internal/machine"
	"sfence/internal/memsys"
	"sfence/internal/scopecheck"
)

func init() {
	register(Info{
		Name:        "harris",
		ScopeType:   "class",
		Group:       "lock-free",
		Description: "Harris's non-blocking sorted linked-list set [20]; class-scoped fences inside insert/delete/contains",
		Build:       buildHarris,
	})
}

const cidHarris = 3

// Operation codes in the per-thread scripts.
const (
	harrisOpContains = 0
	harrisOpInsert   = 1
	harrisOpDelete   = 2
)

// buildHarris builds the Harris concurrent-set benchmark: each thread runs
// a precomputed script of insert/delete/contains operations over a small
// key range (high contention). Marked-pointer deletion uses bit 0 of the
// next pointer; nodes come from bump allocators (no reuse, no ABA).
//
// Verification exploits set semantics: for every key, successful inserts
// and deletes must alternate, so #ins - #del is 0 or 1 and equals the
// key's final presence in the list; the final list must also be strictly
// sorted and reachable without cycles.
func buildHarris(opts Options) (*Kernel, error) {
	opts = opts.withDefaults(4, 80, 1)
	if opts.Threads < 1 || opts.Threads > 16 {
		return nil, fmt.Errorf("harris: threads %d out of range [1,16]", opts.Threads)
	}
	s := newScopeCtx(opts, isa.ScopeClass)
	const keyRange = 32
	perThread := int64(opts.Ops)

	lay := memsys.NewLayout(4096, 48<<20)
	headNode := lay.Array("head", 2) // sentinel {unused key, next}
	lay.AlignTo(64)
	tailNode := lay.Array("tail", 2) // sentinel, never dereferenced for key
	nodePool := make([]int64, opts.Threads)
	script := make([]int64, opts.Threads)
	results := make([]int64, opts.Threads)
	for t := 0; t < opts.Threads; t++ {
		lay.AlignTo(64)
		nodePool[t] = lay.Array(fmt.Sprintf("nodes%d", t), (perThread+2)*2)
		lay.AlignTo(64)
		script[t] = lay.Array(fmt.Sprintf("script%d", t), perThread+1)
		lay.AlignTo(64)
		results[t] = lay.Array(fmt.Sprintf("results%d", t), perThread+1)
	}
	workBase := make([]int64, opts.Threads)
	for t := 0; t < opts.Threads; t++ {
		lay.AlignTo(64)
		workBase[t] = lay.Array(fmt.Sprintf("work%d", t), workRegionWords)
	}

	// Deterministic operation scripts.
	rng := rand.New(rand.NewSource(opts.Seed))
	scripts := make([][]int64, opts.Threads)
	for t := range scripts {
		ops := make([]int64, perThread)
		for i := range ops {
			var op int64
			switch r := rng.Intn(10); {
			case r < 4:
				op = harrisOpInsert
			case r < 7:
				op = harrisOpDelete
			default:
				op = harrisOpContains
			}
			key := int64(rng.Intn(keyRange))
			ops[i] = op<<32 | key
		}
		scripts[t] = ops
	}

	const (
		rHeadN  = isa.R20 // head sentinel address
		rTailN  = isa.R21 // tail sentinel address
		rNode   = isa.R22 // bump allocator
		rScript = isa.R23
		rRes    = isa.R24
		rLeft   = isa.R25
		rIdx    = isa.R26
		rOp     = isa.R27
		rKey    = isa.R28
		rOut    = isa.R29 // op result (0/1)
		// search registers
		rT   = isa.R30
		rTN  = isa.R31
		rL   = isa.R32 // left node
		rLN  = isa.R33 // left.next snapshot
		rR   = isa.R34 // right node
		rTK  = isa.R35
		rM   = isa.R36
		rOk  = isa.R37
		rRN  = isa.R38
		rTmp = isa.R39
	)

	// search(rKey) -> rL (left), rR (right). Harris's two-phase search
	// with physical removal of marked spans.
	search := func(b *isa.Builder) {
		b.Label("again")
		b.Mov(rT, rHeadN)
		s.shared(b)
		b.Load(rTN, rT, 8)
		b.Label("sbody")
		b.AndI(rM, rTN, 1)
		b.Bne(rM, isa.R0, "nomove")
		b.Mov(rL, rT)
		b.Mov(rLN, rTN)
		b.Label("nomove")
		b.AndI(rT, rTN, -2) // t = unmark(t_next)
		b.Beq(rT, rTailN, "sdone")
		s.shared(b)
		b.Load(rTN, rT, 8)
		s.shared(b)
		b.Load(rTK, rT, 0)
		b.AndI(rM, rTN, 1)
		b.Bne(rM, isa.R0, "sbody") // skip marked nodes
		b.Blt(rTK, rKey, "sbody")  // keep walking while t.key < key
		b.Label("sdone")
		b.Mov(rR, rT)
		b.Beq(rLN, rR, "adjacent")
		// Unlink the marked span left -> right.
		s.shared(b)
		b.CAS(rOk, rL, 8, rLN, rR)
		b.Beq(rOk, isa.R0, "again")
		b.Label("adjacent")
		b.Beq(rR, rTailN, "sexit")
		s.shared(b)
		b.Load(rRN, rR, 8)
		b.AndI(rM, rRN, 1)
		b.Bne(rM, isa.R0, "again") // right became marked: restart
		b.Label("sexit")
	}

	insert := func(b *isa.Builder) {
		b.Label("iloop")
		b.Inline(search)
		b.Beq(rR, rTailN, "doins")
		s.shared(b)
		b.Load(rTK, rR, 0)
		b.Bne(rTK, rKey, "doins")
		b.MovI(rOut, 0) // key already present
		b.Jmp("iout")
		b.Label("doins")
		s.shared(b)
		b.Store(rNode, 0, rKey) // node.key
		s.shared(b)
		b.Store(rNode, 8, rR) // node.next = right
		s.fence(b)            // release: node init before publication
		s.shared(b)
		b.CAS(rOk, rL, 8, rR, rNode)
		b.Beq(rOk, isa.R0, "iloop")
		b.AddI(rNode, rNode, 16)
		b.MovI(rOut, 1)
		b.Label("iout")
	}

	b := isa.NewBuilder()

	deleteBody := func(b *isa.Builder) {
		b.Label("dloop")
		b.Inline(search)
		b.Beq(rR, rTailN, "dfail")
		s.shared(b)
		b.Load(rTK, rR, 0)
		b.Bne(rTK, rKey, "dfail")
		s.shared(b)
		b.Load(rRN, rR, 8)
		b.AndI(rM, rRN, 1)
		b.Bne(rM, isa.R0, "dloop") // already marked: lost the race, retry
		// Logical delete: mark right.next.
		b.MovI(rTmp, 1)
		b.Or(rTmp, rRN, rTmp)
		s.shared(b)
		b.CAS(rOk, rR, 8, rRN, rTmp)
		b.Beq(rOk, isa.R0, "dloop")
		// Physical delete (best effort).
		s.shared(b)
		b.CAS(rOk, rL, 8, rR, rRN)
		b.MovI(rOut, 1)
		b.Jmp("dout")
		b.Label("dfail")
		b.MovI(rOut, 0)
		b.Label("dout")
	}

	containsBody := func(b *isa.Builder) {
		b.Inline(search)
		b.MovI(rOut, 0)
		b.Beq(rR, rTailN, "cout")
		s.shared(b)
		b.Load(rTK, rR, 0)
		b.Bne(rTK, rKey, "cout")
		b.MovI(rOut, 1)
		b.Label("cout")
	}

	b.Entry("worker")
	b.Inline(func(b *isa.Builder) {
		b.MovI(rIdx, 0)
		b.Label("oploop")
		// Fetch op from the script.
		b.ShlI(rTmp, rIdx, 3)
		b.Add(rTmp, rScript, rTmp)
		b.Load(rOp, rTmp, 0)
		b.AndI(rKey, rOp, 0xffffffff) // key = low bits
		b.ShrI(rOp, rOp, 32)
		b.MovI(rTmp, harrisOpInsert)
		b.Beq(rOp, rTmp, "do_ins")
		b.MovI(rTmp, harrisOpDelete)
		b.Beq(rOp, rTmp, "do_del")
		b.Inline(func(b *isa.Builder) {
			s.enter(b, cidHarris)
			b.Inline(containsBody)
			s.exit(b, cidHarris)
		})
		b.Jmp("record")
		b.Label("do_ins")
		b.Inline(func(b *isa.Builder) {
			s.enter(b, cidHarris)
			b.Inline(insert)
			s.exit(b, cidHarris)
		})
		b.Jmp("record")
		b.Label("do_del")
		b.Inline(func(b *isa.Builder) {
			s.enter(b, cidHarris)
			b.Inline(deleteBody)
			s.exit(b, cidHarris)
		})
		b.Label("record")
		b.ShlI(rTmp, rIdx, 3)
		b.Add(rTmp, rRes, rTmp)
		b.Store(rTmp, 0, rOut)
		b.Inline(func(b *isa.Builder) { emitWorkload(b, opts.Workload) })
		b.AddI(rIdx, rIdx, 1)
		b.Blt(rIdx, rLeft, "oploop")
		b.Halt()
	})
	p, err := b.Build()
	if err != nil {
		return nil, err
	}

	memInit := map[int64]int64{
		headNode + 8: tailNode, // head.next = tail
		tailNode + 8: 0,
	}
	threads := make([]machine.Thread, opts.Threads)
	for t := 0; t < opts.Threads; t++ {
		threads[t] = machine.Thread{Entry: "worker", Regs: map[isa.Reg]int64{
			rHeadN: headNode, rTailN: tailNode, rNode: nodePool[t],
			rScript: script[t], rRes: results[t], rLeft: perThread,
			regWorkBase: workBase[t], regWorkPtr: int64(t * 136),
		}}
	}

	return &Kernel{
		Name:    "harris",
		Program: p,
		Regions: regionsFor(lay, func(name string) (scopecheck.Sharing, int) {
			// Node pools are published into the list, so shared even
			// though each is bump-allocated by one thread.
			if _, ok := ownedSuffix(name, "script"); ok {
				return scopecheck.ReadShared, -1
			}
			if t, ok := ownedSuffix(name, "results"); ok {
				return scopecheck.Private, t
			}
			if t, ok := ownedSuffix(name, "work"); ok {
				return scopecheck.Private, t
			}
			return scopecheck.SharedRW, -1
		}),
		Threads: threads,
		MemInit: memInit,
		InitImage: func(img *memsys.Image) {
			for t := 0; t < opts.Threads; t++ {
				for i, w := range scripts[t] {
					img.Store(script[t]+int64(i)*8, w)
				}
			}
		},
		Verify: func(img *memsys.Image) error {
			// Walk the final list. A reachable node is in the set when
			// its own next pointer is unmarked (Harris's membership
			// rule): the mark on the pointer that reached it belongs to
			// its predecessor, and a live node can sit behind a deleted
			// one that was never unlinked. The live keys must be
			// strictly increasing.
			final := map[int64]bool{}
			prev := int64(-1)
			cur := img.Load(headNode + 8)
			for steps := 0; ; steps++ {
				if steps > opts.Threads*opts.Ops+10 {
					return fmt.Errorf("harris: list walk did not terminate (cycle?)")
				}
				addr := cur &^ 1
				if addr == tailNode {
					break
				}
				if addr == 0 {
					return fmt.Errorf("harris: nil next pointer before tail sentinel")
				}
				key := img.Load(addr)
				next := img.Load(addr + 8)
				if next&1 == 0 { // node is live
					if key <= prev {
						return fmt.Errorf("harris: keys not strictly increasing (%d after %d)", key, prev)
					}
					prev = key
					final[key] = true
				}
				cur = next
			}
			// Conservation per key: successful inserts - deletes must be
			// 0/1 and match final presence.
			ins := map[int64]int{}
			dels := map[int64]int{}
			for t := 0; t < opts.Threads; t++ {
				for i := int64(0); i < perThread; i++ {
					w := scripts[t][i]
					op, key := w>>32, w&0xffffffff
					res := img.Load(results[t] + i*8)
					if res != 0 && res != 1 {
						return fmt.Errorf("harris: thread %d op %d result %d not boolean", t, i, res)
					}
					if res == 1 {
						switch op {
						case harrisOpInsert:
							ins[key]++
						case harrisOpDelete:
							dels[key]++
						}
					}
				}
			}
			for key := int64(0); key < keyRange; key++ {
				diff := ins[key] - dels[key]
				if diff != 0 && diff != 1 {
					return fmt.Errorf("harris: key %d has %d inserts vs %d deletes", key, ins[key], dels[key])
				}
				if (diff == 1) != final[key] {
					return fmt.Errorf("harris: key %d presence %v inconsistent with %d ins / %d del", key, final[key], ins[key], dels[key])
				}
			}
			return nil
		},
	}, nil
}
