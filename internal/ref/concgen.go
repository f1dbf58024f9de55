package ref

import (
	"fmt"
	"math/rand"

	"sfence/internal/isa"
)

// Variant selects how GenConcurrent lowers the scenario's synchronization
// annotations into fence instructions. The three variants correspond to
// the paper's configurations: traditional full fences (T), class-scoped
// S-Fences with fs_start/fs_end brackets (S/class), and set-scoped
// S-Fences with compiler-flagged accesses (S/set).
type Variant uint8

const (
	VariantTraditional Variant = iota
	VariantClass
	VariantSet

	// NumVariants is the number of fence lowerings of every scenario.
	NumVariants = 3
)

func (v Variant) String() string {
	switch v {
	case VariantTraditional:
		return "traditional"
	case VariantClass:
		return "class"
	case VariantSet:
		return "set"
	case VariantInferred:
		return "inferred"
	}
	return fmt.Sprintf("Variant(%d)", uint8(v))
}

// ParseVariant resolves a variant by its String name.
func ParseVariant(s string) (Variant, error) {
	for v := Variant(0); v < NumVariants; v++ {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("ref: unknown fence variant %q (want traditional, class, or set)", s)
}

// lowering emits one variant's synchronization skeleton: scope brackets,
// access flagging, and the fence itself. It mirrors how the paper's
// compiler support lowers annotated synchronization — the generator calls
// these hooks at annotation points and everything else is emitted
// identically across variants.
type lowering struct{ v Variant }

// enter opens a class scope around a synchronized "method" (class variant
// only).
func (l lowering) enter(b *isa.Builder, cid int64) {
	if l.v == VariantClass {
		b.FsStart(cid)
	}
}

// exit closes the class scope opened by enter.
func (l lowering) exit(b *isa.Builder, cid int64) {
	if l.v == VariantClass {
		b.FsEnd(cid)
	}
}

// shared marks the next memory instruction as part of the fence's variable
// set (set variant only).
func (l lowering) shared(b *isa.Builder) {
	if l.v == VariantSet {
		b.SetFlagged()
	}
}

// fence emits the variant's ordering fence at a synchronization point.
func (l lowering) fence(b *isa.Builder) {
	switch l.v {
	case VariantTraditional:
		b.Fence(isa.ScopeGlobal)
	case VariantClass:
		b.Fence(isa.ScopeClass)
	default:
		b.Fence(isa.ScopeSet)
	}
}

// Class ids of the generated synchronized objects.
const (
	cidCounter = 1
	cidLock    = 2
	cidChan    = 3
	cidDekker  = 4
)

// Shared-memory layout of generated scenarios. Counters sit 8 bytes apart
// on one cache line (deliberate false sharing under CAS contention); locks
// and channels get a line-plus of separation; each thread owns a disjoint
// private window for its random compute blocks.
const (
	// concTurnAddr is the dekker idiom's turn word. It sits BELOW
	// concCounterBase on purpose: the turn's final value is whichever
	// thread exited its last critical section first — genuinely
	// interleaving-dependent — so it must stay outside the checked
	// footprint while everything the idiom protects stays inside.
	concTurnAddr    = 4032
	concCounterBase = 4096
	concScratchBase = 4608 // one shared line; thread t owns word t
	concLockBase    = 5120 // lock l at +l*128; protected cells follow the lock word
	concDekkerBase  = 5888 // flag0 at +0, flag1 at +64, protected cell at +128
	concChanBase    = 8192 // channel e at +e*128: flag at +0, payload at +8...
	concPrivBase    = 16384
	concPrivWords   = 64 // private window size in words (power of two)
	concPrivStride  = 1024
	concMaxThreads  = 5
)

// Wide scenarios: a seed with concWideSeedBit set generates
// concWideMinThreads..concWideMaxThreads threads instead of the usual
// 2..concMaxThreads, exercising the directory's many-sharer paths and
// the clock's per-core loops on machines wider than a typical fuzz
// draw. The bit lives far above the small integers the
// seed corpus uses, so every historical seed keeps generating exactly
// the scenario its corpus filename describes.
const (
	concWideSeedBit    = int64(1) << 40
	concWideMinThreads = 16
	concWideMaxThreads = 24
)

// concPrivAddr returns thread t's private window base.
func concPrivAddr(t int) int64 { return concPrivBase + int64(t)*concPrivStride }

// concMemEnd returns the exclusive end of the scenario's memory footprint:
// every generated access falls in [concCounterBase, concMemEnd).
func concMemEnd(threads int) int64 { return concPrivAddr(threads) }

// ConcEntry returns thread t's entry-point name (shared by all variants).
func ConcEntry(t int) string { return fmt.Sprintf("t%d", t) }

// ConcProgram is one generated N-thread scenario in its three fence
// lowerings. All variants share entry names ("t0".."tN-1"), initial
// registers, and initial memory; they differ only in fence scopes,
// fs_start/fs_end brackets, and set flags — the instruction streams are
// otherwise identical, which TestGenConcurrentVariantsAligned pins down.
type ConcProgram struct {
	Seed       int64
	NumThreads int
	Variants   [NumVariants]*isa.Program
	// Regs holds per-thread initial data registers (R1-R12).
	Regs []map[isa.Reg]int64
	// Mem seeds the private windows (and nothing else: every shared
	// synchronization word starts at zero).
	Mem map[int64]int64
}

// GenConcurrent deterministically generates a random, guaranteed-
// terminating N-thread scenario for differential testing of the full
// machine: thread-private compute blocks (reusing the single-threaded
// generator), CAS counter contention on a shared line, spinlock-protected
// critical sections with commutative updates (optionally held across a
// delay loop so contenders busy-wait at length), a dekker-style flag/turn
// mutual-exclusion idiom between threads 0 and 1, message-passing channels
// in a chain or ring, and per-thread stores to a falsely-shared scratch
// line. The spin-heavy shapes (lock holds, dekker polling, channel waits)
// are deliberate: they drive the spin-aware fast-forward machinery through
// confirmation, remote-store demotion, and whole-period jumps, all under
// the bit-identity check against naive stepping.
// Synchronization is annotation-driven: the same scenario is lowered three
// times (traditional, class-scoped, set-scoped fences).
//
// Every idiom is determinate: the final contents of the scenario's memory
// footprint and of data registers R1-R12 are the same in every fair
// execution — sequentially consistent or relaxed-with-correct-fences —
// which is exactly what makes differential checking against the
// round-robin RunConc oracle sound (see DESIGN.md, "Differential
// fuzzing").
func GenConcurrent(seed int64) *ConcProgram {
	cp := &ConcProgram{Seed: seed}
	for v := Variant(0); v < NumVariants; v++ {
		cp.Variants[v], cp.NumThreads = emitConc(seed, v)
	}
	// Initial state comes from its own stream so it is identical for all
	// variants by construction.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed1e55c0ffee))
	cp.Regs = make([]map[isa.Reg]int64, cp.NumThreads)
	cp.Mem = map[int64]int64{}
	for t := 0; t < cp.NumThreads; t++ {
		regs := map[isa.Reg]int64{}
		for r := isa.R1; r <= isa.R12; r++ {
			regs[r] = rng.Int63n(1 << 20)
		}
		cp.Regs[t] = regs
		for i := 0; i < 24; i++ {
			cp.Mem[concPrivAddr(t)+rng.Int63n(concPrivWords)*8] = rng.Int63n(1 << 16)
		}
	}
	return cp
}

// concEdge is one message-passing channel: thread from produces a payload
// and flips the flag; thread (from+1) mod N spins on the flag and reads
// the payload back.
type concEdge struct {
	id   int
	from int
	vals []int64 // payload words (deterministic)
}

// concGen emits one variant of a scenario. All random draws happen in the
// same order for every variant (the lowering hooks never consume
// randomness), so the three instruction streams stay aligned.
type concGen struct {
	rng      *rand.Rand
	b        *isa.Builder
	l        lowering
	threads  int
	counters int
	locks    int
	edges    []concEdge
}

func emitConc(seed int64, v Variant) (*isa.Program, int) {
	g := &concGen{rng: rand.New(rand.NewSource(seed)), b: isa.NewBuilder(), l: lowering{v}}
	g.threads = 2 + g.rng.Intn(concMaxThreads-1)
	if seed&concWideSeedBit != 0 {
		// The narrow draw above still happens so non-wide seeds keep
		// their historical random stream; wide seeds just override the
		// thread count with a second draw.
		g.threads = concWideMinThreads + g.rng.Intn(concWideMaxThreads-concWideMinThreads+1)
	}
	g.counters = 1 + g.rng.Intn(3)
	g.locks = g.rng.Intn(3)
	nEdges := g.threads - 1 // chain t0 -> t1 -> ... by default
	if g.rng.Intn(2) == 1 {
		nEdges = g.threads // ring: the last thread feeds t0
	}
	for e := 0; e < nEdges; e++ {
		vals := make([]int64, 1+g.rng.Intn(4))
		for j := range vals {
			vals[j] = 1 + g.rng.Int63n(1<<16)
		}
		g.edges = append(g.edges, concEdge{id: e, from: e, vals: vals})
	}
	for t := 0; t < g.threads; t++ {
		g.b.Entry(ConcEntry(t))
		g.thread(t)
		g.b.Halt()
	}
	p, err := g.b.Build()
	if err != nil {
		panic(fmt.Sprintf("ref: generated concurrent program failed to assemble: %v", err))
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("ref: generated concurrent program failed validation: %v", err))
	}
	return p, g.threads
}

// outEdge returns the channel thread t produces on, if any.
func (g *concGen) outEdge(t int) *concEdge {
	for i := range g.edges {
		if g.edges[i].from == t {
			return &g.edges[i]
		}
	}
	return nil
}

// inEdge returns the channel thread t consumes from, if any.
func (g *concGen) inEdge(t int) *concEdge {
	from := (t - 1 + g.threads) % g.threads
	for i := range g.edges {
		if g.edges[i].from == from {
			return &g.edges[i]
		}
	}
	return nil
}

// thread emits thread t's body: a shuffled sequence of idiom phases with
// the produce phase strictly before the consume phase in program order.
// That single constraint keeps rings deadlock-free — every thread flips
// its outgoing flag unconditionally before it starts spinning on its
// incoming one — and therefore keeps every generated scenario terminating.
func (g *concGen) thread(t int) {
	var phases []func()
	phases = append(phases, func() { g.private(t) })
	for c := 0; c < g.counters; c++ {
		if g.rng.Intn(2) == 1 {
			c, times, delta := c, 1+g.rng.Intn(3), 1+g.rng.Int63n(9)
			phases = append(phases, func() { g.counterBump(c, times, delta) })
		}
	}
	for lk := 0; lk < g.locks; lk++ {
		if g.rng.Intn(2) == 1 {
			lk, cells, delta := lk, 1+g.rng.Intn(4), 1+g.rng.Int63n(9)
			hold := 0
			if g.rng.Intn(2) == 1 {
				hold = 8 + g.rng.Intn(17)
			}
			phases = append(phases, func() { g.critical(lk, cells, delta, hold) })
		}
	}
	if t < 2 && g.rng.Intn(2) == 1 {
		times, delta := 1+g.rng.Intn(4), 1+g.rng.Int63n(9)
		hold := 0
		if g.rng.Intn(2) == 1 {
			hold = 8 + g.rng.Intn(17)
		}
		phases = append(phases, func() { g.dekker(t, times, delta, hold) })
	}
	if g.rng.Intn(2) == 1 {
		phases = append(phases, func() { g.scratch(t) })
	}
	if g.rng.Intn(3) > 0 {
		phases = append(phases, func() { g.private(t) })
	}
	g.rng.Shuffle(len(phases), func(i, j int) { phases[i], phases[j] = phases[j], phases[i] })

	produceAt := -1
	if out := g.outEdge(t); out != nil {
		produceAt = g.rng.Intn(len(phases) + 1)
		phases = insertPhase(phases, produceAt, func() { g.produce(out) })
	}
	if in := g.inEdge(t); in != nil {
		lo := produceAt + 1
		at := lo + g.rng.Intn(len(phases)-lo+1)
		phases = insertPhase(phases, at, func() { g.consume(in, t) })
	}
	for _, ph := range phases {
		ph()
	}
}

func insertPhase(phases []func(), at int, ph func()) []func() {
	phases = append(phases, nil)
	copy(phases[at+1:], phases[at:])
	phases[at] = ph
	return phases
}

// private expands a random single-threaded compute block over thread t's
// private window. The block's own fences, loops, and nested fs brackets
// ride along identically in every variant: out-of-scope noise the scoped
// fences must not wait for, and in-scope nesting for the class hardware.
func (g *concGen) private(t int) {
	g.b.Inline(func(b *isa.Builder) {
		pg := &gen{rng: g.rng, b: b, base: concPrivAddr(t), words: concPrivWords}
		pg.block(1)
	})
}

// counterBump emits `times` CAS-increments of shared counter c by delta.
// The final counter value is the sum of all increments in every fair
// execution; the observed old/new scratch registers (R17/R18) are
// interleaving-dependent and excluded from the checked projection.
func (g *concGen) counterBump(c, times int, delta int64) {
	fenced := g.rng.Intn(2) == 1
	g.b.Inline(func(b *isa.Builder) {
		g.l.enter(b, cidCounter)
		b.MovI(isa.R16, concCounterBase+int64(c)*8)
		for i := 0; i < times; i++ {
			retry := fmt.Sprintf("retry%d", i)
			b.Label(retry)
			g.l.shared(b)
			b.Load(isa.R17, isa.R16, 0)
			b.AddI(isa.R18, isa.R17, delta)
			g.l.shared(b)
			b.CAS(isa.R19, isa.R16, 0, isa.R17, isa.R18)
			b.Beq(isa.R19, isa.R0, retry)
		}
		if fenced {
			g.l.fence(b)
		}
		g.l.exit(b, cidCounter)
	})
}

// critical emits a spinlock-protected critical section on lock lk: acquire
// by CAS(0->1), an acquire fence, commutative read-modify-writes of the
// protected cells, a release fence, and the unlock store. Mutual exclusion
// plus the two fences make the cell updates atomic with respect to every
// other thread, so the final cell values are interleaving-independent.
// A nonzero hold inserts a register-only delay loop while the lock is
// held, stretching the window in which contending threads busy-wait on
// the CAS — the spin-dominated shape the detector's fast path compresses.
func (g *concGen) critical(lk, cells int, delta int64, hold int) {
	base := concLockBase + int64(lk)*128
	g.b.Inline(func(b *isa.Builder) {
		g.l.enter(b, cidLock)
		b.MovI(isa.R16, base)
		b.MovI(isa.R17, 1)
		b.Label("acquire")
		g.l.shared(b)
		b.CAS(isa.R19, isa.R16, 0, isa.R0, isa.R17)
		b.Beq(isa.R19, isa.R0, "acquire")
		g.l.fence(b) // acquire: protected accesses stay after lock acquisition
		if hold > 0 {
			b.MovI(isa.R20, int64(hold))
			b.Label("hold")
			b.AddI(isa.R20, isa.R20, -1)
			b.Bne(isa.R20, isa.R0, "hold")
		}
		for j := 0; j < cells; j++ {
			g.l.shared(b)
			b.Load(isa.R18, isa.R16, int64(8*(1+j)))
			b.AddI(isa.R18, isa.R18, delta+int64(j))
			g.l.shared(b)
			b.Store(isa.R16, int64(8*(1+j)), isa.R18)
		}
		g.l.fence(b) // release: protected stores become visible before the unlock
		g.l.shared(b)
		b.Store(isa.R16, 0, isa.R0)
		g.l.exit(b, cidLock)
	})
}

// dekker emits a dekker-style mutual-exclusion idiom for thread t (only
// threads 0 and 1 participate): publish my flag, the classic store→load
// dekker fence, poll the peer's flag with turn-based backoff, then a
// non-atomic read-modify-write of the protected cell under acquire and
// release fences. Flag words sit on separate lines, so the loser's
// polling loop is a steady all-hit spin — together with the hold delay it
// is the generator's most spin-dominated shape, exercising confirmation,
// remote-store demotion (the winner's flag drop lands mid-spin), and
// spin-forward crediting in the differential check. The cell updates
// commute, so the final cell is deterministic; the turn word is not, and
// lives outside the checked footprint (see concTurnAddr).
func (g *concGen) dekker(t, times int, delta int64, hold int) {
	me := int64(concDekkerBase + t*64)
	peer := int64(concDekkerBase + (1-t)*64)
	g.b.Inline(func(b *isa.Builder) {
		g.l.enter(b, cidDekker)
		b.MovI(isa.R16, me)
		b.MovI(isa.R17, peer)
		b.MovI(isa.R18, concTurnAddr)
		b.MovI(isa.R22, concDekkerBase+128)
		b.MovI(isa.R21, int64(times))
		b.Label("iter")
		b.MovI(isa.R20, 1)
		g.l.shared(b)
		b.Store(isa.R16, 0, isa.R20) // flag[me] = 1
		g.l.fence(b)                 // dekker: my flag store before the peer-flag load
		b.Label("try")
		g.l.shared(b)
		b.Load(isa.R19, isa.R17, 0)
		b.Beq(isa.R19, isa.R0, "enter")
		g.l.shared(b)
		b.Load(isa.R19, isa.R18, 0)
		b.XorI(isa.R19, isa.R19, int64(t))
		b.Beq(isa.R19, isa.R0, "try") // my turn: keep polling the peer flag
		g.l.shared(b)
		b.Store(isa.R16, 0, isa.R0) // back off: drop my flag until my turn
		b.Label("waitturn")
		g.l.shared(b)
		b.Load(isa.R19, isa.R18, 0)
		b.XorI(isa.R19, isa.R19, int64(t))
		b.Bne(isa.R19, isa.R0, "waitturn")
		g.l.shared(b)
		b.Store(isa.R16, 0, isa.R20) // re-publish and retry
		g.l.fence(b)
		b.Jmp("try")

		b.Label("enter")
		g.l.fence(b) // acquire: the peer-flag read completes before the cell load
		if hold > 0 {
			b.MovI(isa.R20, int64(hold))
			b.Label("hold")
			b.AddI(isa.R20, isa.R20, -1)
			b.Bne(isa.R20, isa.R0, "hold")
		}
		g.l.shared(b)
		b.Load(isa.R19, isa.R22, 0)
		b.AddI(isa.R19, isa.R19, delta)
		g.l.shared(b)
		b.Store(isa.R22, 0, isa.R19)
		g.l.fence(b) // release: the cell store is visible before the flag drops
		b.MovI(isa.R19, int64(1-t))
		g.l.shared(b)
		b.Store(isa.R18, 0, isa.R19) // turn = peer
		g.l.shared(b)
		b.Store(isa.R16, 0, isa.R0) // flag[me] = 0
		b.AddI(isa.R21, isa.R21, -1)
		b.Bne(isa.R21, isa.R0, "iter")
		g.l.exit(b, cidDekker)
	})
}

// produce writes channel e's payload and then flips its flag, with a
// release fence in between: the consumer must never observe the flag
// without the payload.
func (g *concGen) produce(e *concEdge) {
	base := concChanBase + int64(e.id)*128
	g.b.Inline(func(b *isa.Builder) {
		g.l.enter(b, cidChan)
		b.MovI(isa.R16, base)
		for j, v := range e.vals {
			b.MovI(isa.R17, v)
			g.l.shared(b)
			b.Store(isa.R16, int64(8*(1+j)), isa.R17)
		}
		g.l.fence(b) // release: payload visible before the flag flips
		b.MovI(isa.R17, 1)
		g.l.shared(b)
		b.Store(isa.R16, 0, isa.R17)
		g.l.exit(b, cidChan)
	})
}

// consume spins on channel e's flag, then — after an acquire fence — reads
// the payload, folding it into a random checked data register and storing
// the sum into the consumer's private window.
func (g *concGen) consume(e *concEdge, t int) {
	base := concChanBase + int64(e.id)*128
	acc := g.rng.Intn(12) // offset into R1-R12: part of the checked projection
	slot := g.rng.Int63n(concPrivWords) * 8
	g.b.Inline(func(b *isa.Builder) {
		accReg := isa.Reg(1 + acc)
		g.l.enter(b, cidChan)
		b.MovI(isa.R16, base)
		b.Label("spin")
		g.l.shared(b)
		b.Load(isa.R17, isa.R16, 0)
		b.Beq(isa.R17, isa.R0, "spin")
		g.l.fence(b) // acquire: payload reads stay after the flag observation
		for j := range e.vals {
			g.l.shared(b)
			b.Load(isa.R18, isa.R16, int64(8*(1+j)))
			b.Add(accReg, accReg, isa.R18)
		}
		g.l.exit(b, cidChan)
		b.MovI(isa.R16, concPrivAddr(t)+slot)
		b.Store(isa.R16, 0, accReg)
	})
}

// scratch hammers thread t's own word of the shared scratch line: heavy
// false-sharing coherence traffic with a deterministic final value, and —
// being outside every scope — traffic that a correctly scoped fence must
// not wait for.
func (g *concGen) scratch(t int) {
	n := 2 + g.rng.Intn(4)
	val := g.rng.Int63n(1 << 16)
	g.b.Inline(func(b *isa.Builder) {
		b.MovI(isa.R16, concScratchBase)
		for i := 0; i < n; i++ {
			b.MovI(isa.R17, val+int64(i))
			b.Store(isa.R16, int64(8*t), isa.R17)
		}
	})
}
