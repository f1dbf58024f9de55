package cpu

import (
	"slices"
	"testing"

	"sfence/internal/isa"
	"sfence/internal/memsys"
)

// decodeRecorder collects the seqs decoded during one Tick, and the
// opcode at which each squash of the run started. lastSquash is the seq
// the Tick last squashed, -2 before any: a squash traces its entries in
// ascending seq order, and a later squash in the same Tick starts below
// the earlier one.
type decodeRecorder struct {
	seqs       []uint64
	squashAt   []isa.Op
	lastSquash int64
}

func (r *decodeRecorder) Trace(_ int64, _ int, ev TraceEvent, seq uint64, in isa.Instruction, _ int64) {
	switch ev {
	case TraceDecode:
		r.seqs = append(r.seqs, seq)
	case TraceSquash:
		if int64(seq) != r.lastSquash+1 {
			r.squashAt = append(r.squashAt, in.Op)
		}
		r.lastSquash = int64(seq)
	}
}

// Reasons a waiting entry may legitimately stay waiting after a schedule
// pass.
const (
	waitOperand    = "operand"          // a producer has not completed
	waitStoreAddr  = "older address"    // load: an older store/CAS address is unresolved
	waitStoreData  = "older store data" // load: a same-address older store has not completed
	waitCASDone    = "older CAS"        // load: a same-address older CAS has not completed
	waitHead       = "head"             // CAS: not the oldest entry
	waitDrain      = "drain"            // CAS: a same-address store-buffer entry
	waitSurvivor   = "squash survivor"  // a waiting entry outlived a squash
	waitNotBlocked = ""
)

func bit(words []uint64, slot uint64) bool { return words[slot>>6]>>(slot&63)&1 != 0 }

// registered reports whether the entry in slot consumer sits on the wake
// list of producer seq src for operand k.
func (c *Core) registered(src int64, consumer uint64, k int) bool {
	want := int32(consumer)*3 + int32(k)
	for id := c.wakeHead[src&int64(c.robMask)]; id >= 0; id = c.wakeNext[id] {
		if id == want {
			return true
		}
	}
	return false
}

// olderMemBlocker restates olderStoreBlocks' rule: it names why a load at
// addr waits and the seq of the store or CAS it waits on, or -1.
func (c *Core) olderMemBlocker(seq uint64, addr int64) (string, int64) {
	for s := seq; s > c.head; {
		s--
		f := c.slot(s)
		if f.inst.Op != isa.OpStore && f.inst.Op != isa.OpCAS {
			continue
		}
		switch {
		case !f.addrOK:
			return waitStoreAddr, int64(s)
		case f.addr != addr:
			continue
		case f.stage == stDone:
			return waitNotBlocked, -1 // forwards, or reads the CAS result
		case f.inst.Op == isa.OpStore:
			return waitStoreData, int64(s)
		}
		return waitCASDone, int64(s)
	}
	return waitNotBlocked, -1
}

// checkStoreChain checks the olderStore links against the window: from
// every in-flight entry they must reach exactly the older in-flight stores
// and CASes, youngest first, and lastStore must be the youngest of the
// window or lie below head.
func checkStoreChain(t *testing.T, c *Core) {
	t.Helper()
	var stores []uint64 // in-flight stores and CASes, ascending
	for seq := c.head; seq < c.tail; seq++ {
		var got []uint64
		for s := seq; ; {
			d := uint64(c.slot(s).olderStore)
			if d == 0 || s-c.head < d {
				break
			}
			s -= d
			got = append(got, s)
		}
		want := make([]uint64, 0, len(stores))
		for i := len(stores) - 1; i >= 0; i-- {
			want = append(want, stores[i])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: seq %d (%s) links to %v, want the older stores and CASes %v",
				c.cycle, seq, c.slot(seq).inst, got, want)
		}
		if op := c.slot(seq).inst.Op; op == isa.OpStore || op == isa.OpCAS {
			stores = append(stores, seq)
		}
	}
	switch {
	case len(stores) > 0 && c.lastStore != int64(stores[len(stores)-1]):
		t.Fatalf("cycle %d: lastStore %d, want the youngest store or CAS %d", c.cycle, c.lastStore, stores[len(stores)-1])
	case len(stores) == 0 && c.lastStore >= int64(c.head):
		t.Fatalf("cycle %d: lastStore %d in a window [%d, %d) without stores", c.cycle, c.lastStore, c.head, c.tail)
	}
}

// blockedOn maps each load slot on a blocker list to the slots of the
// lists it sits on.
func (c *Core) blockedOn() map[uint64][]uint64 {
	on := map[uint64][]uint64{}
	for b := range c.blockHead {
		for id := c.blockHead[b]; id >= 0; id = c.blockNext[id] {
			on[uint64(id)] = append(on[uint64(id)], uint64(b))
		}
	}
	return on
}

// gated reports whether a registered, not-done producer gates the first
// try of the waiting entry at seq: the address operand of a store or
// CAS, any operand of anything else.
func (c *Core) gated(seq uint64) bool {
	e := c.slot(seq)
	srcs := []int64{e.src1, e.src2, e.src3}
	if e.inst.Op == isa.OpStore || e.inst.Op == isa.OpCAS {
		srcs = srcs[:1]
	}
	for k, src := range srcs {
		if !c.srcReady(src) && c.registered(src, seq&c.robMask, k) {
			return true
		}
	}
	return false
}

// waitReason proves the waiting entry at seq blocked and says by what, or
// reports a failure. Every not-done producer operand must be registered on
// that producer's wake list, except the data operands of a store or CAS
// whose address is unresolved, which must not be (they register when the
// address resolves); and a load with a resolved address must sit on the
// blocker list of exactly the entry olderMemBlocker names. on maps load
// slots to the blocker lists they sit on.
func (c *Core) waitReason(t *testing.T, seq uint64, on map[uint64][]uint64) string {
	t.Helper()
	e := c.slot(seq)
	slot := seq & c.robMask
	lateAddr := !e.addrOK && (e.inst.Op == isa.OpStore || e.inst.Op == isa.OpCAS)
	operand := false
	for k, src := range [3]int64{e.src1, e.src2, e.src3} {
		if c.srcReady(src) {
			continue
		}
		operand = true
		switch reg := c.registered(src, slot, k); {
		case k > 0 && lateAddr && reg:
			t.Errorf("seq %d (%s): data operand %d is on the wake list of seq %d before the address resolved", seq, e.inst, k, src)
		case !(k > 0 && lateAddr) && !reg:
			t.Errorf("seq %d (%s): operand %d waits on seq %d but is not on its wake list", seq, e.inst, k, src)
		}
	}
	switch e.inst.Op {
	case isa.OpLoad:
		if !e.addrOK {
			if !operand {
				t.Errorf("seq %d (%s): address operand ready but not resolved", seq, e.inst)
			}
			if len(on[slot]) != 0 {
				t.Errorf("seq %d (%s): unresolved load on blocker lists %v", seq, e.inst, on[slot])
			}
			return waitOperand
		}
		why, blocker := c.olderMemBlocker(seq, e.addr)
		checks := c.storeChecks // the core's count excludes this probe
		got, _, _ := c.olderStoreBlocks(seq, e.addr)
		c.storeChecks = checks
		if got != blocker {
			t.Fatalf("seq %d (%s): olderStoreBlocks stops at %d, want %d (%q)", seq, e.inst, got, blocker, why)
		}
		if blocker >= 0 {
			want := []uint64{uint64(blocker) & c.robMask}
			if got := on[slot]; len(got) != 1 || got[0] != want[0] {
				t.Errorf("seq %d (%s): on blocker lists %v, want %v (seq %d, %q)", seq, e.inst, got, want, blocker, why)
			}
		}
		return why
	case isa.OpStore, isa.OpCAS:
		if e.addrOK != c.srcReady(e.src1) {
			t.Errorf("seq %d (%s): addrOK %v with address operand ready %v", seq, e.inst, e.addrOK, c.srcReady(e.src1))
		}
	}
	if operand {
		return waitOperand
	}
	if e.inst.Op == isa.OpCAS {
		if seq != c.head {
			return waitHead
		}
		for i := range c.sb {
			if c.sb[i].addr == e.addr {
				return waitDrain
			}
		}
	}
	return waitNotBlocked
}

// checkFixedPoint asserts what a finished schedule pass leaves behind.
// Fetch runs after schedule within a Tick, so the only marked slots are
// the ones decoded in this Tick (tried first in the next one): a fresh
// waiting entry is marked exactly when no registered, not-done producer
// gates its first try, and a fresh done entry is not marked. Every other
// waiting entry must be provably blocked, and only waiting loads with a
// resolved address may sit on blocker lists. It returns the wait reasons
// seen.
func checkFixedPoint(t *testing.T, c *Core, decoded []uint64) map[string]bool {
	t.Helper()
	fresh := map[uint64]bool{}
	marked := false
	for _, seq := range decoded {
		slot := seq & c.robMask
		fresh[slot] = true
		e := c.slot(seq)
		want := e.stage == stWaiting && !c.gated(seq)
		if got := bit(c.readyBits, slot); got != want {
			t.Errorf("cycle %d: seq %d (%s) decoded with mark %v, want %v (stage %d, gated %v)",
				c.cycle, seq, e.inst, got, want, e.stage, c.gated(seq))
		}
		marked = marked || want
	}
	for slot := uint64(0); slot < uint64(len(c.entries)); slot++ {
		if bit(c.readyBits, slot) && !fresh[slot] {
			t.Errorf("cycle %d: slot %d still marked after the schedule pass", c.cycle, slot)
		}
	}
	if c.wakePending != marked {
		t.Errorf("cycle %d: wakePending %v with marked decodes %v", c.cycle, c.wakePending, marked)
	}
	nodes := map[int32]int{}
	for p := range c.wakeHead {
		for id := c.wakeHead[p]; id >= 0; id = c.wakeNext[id] {
			if nodes[id]++; nodes[id] == 2 {
				t.Errorf("cycle %d: node %d (slot %d, operand %d) is on the wake lists twice", c.cycle, id, id/3, id%3)
			}
		}
	}
	on := c.blockedOn()
	for slot := range on {
		seq := c.head + (slot-c.head)&c.robMask
		if e := c.slot(seq); seq >= c.tail || e.inst.Op != isa.OpLoad || e.stage != stWaiting || !e.addrOK {
			t.Errorf("cycle %d: slot %d sits on blocker lists %v but holds no blocked load", c.cycle, slot, on[slot])
		}
	}
	seen := map[string]bool{}
	for seq := c.head; seq < c.tail; seq++ {
		e := c.slot(seq)
		if e.stage != stWaiting || fresh[seq&c.robMask] {
			continue
		}
		why := c.waitReason(t, seq, on)
		if why == waitNotBlocked {
			t.Errorf("cycle %d: seq %d (%s) waits with nothing to wait on", c.cycle, seq, e.inst)
		}
		seen[why] = true
	}
	return seen
}

// runFixedPoint runs a single-core program tick by tick, checking the
// scheduler's fixed point and the store chain after each one, and returns
// the core, its memory image, every wait reason observed and the opcodes
// at which squashes started.
func runFixedPoint(t *testing.T, cfg Config, p *isa.Program) (*Core, *memsys.Image, map[string]bool, []isa.Op) {
	t.Helper()
	img := memsys.NewImage(1 << 20)
	c, err := NewCore(0, cfg, p, p.MustEntry("main"), nil, img, memsys.MustHierarchy(1, memsys.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	rec := &decodeRecorder{}
	c.SetTracer(rec)
	seen := map[string]bool{}
	for cycle := int64(0); !c.Done(); cycle++ {
		if c.Fault() != nil {
			t.Fatalf("core fault: %v", c.Fault())
		}
		if cycle > 100_000 {
			t.Fatal("runaway program")
		}
		rec.seqs, rec.lastSquash = rec.seqs[:0], -2
		squashed := c.stats.Squashed
		c.Tick(cycle)
		for why := range checkFixedPoint(t, c, rec.seqs) {
			seen[why] = true
		}
		checkStoreChain(t, c)
		if c.stats.Squashed > squashed {
			for seq := c.head; seq < c.tail; seq++ {
				if c.slot(seq).stage == stWaiting {
					seen[waitSurvivor] = true
				}
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	return c, img, seen, rec.squashAt
}

// TestSchedulerFixedPoint drives one program per wake source and checks,
// after every tick, that the marked pass left no startable entry behind.
func TestSchedulerFixedPoint(t *testing.T) {
	const a = 4096
	cases := []struct {
		name  string
		build func(b *isa.Builder)
		want  []string // wait reasons the program must exhibit
		reg   isa.Reg  // reg must end with val
		val   int64
		mem   [2]int64 // and word mem[0] must hold mem[1]
		// failed is the exact count of tries that start nothing. A
		// load's first try resolves its address; a blocked load is tried
		// again only when its blocker moves; an entry with two
		// outstanding producers is tried when the first completes; but a
		// store or CAS is not tried for its data while its address is
		// unresolved. A wake rule that marks an entry whose try cannot
		// change anything raises it.
		failed uint64
	}{
		{
			name: "load behind a store whose address comes from a div",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R2, 7)
				b.MovI(isa.R9, 1)
				b.Div(isa.R3, isa.R1, isa.R9)
				b.Store(isa.R3, 8, isa.R2)
				b.Load(isa.R4, isa.R1, 0)
				b.AddI(isa.R5, isa.R4, 1)
			},
			want: []string{waitStoreAddr},
			reg:  isa.R5, val: 1, mem: [2]int64{a + 8, 7},
			failed: 1,
		},
		{
			// The older store resolves and completes first. The load stays
			// unmarked on the younger store's list until that store
			// resolves: its one failed try is its first (the other is the
			// third div's, when r9 arrives before r6).
			name: "load behind two unresolved stores, the older resolving first",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R2, 7)
				b.MovI(isa.R9, 1)
				b.Div(isa.R3, isa.R1, isa.R9)
				b.Div(isa.R6, isa.R1, isa.R9)
				b.Div(isa.R7, isa.R6, isa.R9)
				b.Store(isa.R3, 8, isa.R2)
				b.Store(isa.R7, 16, isa.R2)
				b.Load(isa.R4, isa.R1, 0)
				b.AddI(isa.R5, isa.R4, 1)
			},
			want: []string{waitStoreAddr},
			reg:  isa.R5, val: 1, mem: [2]int64{a + 16, 7},
			failed: 2,
		},
		{
			// The younger store resolves to another address while an
			// older same-address store still waits for its data: the load
			// moves to the older store's list. It fails twice, on its
			// first try and when the younger store resolves.
			name: "load re-registering on an older same-address store",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R2, 7)
				b.MovI(isa.R9, 1)
				b.Div(isa.R3, isa.R2, isa.R9)
				b.Div(isa.R3, isa.R3, isa.R9)
				b.Div(isa.R3, isa.R3, isa.R9)
				b.Div(isa.R7, isa.R1, isa.R9)
				b.Store(isa.R1, 0, isa.R3)
				b.Store(isa.R7, 16, isa.R2)
				b.Load(isa.R4, isa.R1, 0)
			},
			want: []string{waitStoreAddr, waitStoreData},
			reg:  isa.R4, val: 7, mem: [2]int64{a, 7},
			failed: 5,
		},
		{
			// The data producer completes while the address still
			// waits on the div: the store is not tried for it, so no
			// try fails.
			name: "store whose data arrives before its address",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R9, 1)
				b.MovI(isa.R2, 7)
				b.Div(isa.R3, isa.R1, isa.R9)
				b.Store(isa.R3, 0, isa.R2)
			},
			want: []string{waitOperand},
			reg:  isa.R3, val: a, mem: [2]int64{a, 7},
			failed: 0,
		},
		{
			// The same for a CAS's new value: the div retires before the
			// CAS's try, so the try that resolves the address starts it.
			name: "CAS whose data arrives before its address",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R9, 1)
				b.MovI(isa.R2, 5)
				b.Div(isa.R3, isa.R1, isa.R9)
				b.CAS(isa.R5, isa.R3, 0, isa.R0, isa.R2)
			},
			want: []string{waitOperand},
			reg:  isa.R5, val: 1, mem: [2]int64{a, 5},
			failed: 0,
		},
		{
			name: "load forwarding from a store whose data arrives late",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R2, 5)
				b.MovI(isa.R9, 1)
				b.Div(isa.R3, isa.R2, isa.R9)
				b.Store(isa.R1, 0, isa.R3)
				b.Load(isa.R4, isa.R1, 0)
			},
			want: []string{waitStoreData},
			reg:  isa.R4, val: 5, mem: [2]int64{a, 5},
			failed: 2,
		},
		{
			name: "load behind a same-address CAS",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R3, 9)
				b.CAS(isa.R4, isa.R1, 0, isa.R0, isa.R3)
				b.Load(isa.R5, isa.R1, 0)
			},
			want: []string{waitCASDone},
			reg:  isa.R5, val: 9, mem: [2]int64{a, 9},
			failed: 1,
		},
		{
			name: "CAS behind a same-address store-buffer entry",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R2, 3)
				b.Store(isa.R1, 0, isa.R2)
				b.MovI(isa.R3, 3)
				b.MovI(isa.R4, 8)
				b.CAS(isa.R5, isa.R1, 0, isa.R3, isa.R4)
			},
			want: []string{waitDrain},
			reg:  isa.R5, val: 1, mem: [2]int64{a, 8},
			failed: 2,
		},
		{
			name: "CAS behind older work",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R9, 1)
				b.Div(isa.R6, isa.R1, isa.R9)
				b.Div(isa.R7, isa.R6, isa.R9)
				b.CAS(isa.R5, isa.R1, 0, isa.R0, isa.R9)
			},
			want: []string{waitHead},
			reg:  isa.R5, val: 1, mem: [2]int64{a, 1},
			failed: 2,
		},
		{
			name: "mispredict squashing with waiting survivors",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R9, 1)
				b.Div(isa.R6, isa.R1, isa.R9)
				b.Div(isa.R7, isa.R6, isa.R9)
				b.Store(isa.R7, 0, isa.R9)
				b.Load(isa.R5, isa.R1, 8)
				// A forward branch is predicted not taken; this one is
				// taken, so the wrong path below is squashed while the
				// div chain, the store and the load still wait.
				b.Beq(isa.R0, isa.R0, "taken")
				b.AddI(isa.R5, isa.R5, 100)
				b.Load(isa.R8, isa.R1, 16)
				b.Label("taken")
				b.AddI(isa.R5, isa.R5, 2)
			},
			want: []string{waitSurvivor, waitOperand, waitStoreAddr},
			reg:  isa.R5, val: 2, mem: [2]int64{a, 1},
			failed: 2,
		},
	}
	for _, tc := range cases {
		for _, spec := range []bool{false, true} {
			name := tc.name
			if spec {
				name += "/spec"
			}
			t.Run(name, func(t *testing.T) {
				b := isa.NewBuilder()
				b.Entry("main")
				tc.build(b)
				b.Halt()
				cfg := DefaultConfig()
				cfg.InWindowSpec = spec
				c, img, seen, _ := runFixedPoint(t, cfg, b.MustBuild())
				if got := c.tries - c.starts; got != tc.failed {
					t.Errorf("%d tries started nothing (%d tries, %d starts), want %d", got, c.tries, c.starts, tc.failed)
				}
				for _, why := range tc.want {
					if !seen[why] {
						t.Errorf("never saw a %q wait (saw %v)", why, seen)
					}
				}
				if got := c.Reg(tc.reg); got != tc.val {
					t.Errorf("r%d = %d, want %d", tc.reg, got, tc.val)
				}
				if got := img.Load(tc.mem[0]); got != tc.mem[1] {
					t.Errorf("mem[%d] = %d, want %d", tc.mem[0], got, tc.mem[1])
				}
			})
		}
	}
}

// TestStoreChain drives the olderStore links through the shapes that can
// break them: loads behind non-memory entries, squashes that rewind
// lastStore, and a ROB that wraps. runFixedPoint checks after every tick
// that olderStoreBlocks stops where olderMemBlocker does and that the
// links reach exactly the window's older stores and CASes.
func TestStoreChain(t *testing.T) {
	const a = 4096
	cases := []struct {
		name     string
		rob      int // ROBSize; 0 keeps the default
		build    func(b *isa.Builder)
		want     []string // wait reasons the program must exhibit
		squashAt []isa.Op // the opcodes at which squashes start, ascending
		reg      isa.Reg  // reg must end with val
		val      int64
		mem      [2]int64 // and word mem[0] must hold mem[1]
		// checks is the exact count of stores and CASes olderStoreBlocks
		// visits; a walk that visits other entries raises it.
		checks uint64
	}{
		{
			// The load passes store B (another address) and waits on
			// store A's late data; the ALU ops and the correctly
			// predicted branches between them are never visited. Its
			// first try visits B and A; A completes and retires in one
			// tick, so its second visits B alone and forwards from the
			// store buffer.
			name: "load behind ALU ops and branches between two stores",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R2, 7)
				b.MovI(isa.R9, 1)
				b.Div(isa.R3, isa.R2, isa.R9)
				b.Store(isa.R1, 0, isa.R3)
				b.AddI(isa.R5, isa.R1, 8)
				b.Xor(isa.R6, isa.R5, isa.R9)
				b.Bne(isa.R0, isa.R0, "skip")
				b.AddI(isa.R6, isa.R6, 1)
				b.Label("skip")
				b.Beq(isa.R9, isa.R0, "skip2")
				b.Store(isa.R5, 0, isa.R2)
				b.Mul(isa.R7, isa.R6, isa.R9)
				b.Label("skip2")
				b.Load(isa.R4, isa.R1, 0)
			},
			want: []string{waitStoreData},
			reg:  isa.R4, val: 7, mem: [2]int64{a + 8, 7},
			checks: 3,
		},
		{
			// A mispredicted branch squashes a wrong path that starts
			// with a store, and the second div keeps store A in flight
			// past the redirect. The load first runs down the wrong path
			// (it visits the wrong-path store and A); decoded again after
			// the redirect, it takes the seq the squashed store had, and
			// only the rewound lastStore links it to A, from which it
			// forwards (one check). Without the link it would read
			// memory, which A has not reached.
			name: "squash starting at a store",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R2, 7)
				b.MovI(isa.R9, 1)
				b.Div(isa.R6, isa.R1, isa.R9)
				b.Div(isa.R7, isa.R6, isa.R9)
				b.Store(isa.R1, 0, isa.R2)
				b.Beq(isa.R6, isa.R6, "taken")
				b.Store(isa.R1, 8, isa.R2)
				b.AddI(isa.R5, isa.R5, 100)
				b.Label("taken")
				b.Load(isa.R4, isa.R1, 0)
				b.AddI(isa.R5, isa.R4, 1)
			},
			squashAt: []isa.Op{isa.OpStore},
			reg:      isa.R5, val: 8, mem: [2]int64{a, 7},
			checks: 3,
		},
		{
			name: "squash starting at a CAS",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R2, 7)
				b.MovI(isa.R9, 1)
				b.Div(isa.R6, isa.R1, isa.R9)
				b.Div(isa.R7, isa.R6, isa.R9)
				b.Store(isa.R1, 0, isa.R2)
				b.Beq(isa.R6, isa.R6, "taken")
				b.CAS(isa.R8, isa.R1, 8, isa.R0, isa.R2)
				b.AddI(isa.R5, isa.R5, 100)
				b.Label("taken")
				b.Load(isa.R4, isa.R1, 0)
				b.AddI(isa.R5, isa.R4, 1)
			},
			squashAt: []isa.Op{isa.OpCAS},
			reg:      isa.R5, val: 8, mem: [2]int64{a, 7},
			checks: 3,
		},
		{
			// The wrong path starts with a branch and holds a store; the
			// load after the redirect must skip it and wait on the CAS.
			name: "squash starting at a branch",
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R2, 7)
				b.MovI(isa.R9, 1)
				b.Div(isa.R6, isa.R1, isa.R9)
				b.CAS(isa.R8, isa.R1, 0, isa.R0, isa.R2)
				b.Beq(isa.R6, isa.R6, "taken")
				b.Bne(isa.R0, isa.R0, "taken")
				b.Store(isa.R1, 0, isa.R9)
				b.Label("taken")
				b.Load(isa.R4, isa.R1, 0)
				b.AddI(isa.R5, isa.R4, 1)
			},
			want:     []string{waitCASDone},
			squashAt: []isa.Op{isa.OpBne},
			reg:      isa.R5, val: 8, mem: [2]int64{a, 7},
			checks: 2,
		},
		{
			// An 8-entry ROB wraps many times over a loop that stores
			// and reloads one word, with a second store on odd
			// iterations behind a branch the predictor keeps missing, so
			// squashes start at that store inside a wrapped window (and
			// at the loop head when the exit is mispredicted).
			name: "ROB wrap-around",
			rob:  8,
			build: func(b *isa.Builder) {
				b.MovI(isa.R1, a)
				b.MovI(isa.R2, 0)
				b.MovI(isa.R3, 12)
				b.Label("loop")
				b.AddI(isa.R2, isa.R2, 1)
				b.Store(isa.R1, 0, isa.R2)
				b.AndI(isa.R6, isa.R2, 1)
				b.Beq(isa.R6, isa.R0, "even")
				b.Store(isa.R1, 8, isa.R2)
				b.Label("even")
				b.Load(isa.R4, isa.R1, 0)
				b.Add(isa.R5, isa.R5, isa.R4)
				b.Blt(isa.R2, isa.R3, "loop")
			},
			want:     []string{waitOperand},
			squashAt: []isa.Op{isa.OpAddI, isa.OpStore},
			reg:      isa.R5, val: 78, mem: [2]int64{a + 8, 11},
			checks: 9,
		},
	}
	for _, tc := range cases {
		for _, spec := range []bool{false, true} {
			name := tc.name
			if spec {
				name += "/spec"
			}
			t.Run(name, func(t *testing.T) {
				b := isa.NewBuilder()
				b.Entry("main")
				tc.build(b)
				b.Halt()
				cfg := DefaultConfig()
				cfg.InWindowSpec = spec
				if tc.rob != 0 {
					cfg.ROBSize = tc.rob
				}
				c, img, seen, squashAt := runFixedPoint(t, cfg, b.MustBuild())
				slices.Sort(squashAt)
				if got := slices.Compact(squashAt); !slices.Equal(got, tc.squashAt) {
					t.Errorf("squashes started at %v, want %v", got, tc.squashAt)
				}
				if c.storeChecks != tc.checks {
					t.Errorf("%d store checks, want %d", c.storeChecks, tc.checks)
				}
				for _, why := range tc.want {
					if !seen[why] {
						t.Errorf("never saw a %q wait (saw %v)", why, seen)
					}
				}
				if got := c.Reg(tc.reg); got != tc.val {
					t.Errorf("r%d = %d, want %d", tc.reg, got, tc.val)
				}
				if got := img.Load(tc.mem[0]); got != tc.mem[1] {
					t.Errorf("mem[%d] = %d, want %d", tc.mem[0], got, tc.mem[1])
				}
			})
		}
	}
}
