package cpu

import (
	"testing"

	"sfence/internal/isa"
	"sfence/internal/memsys"
)

// decodeRecorder collects the seqs decoded during one Tick.
type decodeRecorder struct{ seqs []uint64 }

func (r *decodeRecorder) Trace(_ int64, _ int, ev TraceEvent, seq uint64, _ isa.Instruction, _ int64) {
	if ev == TraceDecode {
		r.seqs = append(r.seqs, seq)
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

// olderMemBlocker restates olderStoreBlocks' rule and names the blocker.
func (c *Core) olderMemBlocker(seq uint64, addr int64) string {
	for s := seq; s > c.head; {
		s--
		f := c.slot(s)
		if f.inst.Op != isa.OpStore && f.inst.Op != isa.OpCAS {
			continue
		}
		switch {
		case !f.addrOK:
			return waitStoreAddr
		case f.addr != addr:
			continue
		case f.stage == stDone:
			return waitNotBlocked // forwards, or reads the CAS result
		case f.inst.Op == isa.OpStore:
			return waitStoreData
		}
		return waitCASDone
	}
	return waitNotBlocked
}

// waitReason proves the waiting entry at seq blocked and says by what, or
// reports a failure. Every not-done producer operand must be registered on
// that producer's wake list.
func (c *Core) waitReason(t *testing.T, seq uint64) string {
	t.Helper()
	e := c.slot(seq)
	slot := seq & c.robMask
	operand := false
	for k, src := range [3]int64{e.src1, e.src2, e.src3} {
		if c.srcReady(src) {
			continue
		}
		operand = true
		if !c.registered(src, slot, k) {
			t.Errorf("seq %d (%s): operand %d waits on seq %d but is not on its wake list", seq, e.inst, k, src)
		}
	}
	switch e.inst.Op {
	case isa.OpLoad:
		if got, want := bit(c.memWait, slot), e.addrOK; got != want {
			t.Errorf("seq %d (%s): memWait %v, want %v (waiting load, addrOK %v)", seq, e.inst, got, want, e.addrOK)
		}
		if !e.addrOK {
			if !operand {
				t.Errorf("seq %d (%s): address operand ready but not resolved", seq, e.inst)
			}
			return waitOperand
		}
		why := c.olderMemBlocker(seq, e.addr)
		if blocked, _, _ := c.olderStoreBlocks(seq, e.addr); blocked != (why != waitNotBlocked) {
			t.Fatalf("seq %d (%s): olderStoreBlocks %v disagrees with %q", seq, e.inst, blocked, why)
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
// the ones decoded in this Tick (tried first in the next one). Every other
// waiting entry must be provably blocked, and memWait must equal "waiting
// load with a resolved address" across the window. It returns the wait
// reasons seen.
func checkFixedPoint(t *testing.T, c *Core, decoded []uint64) map[string]bool {
	t.Helper()
	fresh := map[uint64]bool{}
	for _, seq := range decoded {
		fresh[seq&c.robMask] = true
		if !bit(c.readyBits, seq&c.robMask) {
			t.Errorf("cycle %d: seq %d decoded but not marked", c.cycle, seq)
		}
	}
	for slot := uint64(0); slot < uint64(len(c.entries)); slot++ {
		if bit(c.readyBits, slot) && !fresh[slot] {
			t.Errorf("cycle %d: slot %d still marked after the schedule pass", c.cycle, slot)
		}
	}
	if c.wakePending != (len(decoded) > 0) {
		t.Errorf("cycle %d: wakePending %v with %d decodes", c.cycle, c.wakePending, len(decoded))
	}
	seen := map[string]bool{}
	for seq := c.head; seq < c.tail; seq++ {
		e := c.slot(seq)
		if e.inst.Op == isa.OpLoad && e.stage != stWaiting && bit(c.memWait, seq&c.robMask) {
			t.Errorf("cycle %d: seq %d (%s) started but keeps its memWait bit", c.cycle, seq, e.inst)
		}
		if e.stage != stWaiting || fresh[seq&c.robMask] {
			continue
		}
		why := c.waitReason(t, seq)
		if why == waitNotBlocked {
			t.Errorf("cycle %d: seq %d (%s) waits with nothing to wait on", c.cycle, seq, e.inst)
		}
		seen[why] = true
	}
	return seen
}

// runFixedPoint runs a single-core program tick by tick, checking the
// scheduler's fixed point after each one, and returns the core, its memory
// image and every wait reason observed.
func runFixedPoint(t *testing.T, cfg Config, p *isa.Program) (*Core, *memsys.Image, map[string]bool) {
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
		rec.seqs = rec.seqs[:0]
		squashed := c.stats.Squashed
		c.Tick(cycle)
		for why := range checkFixedPoint(t, c, rec.seqs) {
			seen[why] = true
		}
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
	return c, img, seen
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
				c, img, seen := runFixedPoint(t, cfg, b.MustBuild())
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
