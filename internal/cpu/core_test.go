package cpu

import (
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"sfence/internal/isa"
	"sfence/internal/memsys"
)

// runCore executes a single-core program to completion and returns the
// core and the cycle count.
func runCore(t *testing.T, cfg Config, p *isa.Program, entry string, regs map[isa.Reg]int64, img *memsys.Image) (*Core, int64) {
	t.Helper()
	if img == nil {
		img = memsys.NewImage(1 << 20)
	}
	hier := memsys.MustHierarchy(1, memsys.DefaultConfig())
	core, err := NewCore(0, cfg, p, p.MustEntry(entry), regs, img, hier)
	if err != nil {
		t.Fatal(err)
	}
	var cycle int64
	for !core.Done() {
		if core.Fault() != nil {
			t.Fatalf("core fault: %v", core.Fault())
		}
		if cycle > 5_000_000 {
			t.Fatal("runaway program")
		}
		core.Tick(cycle)
		cycle++
	}
	return core, cycle
}

func TestALUProgram(t *testing.T) {
	// sum = 1+2+...+10; also exercise mul/div/rem/logic.
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 0)  // i
	b.MovI(isa.R2, 0)  // sum
	b.MovI(isa.R3, 10) // limit
	b.Label("loop")
	b.AddI(isa.R1, isa.R1, 1)
	b.Add(isa.R2, isa.R2, isa.R1)
	b.Blt(isa.R1, isa.R3, "loop")
	b.MovI(isa.R4, 7)
	b.Mul(isa.R5, isa.R2, isa.R4)  // 55*7 = 385
	b.Div(isa.R6, isa.R5, isa.R4)  // 385/7 = 55
	b.Rem(isa.R7, isa.R5, isa.R3)  // 385%10 = 5
	b.XorI(isa.R8, isa.R2, 0xff)   // 55^255 = 200
	b.ShlI(isa.R9, isa.R2, 2)      // 220
	b.ShrI(isa.R10, isa.R9, 1)     // 110
	b.SltI(isa.R11, isa.R2, 100)   // 1
	b.Seq(isa.R12, isa.R6, isa.R2) // 1
	b.Halt()
	p := b.MustBuild()
	core, _ := runCore(t, DefaultConfig(), p, "main", nil, nil)
	want := map[isa.Reg]int64{
		isa.R2: 55, isa.R5: 385, isa.R6: 55, isa.R7: 5,
		isa.R8: 200, isa.R9: 220, isa.R10: 110, isa.R11: 1, isa.R12: 1,
	}
	for r, v := range want {
		if got := core.Reg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestR0Hardwired(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R0, 99) // must be discarded
	b.AddI(isa.R1, isa.R0, 5)
	b.Halt()
	core, _ := runCore(t, DefaultConfig(), b.MustBuild(), "main", nil, nil)
	if core.Reg(isa.R0) != 0 {
		t.Error("write to R0 was not discarded")
	}
	if core.Reg(isa.R1) != 5 {
		t.Errorf("r1 = %d, want 5", core.Reg(isa.R1))
	}
}

func TestLoadStoreAndForwarding(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 4096) // base address
	b.MovI(isa.R2, 1234)
	b.Store(isa.R1, 0, isa.R2)
	b.Load(isa.R3, isa.R1, 0) // must forward 1234 from the store
	b.MovI(isa.R4, 77)
	b.Store(isa.R1, 8, isa.R4)
	b.Load(isa.R5, isa.R1, 8)
	b.Halt()
	core, _ := runCore(t, DefaultConfig(), b.MustBuild(), "main", nil, nil)
	if core.Reg(isa.R3) != 1234 || core.Reg(isa.R5) != 77 {
		t.Errorf("r3=%d r5=%d, want 1234, 77", core.Reg(isa.R3), core.Reg(isa.R5))
	}
}

func TestStoreToLoadForwardingIsFast(t *testing.T) {
	// A load that forwards from an in-flight store must not pay the
	// cold-miss latency.
	mk := func(withStore bool) int64 {
		b := isa.NewBuilder()
		b.Entry("main")
		b.MovI(isa.R1, 4096)
		b.MovI(isa.R2, 42)
		if withStore {
			b.Store(isa.R1, 0, isa.R2)
		}
		b.Load(isa.R3, isa.R1, 0)
		b.Halt()
		_, cycles := runCore(t, DefaultConfig(), b.MustBuild(), "main", nil, nil)
		return cycles
	}
	withFwd := mk(true)
	coldLoad := mk(false)
	// The forwarded run still pays the store's own drain, but the load
	// itself is fast; the cold-load run pays a ~312-cycle load at halt...
	// both runs end after drain, so compare load visibility instead:
	// the forwarded value must be correct (checked elsewhere) and the
	// forwarded run must not be dramatically slower.
	if withFwd > coldLoad+400 {
		t.Errorf("forwarding run took %d cycles vs cold %d", withFwd, coldLoad)
	}
}

func TestCASSemantics(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 4096)
	b.MovI(isa.R2, 10)
	b.Store(isa.R1, 0, isa.R2) // mem = 10
	b.MovI(isa.R3, 10)         // expected
	b.MovI(isa.R4, 20)         // new
	b.CAS(isa.R5, isa.R1, 0, isa.R3, isa.R4)
	b.Load(isa.R6, isa.R1, 0) // 20
	b.MovI(isa.R7, 999)       // stale expected
	b.CAS(isa.R8, isa.R1, 0, isa.R7, isa.R2)
	b.Load(isa.R9, isa.R1, 0) // still 20
	b.Halt()
	core, _ := runCore(t, DefaultConfig(), b.MustBuild(), "main", nil, nil)
	if core.Reg(isa.R5) != 1 || core.Reg(isa.R6) != 20 {
		t.Errorf("successful CAS: flag=%d mem=%d", core.Reg(isa.R5), core.Reg(isa.R6))
	}
	if core.Reg(isa.R8) != 0 || core.Reg(isa.R9) != 20 {
		t.Errorf("failed CAS: flag=%d mem=%d", core.Reg(isa.R8), core.Reg(isa.R9))
	}
}

func TestBranchMispredictionRecovery(t *testing.T) {
	// Alternate taken/not-taken on a data-dependent branch; the result
	// must be architecturally exact despite mispredictions.
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 0)  // i
	b.MovI(isa.R2, 20) // limit
	b.MovI(isa.R3, 0)  // even counter
	b.Label("loop")
	b.AndI(isa.R4, isa.R1, 1)
	b.Bne(isa.R4, isa.R0, "odd")
	b.AddI(isa.R3, isa.R3, 1)
	b.Label("odd")
	b.AddI(isa.R1, isa.R1, 1)
	b.Blt(isa.R1, isa.R2, "loop")
	b.Halt()
	core, _ := runCore(t, DefaultConfig(), b.MustBuild(), "main", nil, nil)
	if got := core.Reg(isa.R3); got != 10 {
		t.Errorf("even counter = %d, want 10", got)
	}
	if core.Stats().Mispredicts == 0 {
		t.Error("alternating branch produced no mispredictions (suspicious)")
	}
}

func TestWrongPathStoreNeverCommits(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 0)    // i
	b.MovI(isa.R2, 5)    // limit
	b.MovI(isa.R3, 4096) // arr base
	b.Label("loop")
	b.Blt(isa.R1, isa.R2, "body")
	b.Jmp("exit")
	b.Label("body")
	b.ShlI(isa.R5, isa.R1, 3)
	b.Add(isa.R4, isa.R3, isa.R5)
	b.MovI(isa.R6, 99)
	b.Store(isa.R4, 0, isa.R6)
	b.AddI(isa.R1, isa.R1, 1)
	b.Jmp("loop")
	b.Label("exit")
	b.MovI(isa.R7, 8192)
	b.MovI(isa.R8, 1)
	b.Store(isa.R7, 0, isa.R8)
	b.Halt()
	img := memsys.NewImage(1 << 20)
	core, _ := runCore(t, DefaultConfig(), b.MustBuild(), "main", nil, img)
	for i := int64(0); i < 5; i++ {
		if got := img.Load(4096 + 8*i); got != 99 {
			t.Errorf("arr[%d] = %d, want 99", i, got)
		}
	}
	// On the final iteration the trained-taken branch mispredicts and
	// the wrong path runs the body with i==5: that store must vanish.
	if got := img.Load(4096 + 8*5); got != 0 {
		t.Errorf("wrong-path store committed: arr[5] = %d", got)
	}
	if got := img.Load(8192); got != 1 {
		t.Errorf("flag = %d, want 1", got)
	}
	if core.Stats().Squashed == 0 {
		t.Error("no squashes recorded despite misprediction")
	}
}

// buildFenceProgram creates: warm up in-scope address A; cold out-of-scope
// store to X; then a fenced in-scope store to A. The fence variant
// determines how long the fence waits.
func buildFenceProgram(scope isa.ScopeKind, flagSet bool) *isa.Program {
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 4096)  // A (in scope)
	b.MovI(isa.R2, 1<<18) // X (out of scope, different line)
	b.MovI(isa.R3, 1)
	// Warm A into M state and drain.
	b.Store(isa.R1, 0, isa.R3)
	b.Fence(isa.ScopeGlobal)
	// Cold store to X: a long-latency out-of-scope access.
	b.Store(isa.R2, 0, isa.R3)
	// In-scope fenced sequence.
	b.FsStart(1)
	if flagSet {
		b.SetFlagged()
	}
	b.Store(isa.R1, 0, isa.R3) // fast (warm, owned)
	b.Fence(scope)
	if flagSet {
		b.SetFlagged()
	}
	b.Load(isa.R4, isa.R1, 8)
	b.FsEnd(1)
	// Post-fence long-latency work: a cold load that a scoped fence lets
	// overlap with the draining out-of-scope store, but a full fence
	// serializes behind it.
	b.MovI(isa.R5, 1<<19)
	b.Load(isa.R6, isa.R5, 0)
	b.Halt()
	return b.MustBuild()
}

func TestClassFenceSkipsOutOfScopeStall(t *testing.T) {
	_, globalCycles := runCore(t, DefaultConfig(), buildFenceProgram(isa.ScopeGlobal, false), "main", nil, nil)
	_, classCycles := runCore(t, DefaultConfig(), buildFenceProgram(isa.ScopeClass, false), "main", nil, nil)
	if classCycles >= globalCycles {
		t.Errorf("class fence (%d cycles) not faster than global fence (%d cycles)", classCycles, globalCycles)
	}
	// The gap should be on the order of the memory latency the class
	// fence avoided waiting for.
	if globalCycles-classCycles < 100 {
		t.Errorf("class fence saved only %d cycles; expected a miss-latency-scale gap", globalCycles-classCycles)
	}
}

func TestSetFenceSkipsOutOfScopeStall(t *testing.T) {
	_, globalCycles := runCore(t, DefaultConfig(), buildFenceProgram(isa.ScopeGlobal, true), "main", nil, nil)
	_, setCycles := runCore(t, DefaultConfig(), buildFenceProgram(isa.ScopeSet, true), "main", nil, nil)
	if setCycles >= globalCycles {
		t.Errorf("set fence (%d cycles) not faster than global fence (%d cycles)", setCycles, globalCycles)
	}
}

func TestGlobalFenceWaitsForAllStores(t *testing.T) {
	// With the fence: the load after the fence cannot start until the
	// cold store drains; the fence-stall stat must be non-zero.
	p := buildFenceProgram(isa.ScopeGlobal, false)
	core, _ := runCore(t, DefaultConfig(), p, "main", nil, nil)
	if core.Stats().FenceStallCycles == 0 {
		t.Error("global fence produced no stall cycles")
	}
	if core.Stats().FenceStallIssue == 0 {
		t.Error("non-speculative fence stalls must be issue stalls")
	}
	if core.Stats().CommittedFences != 2 {
		t.Errorf("committed fences = %d, want 2", core.Stats().CommittedFences)
	}
}

func TestInWindowSpeculationReducesStalls(t *testing.T) {
	p := buildFenceProgram(isa.ScopeGlobal, false)
	cfg := DefaultConfig()
	_, tCycles := runCore(t, cfg, p, "main", nil, nil)
	cfg.InWindowSpec = true
	core, tPlusCycles := runCore(t, cfg, p, "main", nil, nil)
	if tPlusCycles > tCycles {
		t.Errorf("in-window speculation slower: %d vs %d", tPlusCycles, tCycles)
	}
	if s := core.Stats(); s.FenceStallIssue != 0 {
		t.Errorf("speculative mode recorded %d issue stalls", s.FenceStallIssue)
	}
}

func TestDeterminism(t *testing.T) {
	p := buildFenceProgram(isa.ScopeClass, false)
	_, c1 := runCore(t, DefaultConfig(), p, "main", nil, nil)
	_, c2 := runCore(t, DefaultConfig(), p, "main", nil, nil)
	if c1 != c2 {
		t.Errorf("two identical runs took %d and %d cycles", c1, c2)
	}
}

func TestFaultOnMisalignedCommittedAccess(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 4097) // misaligned
	b.Load(isa.R2, isa.R1, 0)
	b.Halt()
	img := memsys.NewImage(1 << 20)
	hier := memsys.MustHierarchy(1, memsys.DefaultConfig())
	p := b.MustBuild()
	core, err := NewCore(0, DefaultConfig(), p, 0, nil, img, hier)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100_000 && !core.Done(); i++ {
		core.Tick(i)
		if core.Fault() != nil {
			return // expected
		}
	}
	t.Fatal("misaligned committed load did not fault")
}

func TestInitialRegisters(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("main")
	b.Add(isa.R3, isa.R1, isa.R2)
	b.Halt()
	core, _ := runCore(t, DefaultConfig(), b.MustBuild(), "main",
		map[isa.Reg]int64{isa.R1: 30, isa.R2: 12}, nil)
	if core.Reg(isa.R3) != 42 {
		t.Errorf("r3 = %d, want 42", core.Reg(isa.R3))
	}
}

func TestRunningOffEndHalts(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 7) // no explicit halt
	p := b.MustBuild()
	core, _ := runCore(t, DefaultConfig(), p, "main", nil, nil)
	if core.Reg(isa.R1) != 7 {
		t.Error("instruction before implicit halt lost")
	}
}

func TestCommittedInstructionCounts(t *testing.T) {
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 4096)
	b.MovI(isa.R2, 5)
	b.Store(isa.R1, 0, isa.R2)
	b.Load(isa.R3, isa.R1, 0)
	b.CAS(isa.R4, isa.R1, 0, isa.R2, isa.R3)
	b.Fence(isa.ScopeGlobal)
	b.Halt()
	core, _ := runCore(t, DefaultConfig(), b.MustBuild(), "main", nil, nil)
	s := core.Stats()
	if s.CommittedLoads != 1 || s.CommittedStores != 1 || s.CommittedCAS != 1 || s.CommittedFences != 1 {
		t.Errorf("counts: %+v", s)
	}
	if s.Committed != 7 {
		t.Errorf("committed = %d, want 7", s.Committed)
	}
}

func TestSmallROBConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 4
	cfg.SBSize = 1
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 4096)
	for i := int64(0); i < 20; i++ {
		b.MovI(isa.R2, i)
		b.Store(isa.R1, i*8, isa.R2)
	}
	b.Halt()
	img := memsys.NewImage(1 << 20)
	core, _ := runCore(t, cfg, b.MustBuild(), "main", nil, img)
	for i := int64(0); i < 20; i++ {
		if img.Load(4096+i*8) != i {
			t.Fatalf("mem[%d] = %d, want %d", i, img.Load(4096+i*8), i)
		}
	}
	if core.Stats().SBFullCycles == 0 {
		t.Error("1-entry SB never reported full (suspicious)")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.ROBSize = 100 // not a power of two
	if bad.Validate() == nil {
		t.Error("non-power-of-two ROB accepted")
	}
	bad = DefaultConfig()
	bad.FSBEntries = 1
	if bad.Validate() == nil {
		t.Error("FSBEntries=1 accepted (no room for class + set)")
	}
	bad = DefaultConfig()
	bad.FSSEntries = 9
	if bad.Validate() == nil {
		t.Error("FSSEntries=9 accepted (snapshot capacity is 8)")
	}
	b := isa.NewBuilder()
	b.Entry("main")
	b.Halt()
	p := b.MustBuild()
	img := memsys.NewImage(1 << 20)
	hier := memsys.MustHierarchy(1, memsys.DefaultConfig())
	if _, err := NewCore(0, DefaultConfig(), p, 99, nil, img, hier); err == nil {
		t.Error("out-of-range start pc accepted")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Committed: 1, FenceStallCycles: 2, MaxROBOccupancy: 5, Cycles: 10, SumROBOccupancy: 50}
	b := Stats{Committed: 2, FenceStallCycles: 3, MaxROBOccupancy: 9, Cycles: 10, SumROBOccupancy: 30}
	a.Add(&b)
	if a.Committed != 3 || a.FenceStallCycles != 5 || a.MaxROBOccupancy != 9 {
		t.Errorf("Add result: %+v", a)
	}
	if a.AvgROBOccupancy() != 4 {
		t.Errorf("AvgROBOccupancy = %v, want 4", a.AvgROBOccupancy())
	}
}

// wantIssued restates the store-buffer issue rule: an entry may issue
// when it is not in flight, no older entry writes its address, and, in a
// FIFO buffer, it is the head; of those, the oldest issue, as many as the
// free MSHRs allow.
func wantIssued(sb []sbEntry, mshrs int, fifo bool) []bool {
	free := mshrs
	for _, e := range sb {
		if e.inflight {
			free--
		}
	}
	want := make([]bool, len(sb))
	for i, e := range sb {
		older := slices.ContainsFunc(sb[:i], func(o sbEntry) bool { return o.addr == e.addr })
		if !e.inflight && !older && (!fifo || i == 0) && free > 0 {
			want[i] = true
			free--
		}
	}
	return want
}

// TestIssueSBOrder pins issueSB's choice against wantIssued on random
// reachable buffers (an entry in flight has no older same-address entry,
// and a FIFO buffer has at most its head in flight), then runs a program
// that stores repeatedly to three words, at every buffer size, MSHR count
// and drain order the shipped configurations use.
func TestIssueSBOrder(t *testing.T) {
	const a = 4096
	b := isa.NewBuilder()
	b.Entry("main")
	b.MovI(isa.R1, 0)
	b.MovI(isa.R2, 20)
	b.MovI(isa.R3, 3)
	b.Label("loop")
	b.AddI(isa.R1, isa.R1, 1)
	b.Rem(isa.R4, isa.R1, isa.R3)
	b.ShlI(isa.R4, isa.R4, 3)
	b.Store(isa.R4, a, isa.R1)
	b.Blt(isa.R1, isa.R2, "loop")
	b.Halt()
	p := b.MustBuild()

	rng := rand.New(rand.NewPCG(1, 31))
	for _, size := range []int{2, 8, 16} {
		for _, mshrs := range []int{1, 8} {
			for _, fifo := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.SBSize, cfg.MSHRs, cfg.FIFOStoreBuffer = size, mshrs, fifo
				c, err := NewCore(0, cfg, p, 0, nil, memsys.NewImage(1<<20), memsys.MustHierarchy(1, memsys.DefaultConfig()))
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 200; trial++ {
					c.sb, c.sbInflight = c.sb[:0], 0
					for n := 1 + rng.IntN(size); len(c.sb) < n; {
						e := sbEntry{addr: a + 8*int64(rng.IntN(4))}
						older := slices.ContainsFunc(c.sb, func(o sbEntry) bool { return o.addr == e.addr })
						if !older && c.sbInflight < mshrs && (!fifo || len(c.sb) == 0) && rng.IntN(3) == 0 {
							e.inflight, e.readyAt = true, 1<<20
							c.sbInflight++
						}
						c.sb = append(c.sb, e)
					}
					before := slices.Clone(c.sb)
					want := wantIssued(before, mshrs, fifo)
					c.cycle, c.nextSBDrain = int64(trial), NeverWakes
					c.issueSB()
					inflight := 0
					for i, e := range c.sb {
						if got := e.inflight && !before[i].inflight; got != want[i] {
							t.Fatalf("SBSize %d, MSHRs %d, FIFO %v: entry %d of %+v issued %v, want %v",
								size, mshrs, fifo, i, before, got, want[i])
						}
						if e.inflight {
							inflight++
						}
						if want[i] && (e.readyAt <= c.cycle || c.nextSBDrain > e.readyAt) {
							t.Fatalf("SBSize %d, MSHRs %d, FIFO %v: entry %d drains at %d, gate %d, cycle %d",
								size, mshrs, fifo, i, e.readyAt, c.nextSBDrain, c.cycle)
						}
					}
					if inflight != c.sbInflight || inflight > mshrs {
						t.Fatalf("SBSize %d, MSHRs %d, FIFO %v: %d in flight, counted %d", size, mshrs, fifo, inflight, c.sbInflight)
					}
				}

				img := memsys.NewImage(1 << 20)
				runCore(t, cfg, p, "main", nil, img)
				for k, v := range []int64{18, 19, 20} {
					if got := img.Load(a + 8*int64(k)); got != v {
						t.Errorf("SBSize %d, MSHRs %d, FIFO %v: word %d = %d, want %d", size, mshrs, fifo, k, got, v)
					}
				}
			}
		}
	}
}

// TestROBEntrySize pins the reorder-buffer slot at 144 bytes: the window
// is scanned slot by slot, so every added byte costs every scan.
func TestROBEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(robEntry{}); n > 144 {
		t.Errorf("robEntry is %d bytes, want at most 144", n)
	}
}
