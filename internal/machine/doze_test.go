package machine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sfence/internal/isa"
)

// Addresses of the skipping tests' data, on lines of their own. dozeCold
// starts a region no core has touched; dozeBad lies outside the image.
const (
	dozeFlag = 4096
	dozeOut  = 8192
	dozeCold = 1 << 20
	dozeBad  = 1 << 40
)

// dozeProgram's entries keep one core idle for long stretches while
// others work, so that Run skips it:
//   - "div" runs R4 iterations of four dependent 12-cycle divides;
//   - "miss" runs R4 iterations (R4 = 0: forever) of a load from a cold
//     line whose address depends on the previous load, so every
//     iteration waits out a full memory latency;
//   - "busy" counts R4 down (R4 = 0: forever), ticking every cycle;
//   - "reader" waits on two dependent cold misses with a full fence
//     behind them; under in-window speculation the load of the flag at R1
//     after the fence executes past it, and the core idles until the
//     misses return. A chain of divides on the flag value then outlasts
//     the misses, so the cycle on which the flag load is replayed sets
//     the run's length. It copies the flag to R3;
//   - "writer" counts R4 down and stores 7 to the flag at R1;
//   - "fault" counts R4 down and loads from outside the image.
func dozeProgram() *isa.Program {
	b := isa.NewBuilder()
	b.Entry("div")
	b.MovI(isa.R2, 1<<40)
	b.MovI(isa.R3, 1)
	b.Label("div_loop")
	for i := 0; i < 4; i++ {
		b.Div(isa.R2, isa.R2, isa.R3)
	}
	b.AddI(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "div_loop")
	b.Halt()

	// The stride of 4096 bytes maps the lines onto a few sets of both
	// cache levels, and the 32 MiB wrap revisits a line only long after
	// it has been evicted.
	b.Entry("miss")
	b.MovI(isa.R1, dozeCold)
	b.Label("miss_loop")
	b.Load(isa.R2, isa.R1, 0)
	b.Add(isa.R1, isa.R1, isa.R2)
	b.AddI(isa.R1, isa.R1, 4096)
	b.AndI(isa.R1, isa.R1, 32<<20-1)
	b.AddI(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "miss_loop")
	b.Halt()

	b.Entry("busy")
	b.Label("busy_loop")
	b.AddI(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "busy_loop")
	b.Halt()

	b.Entry("reader")
	b.MovI(isa.R6, dozeCold)
	b.Load(isa.R7, isa.R6, 0)
	b.Add(isa.R6, isa.R6, isa.R7)
	b.Load(isa.R7, isa.R6, 4096)
	b.Fence(isa.ScopeGlobal)
	b.Load(isa.R2, isa.R1, 0)
	b.MovI(isa.R8, 1)
	for i := 0; i < 48; i++ {
		b.Div(isa.R2, isa.R2, isa.R8)
	}
	b.Store(isa.R3, 0, isa.R2)
	b.Halt()

	b.Entry("writer")
	b.Label("writer_delay")
	b.AddI(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "writer_delay")
	b.MovI(isa.R2, 7)
	b.Store(isa.R1, 0, isa.R2)
	b.Halt()

	b.Entry("fault")
	b.Label("fault_delay")
	b.AddI(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "fault_delay")
	b.MovI(isa.R5, dozeBad)
	b.Load(isa.R2, isa.R5, 0)
	b.Halt()
	return b.MustBuild()
}

// dozeThread runs entry with R4 = n and the flag and output words in R1
// and R3.
func dozeThread(entry string, n int64) Thread {
	return Thread{Entry: entry, Regs: map[isa.Reg]int64{isa.R1: dozeFlag, isa.R3: dozeOut, isa.R4: n}}
}

// assertSkipped fails unless Run made fewer core ticks than naive
// stepping: some core was skipped.
func assertSkipped(t *testing.T, n, r *Machine) {
	t.Helper()
	if nt, rt := n.Clock().CoreTicks, r.Clock().CoreTicks; rt >= nt {
		t.Errorf("Run ticked cores %d times, naive stepping %d: no core was skipped", rt, nt)
	}
}

// assertCaughtUp fails unless every core that has not finished last
// ticked at the machine's Cycle()-1.
func assertCaughtUp(t *testing.T, m *Machine) {
	t.Helper()
	for i := 0; i < m.Cores(); i++ {
		c := m.Core(i)
		if !c.Done() && c.Cycle() != m.Cycle()-1 {
			t.Errorf("core %d last ticked cycle %d, machine at %d", i, c.Cycle(), m.Cycle())
		}
	}
}

// TestSkippedCoreWaits runs a core through a long divide chain or a chain
// of cold misses while another core computes every cycle: the waiting
// core is ticked only when an operation returns, and the cycles between
// are credited when it is next ticked.
func TestSkippedCoreWaits(t *testing.T) {
	for _, tc := range []struct {
		name    string
		threads []Thread
	}{
		{"div/waiter-first", []Thread{dozeThread("div", 60), dozeThread("busy", 2000)}},
		{"div/waiter-last", []Thread{dozeThread("busy", 2000), dozeThread("div", 60)}},
		{"miss/waiter-first", []Thread{dozeThread("miss", 8), dozeThread("busy", 2000)}},
		{"miss/waiter-last", []Thread{dozeThread("busy", 2000), dozeThread("miss", 8)}},
		{"both", []Thread{dozeThread("div", 60), dozeThread("busy", 2000), dozeThread("miss", 8)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := dozeProgram()
			n := newTestMachine(t, prog, 0, false, tc.threads...)
			r := newTestMachine(t, prog, 0, false, tc.threads...)
			n.StepUntil(DefaultMaxCycles)
			if _, err := r.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			requireSame(t, n, r)
			assertSkipped(t, n, r)
		})
	}
}

// TestSkippedCoreSnooped delivers a remote store to a core that Run is
// skipping while it holds a load that executed speculatively past a
// fence: the reader waits on two cold misses behind the fence, its flag
// load has already run past it, and a busy core keeps the clock from
// jumping. The snoop must replay the load on the same cycle as under
// naive stepping, so the skipped core is caught up before the snoop is
// handed over — through the current cycle when it comes before the
// writer in the tick order, through the previous one when after. The
// writer's delays sweep the store across the reader's idle window.
func TestSkippedCoreSnooped(t *testing.T) {
	for _, tc := range []struct {
		name    string
		threads func(d int64) []Thread
		reader  int
	}{
		{"reader-first", func(d int64) []Thread {
			return []Thread{dozeThread("reader", 0), dozeThread("busy", 2000), dozeThread("writer", d)}
		}, 0},
		{"reader-last", func(d int64) []Thread {
			return []Thread{dozeThread("writer", d), dozeThread("busy", 2000), dozeThread("reader", 0)}
		}, 2},
	} {
		for _, d := range []int64{1, 40, 120, 200} {
			t.Run(fmt.Sprintf("%s/delay=%d", tc.name, d), func(t *testing.T) {
				prog := dozeProgram()
				n := newTestMachine(t, prog, 0, true, tc.threads(d)...)
				r := newTestMachine(t, prog, 0, true, tc.threads(d)...)
				n.StepUntil(DefaultMaxCycles)
				if _, err := r.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				requireSame(t, n, r)
				assertSkipped(t, n, r)
				if got := r.Core(tc.reader).Stats().SpecLoadFlush.Get(); got == 0 {
					t.Errorf("the store replayed no speculative load")
				}
				if got := r.Image().Load(dozeOut); got != 7 {
					t.Errorf("reader copied %d, want 7", got)
				}
			})
		}
	}
}

// TestSkippedCoreBudget ends a Run at the cycle budget while a core waits
// on a cold miss: Run must catch it up, so every core ends at Cycle()-1
// in the state stepping to the budget produces.
func TestSkippedCoreBudget(t *testing.T) {
	const budget = 5000
	threads := []Thread{dozeThread("miss", 0), dozeThread("busy", 0)}
	prog := dozeProgram()
	n := newTestMachine(t, prog, budget, false, threads...)
	r := newTestMachine(t, prog, budget, false, threads...)
	n.StepUntil(budget)
	_, err := r.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "exceeded 5000 cycles") {
		t.Fatalf("Run returned %v, want the cycle-budget error", err)
	}
	assertCaughtUp(t, r)
	requireSame(t, n, r)
	assertSkipped(t, n, r)
}

// TestSkippedCoreFault ends a Run with a fault on one core while another
// waits on a cold miss.
func TestSkippedCoreFault(t *testing.T) {
	threads := []Thread{dozeThread("miss", 0), dozeThread("fault", 1000)}
	prog := dozeProgram()
	n := newTestMachine(t, prog, 0, false, threads...)
	r := newTestMachine(t, prog, 0, false, threads...)
	if n.StepUntil(DefaultMaxCycles) == nil {
		t.Fatal("naive stepping did not fault")
	}
	_, err := r.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "invalid memory access") {
		t.Fatalf("Run returned %v, want the fault", err)
	}
	assertCaughtUp(t, r)
	requireSame(t, n, r)
	assertSkipped(t, n, r)
}

// TestSkippedCoreCancelled cancels a Run while one core waits on cold
// misses, one on divides, and a third computes forever. Run polls the
// context only every few thousand cycles, so the misses are made to take
// 5000 cycles each: wherever the cancellation lands, the missing core is
// almost surely skipped there.
func TestSkippedCoreCancelled(t *testing.T) {
	threads := []Thread{dozeThread("miss", 0), dozeThread("div", 0), dozeThread("busy", 0)}
	build := func() *Machine {
		cfg := DefaultConfig()
		cfg.Cores = len(threads)
		cfg.Mem.MemLatency = 5000
		m, err := New(cfg, dozeProgram(), threads)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	r := build()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	cycles, err := r.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if cycles != r.Cycle() {
		t.Fatalf("Run reported %d cycles, machine at %d", cycles, r.Cycle())
	}
	assertCaughtUp(t, r)
	n := build()
	n.StepUntil(r.Cycle())
	requireSame(t, n, r)
	assertSkipped(t, n, r)
}
