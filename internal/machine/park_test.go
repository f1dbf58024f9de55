package machine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sfence/internal/isa"
)

// Addresses of the parking tests' shared words, on lines of their own.
const (
	parkFlag  = 4096
	parkOut   = 8192
	parkNoise = 12288
)

// parkProgram's entries: "spin" busy-waits until the word at R1
// is nonzero (after a delay of R5 iterations) and copies it to R3 — the
// fence in its loop stretches the orbit to several cycles, so a catch-up
// ends with single ticks that load the word;
// "write" stores to a word no one reads, then stores 7 to the word at R1
// after a delay of R4 iterations; "cas-write" does the same with a CAS;
// "share-write" first reads the word at R1, so that its store must
// invalidate the other readers' copies;
// "busy" counts R4 down, and with R4 = 0 counts forever.
func parkProgram() *isa.Program {
	b := isa.NewBuilder()
	b.Entry("spin")
	b.Label("spin_delay")
	b.AddI(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "spin_delay")
	b.Label("spin_loop")
	b.Fence(isa.ScopeGlobal)
	b.Load(isa.R2, isa.R1, 0)
	b.Beq(isa.R2, isa.R0, "spin_loop")
	b.Store(isa.R3, 0, isa.R2)
	b.Halt()

	b.Entry("share-write")
	b.Load(isa.R6, isa.R1, 0)
	b.Entry("write")
	b.MovI(isa.R7, parkNoise)
	b.Store(isa.R7, 0, isa.R1)
	b.Label("write_delay")
	b.AddI(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "write_delay")
	b.MovI(isa.R2, 7)
	b.Store(isa.R1, 0, isa.R2)
	b.Halt()

	b.Entry("cas-write")
	b.MovI(isa.R7, parkNoise)
	b.Store(isa.R7, 0, isa.R1)
	b.Label("cas_delay")
	b.AddI(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "cas_delay")
	b.MovI(isa.R2, 7)
	b.CAS(isa.R8, isa.R1, 0, isa.R0, isa.R2)
	b.Halt()

	b.Entry("busy")
	b.Label("busy_loop")
	b.AddI(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "busy_loop")
	b.Halt()
	return b.MustBuild()
}

func spinThread(delay int64) Thread {
	return Thread{Entry: "spin", Regs: map[isa.Reg]int64{isa.R1: parkFlag, isa.R3: parkOut, isa.R5: delay}}
}

func writeThread(entry string, delay int64) Thread {
	return Thread{Entry: entry, Regs: map[isa.Reg]int64{isa.R1: parkFlag, isa.R4: delay}}
}

func busyThread(iters int64) Thread {
	return Thread{Entry: "busy", Regs: map[isa.Reg]int64{isa.R4: iters}}
}

func newParkMachine(t *testing.T, maxCycles int64, spec bool, threads ...Thread) *Machine {
	t.Helper()
	return newTestMachine(t, parkProgram(), maxCycles, spec, threads...)
}

// newTestMachine builds a default machine with one core per thread
// running prog, with the given cycle budget and in-window speculation.
func newTestMachine(t *testing.T, prog *isa.Program, maxCycles int64, spec bool, threads ...Thread) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = len(threads)
	cfg.MaxCycles = maxCycles
	cfg.Core.InWindowSpec = spec
	m, err := New(cfg, prog, threads)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// requireSame fails unless the naively stepped machine n and the Run
// machine r did the same thing (see Diff).
func requireSame(t *testing.T, n, r *Machine) {
	t.Helper()
	if err := Diff(n, r); err != nil {
		t.Error(err)
	}
}

// TestParkedSpinnerRelease releases a spinner parked on the sequential
// clock while a third core keeps the clock from jumping, so every cycle
// the spinner skips is skipped by parking. The writer either stores (or
// CASes) at once to the cold flag line, so its 300-cycle access is still
// in flight when the spinner has fetched the line and parked, and the
// completing store itself wakes the spinner; or shares the line and
// stores late, so the store's invalidation of the spinner's copy wakes
// it. The spinner sits before and after the writer in the tick order, and
// the delays sweep the phase of the orbit at which the wake lands. With
// in-window speculation the spinner's loads run past its fence, so the
// writer's first store, to a word the spinner never reads, snoops it in
// the naive run and leaves it parked in the event-driven one.
func TestParkedSpinnerRelease(t *testing.T) {
	type layout struct {
		name    string
		threads func(d int64) []Thread
		spinner int
	}
	for _, tc := range []layout{
		{"store/spinner-first", func(d int64) []Thread {
			return []Thread{spinThread(40 + d), busyThread(3000), writeThread("write", 1)}
		}, 0},
		{"store/spinner-last", func(d int64) []Thread {
			return []Thread{writeThread("write", 1), busyThread(3000), spinThread(40 + d)}
		}, 2},
		{"cas/spinner-first", func(d int64) []Thread {
			return []Thread{spinThread(40 + d), busyThread(3000), writeThread("cas-write", 1)}
		}, 0},
		{"cas/spinner-last", func(d int64) []Thread {
			return []Thread{writeThread("cas-write", 1), busyThread(3000), spinThread(40 + d)}
		}, 2},
		{"invalidation/spinner-first", func(d int64) []Thread {
			return []Thread{spinThread(1), busyThread(3000), writeThread("share-write", 600+d)}
		}, 0},
		{"invalidation/spinner-last", func(d int64) []Thread {
			return []Thread{writeThread("share-write", 600+d), busyThread(3000), spinThread(1)}
		}, 2},
	} {
		for _, spec := range []bool{false, true} {
			for d := int64(0); d < 4; d++ {
				t.Run(fmt.Sprintf("%s/spec=%v/delay+%d", tc.name, spec, d), func(t *testing.T) {
					n := newParkMachine(t, 0, spec, tc.threads(d)...)
					r := newParkMachine(t, 0, spec, tc.threads(d)...)
					n.StepUntil(DefaultMaxCycles)
					if _, err := r.Run(context.Background()); err != nil {
						t.Fatal(err)
					}
					requireSame(t, n, r)
					if got := r.Image().Load(parkOut); got != 7 {
						t.Errorf("spinner copied %d, want 7", got)
					}
					if r.Core(tc.spinner).SpinSkippedCycles() == 0 {
						t.Errorf("spinner was never parked: %+v", r.Clock())
					}
				})
			}
		}
	}
}

// TestParkedAllSpinningHitsBudget runs a program whose every core spins
// on a word no one writes: the clock jumps straight to the budget, and
// catching the parked cores up there must reproduce the livelock error
// and the statistics of stepping every cycle.
func TestParkedAllSpinningHitsBudget(t *testing.T) {
	const budget = 5000
	threads := []Thread{spinThread(1), spinThread(3)}
	n := newParkMachine(t, budget, false, threads...)
	r := newParkMachine(t, budget, false, threads...)
	n.StepUntil(budget)
	_, err := r.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "exceeded 5000 cycles") {
		t.Fatalf("Run returned %v, want the cycle-budget error", err)
	}
	requireSame(t, n, r)
	if cs := r.Clock(); cs.SpinJumps == 0 || r.Core(0).SpinSkippedCycles() == 0 {
		t.Errorf("spinners were not parked: %+v", cs)
	}
}

// TestParkedCancelledRun cancels a run mid-way while one core is parked
// and another computes forever: Run must leave every core at the
// machine's cycle, in the state stepping to that cycle produces.
func TestParkedCancelledRun(t *testing.T) {
	threads := []Thread{spinThread(1), busyThread(0)}
	r := newParkMachine(t, 0, false, threads...)
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
	for i := 0; i < r.Cores(); i++ {
		if got := r.Core(i).Cycle(); got != r.Cycle()-1 {
			t.Errorf("core %d last ticked cycle %d, machine at %d", i, got, r.Cycle())
		}
	}
	if r.Core(0).SpinSkippedCycles() == 0 {
		t.Errorf("spinner was never parked: %+v", r.Clock())
	}
	n := newParkMachine(t, 0, false, threads...)
	n.StepUntil(r.Cycle())
	requireSame(t, n, r)
}
