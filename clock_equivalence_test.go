// Differential test of the event-driven clock: every Table IV kernel and
// every litmus test is simulated twice — once with naive per-cycle
// stepping (the public Step/Done/Fault loop, the pre-event-driven Run) and
// once with the two-speed Machine.Run — and the runs must be
// bit-identical: same final cycle count, same per-core statistics and
// registers, same fence profiles, same cache-hierarchy statistics, and
// the same memory image. The runs are also compared mid-run, where
// event-driven runs stopped by their cycle budget must match the naive
// run at the same cycle. This is the safety proof the fast-forward path
// rests on: NextWakeup may be conservative, but it must never change a
// single simulated outcome.
package sfence_test

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"sfence/internal/cpu"
	"sfence/internal/isa"
	"sfence/internal/kernels"
	"sfence/internal/litmus"
	"sfence/internal/machine"
	"sfence/internal/memsys"
)

// requireSame fails unless the two machines did the same thing (see
// machine.Diff).
func requireSame(t *testing.T, name string, a, b *machine.Machine) {
	t.Helper()
	if err := machine.Diff(a, b); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// runBothClocks runs a machine from build to completion on the
// event-driven clock and steps another naively, one cycle at a time, to
// completion, and requires the two to agree and, when verify is not nil,
// the event-driven result to pass it. On its way the naive machine stops
// at a third and at two thirds of the run, where it must agree with a
// fresh machine run on the event-driven clock with that cut as its cycle
// budget: a run stopped by its budget must leave every core caught up to
// the cut, not only the finished ones. build makes a machine with the
// given MaxCycles (0 for the default). It returns the event-driven machine
// that ran to completion.
func runBothClocks(t *testing.T, name string, verify func(*memsys.Image) error, build func(maxCycles int64) *machine.Machine) *machine.Machine {
	t.Helper()
	event := build(0)
	end, err := event.Run(context.Background())
	if err != nil {
		t.Fatalf("event-driven run: %v", err)
	}
	naive := build(0)
	for _, cut := range []int64{end / 3, 2 * end / 3} {
		if cut == 0 {
			continue
		}
		errN := naive.StepUntil(cut)
		cutE := build(cut)
		_, errE := cutE.Run(context.Background())
		if errN == nil || errE == nil || errN.Error() != errE.Error() {
			t.Fatalf("%s: runs stopped at cycle %d with %v (naive) and %v (event-driven), want the budget error", name, cut, errN, errE)
		}
		requireSame(t, fmt.Sprintf("%s at cycle %d", name, cut), naive, cutE)
	}
	if err := naive.StepUntil(machine.DefaultMaxCycles); err != nil {
		t.Fatalf("naive run: %v", err)
	}
	requireSame(t, name, naive, event)
	if verify != nil {
		if err := verify(event.Image()); err != nil {
			t.Errorf("%s: event-driven result failed verification: %v", name, err)
		}
	}
	return event
}

// kernelClocks returns bench's verifier and a builder of its machines for
// runBothClocks.
func kernelClocks(t *testing.T, bench string, opts kernels.Options, cfg machine.Config) (func(*memsys.Image) error, func(int64) *machine.Machine) {
	t.Helper()
	k, err := kernels.Build(bench, opts)
	if err != nil {
		t.Fatalf("build %s: %v", bench, err)
	}
	return k.Verify, func(maxCycles int64) *machine.Machine {
		c := cfg
		c.MaxCycles = maxCycles
		_, m := buildKernelMachine(t, bench, opts, c)
		return m
	}
}

func buildKernelMachine(t *testing.T, bench string, opts kernels.Options, cfg machine.Config) (*kernels.Kernel, *machine.Machine) {
	t.Helper()
	k, err := kernels.Build(bench, opts)
	if err != nil {
		t.Fatalf("build %s: %v", bench, err)
	}
	m, err := machine.New(cfg, k.Program, k.Threads)
	if err != nil {
		t.Fatalf("machine for %s: %v", bench, err)
	}
	k.LoadImage(m.Image())
	return k, m
}

// quickOps is the shared Quick-scale sizing of the differential clock
// tests; both the default-machine and the depth-3 equivalence tests read
// it, so a newly added kernel cannot silently run at Ops 0 in one of
// them.
var quickOps = map[string]int{
	"dekker": 25, "wsq": 50, "msn": 32, "harris": 40,
	"pst": 160, "ptc": 64, "barnes": 16, "radiosity": 16,
	"nested-scope": 40, "fence-drain": 60,
}

// TestClockEquivalenceKernels runs every Table IV kernel (plus the hidden
// microbenchmarks) under both clocks, in the paper's T, S, T+, and S+
// configurations, at Quick-scale sizing.
func TestClockEquivalenceKernels(t *testing.T) {
	benches := []string{"dekker", "wsq", "msn", "harris", "barnes", "radiosity", "pst", "ptc", "nested-scope", "fence-drain"}
	for _, bench := range benches {
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			for _, spec := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/spec=%v", bench, mode, spec)
				t.Run(name, func(t *testing.T) {
					opts := kernels.Options{Mode: mode, Ops: quickOps[bench], Workload: 2}
					cfg := machine.DefaultConfig()
					cfg.Core.InWindowSpec = spec
					verify, build := kernelClocks(t, bench, opts, cfg)
					runBothClocks(t, name, verify, build)
				})
			}
		}
	}
}

// TestClockEquivalenceDepth3 re-runs the kernel differential on a
// three-level memory hierarchy: fast-forward must stay bit-exact when the
// latency structure (and therefore every wakeup bound) comes from a
// deeper hierarchy than the Table III default. Every Table IV kernel runs
// under traditional and scoped fences at Quick-scale sizing.
func TestClockEquivalenceDepth3(t *testing.T) {
	for _, info := range kernels.All() {
		bench := info.Name
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			name := fmt.Sprintf("depth3/%s/%v", bench, mode)
			t.Run(name, func(t *testing.T) {
				opts := kernels.Options{Mode: mode, Ops: quickOps[bench], Workload: 2}
				cfg := machine.DefaultConfig()
				cfg.Mem = memsys.DepthConfig(3)
				verify, build := kernelClocks(t, bench, opts, cfg)
				runBothClocks(t, name, verify, build)
			})
		}
	}
}

// TestClockEquivalenceManyCore differences the scale kernels on wide
// machines: 64 cores (the widest inline sharer bitmask), 65 (the first
// with extension sharer words) and 256. scale-imb's straggler computes while every
// other core spins at the barrier, which is where the event-driven clock
// parks spinners and catches them up at the release; scale has no such
// tail, and at Workload 4 its longer private compute phases let the
// clock jump across many idle cores at once.
func TestClockEquivalenceManyCore(t *testing.T) {
	for _, tc := range []struct {
		bench    string
		cores    int
		workload int
	}{
		{"scale-imb", 64, 1},
		{"scale", 65, 1},
		{"scale", 65, 4},
		{"scale-imb", 65, 1},
		{"scale", 256, 4},
		{"scale-imb", 256, 1},
	} {
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			name := fmt.Sprintf("%s/%d/%v", tc.bench, tc.cores, mode)
			if tc.workload != 1 {
				name += fmt.Sprintf("/workload=%d", tc.workload)
			}
			t.Run(name, func(t *testing.T) {
				opts := kernels.Options{Mode: mode, Threads: tc.cores, Ops: 2, Workload: tc.workload}
				cfg := machine.DefaultConfig()
				cfg.Cores = tc.cores
				verify, build := kernelClocks(t, tc.bench, opts, cfg)
				runBothClocks(t, name, verify, build)
			})
		}
	}
}

// TestClockSpinForwardDepth3 pins the spin detector's behavior on a
// three-level hierarchy for the kernels whose busy-waits it targets.
// Detached (no tracer), the event-driven run must be bit-identical to the
// naive run AND — for the kernels that actually spin in confirmable
// periodic orbits (dekker's flag polls, wsq's empty-queue waits) — must
// cover part of the run with spin-aware jumps. harris rides along with
// wantSpin=false: its lock-free retry loops mutate list state every
// iteration, so the detector correctly never confirms a periodic orbit
// there, and the test documents that a zero is honest rather than a
// detector failure. With a per-cycle tracer attached the machine must pin
// the slow path instead: TracerPinned set, zero jumps of any kind, and
// the exact same simulated outcome.
func TestClockSpinForwardDepth3(t *testing.T) {
	cases := []struct {
		bench    string
		wantSpin bool
	}{
		{"dekker", true},
		{"wsq", true},
		{"harris", false},
	}
	for _, tc := range cases {
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			name := fmt.Sprintf("%s/%v", tc.bench, mode)
			t.Run(name, func(t *testing.T) {
				opts := kernels.Options{Mode: mode, Ops: quickOps[tc.bench], Workload: 2}
				cfg := machine.DefaultConfig()
				cfg.Mem = memsys.DepthConfig(3)

				// Detached: naive vs. event-driven differential, with the
				// spin fast path required to engage where an orbit exists.
				_, build := kernelClocks(t, tc.bench, opts, cfg)
				mE := runBothClocks(t, name, nil, build)
				cs := mE.Clock()
				if cs.SpinJumps > cs.Jumps || cs.SpinSkippedCycles > cs.SkippedCycles {
					t.Errorf("spin accounting exceeds totals: %+v", cs)
				}
				if tc.wantSpin && cs.SpinJumps == 0 {
					t.Errorf("expected spin-aware jumps on %s, got none: %+v", name, cs)
				}
				if cs.SpinJumps > 0 && cs.SpinSkippedCycles == 0 {
					t.Errorf("spin jumps with zero skipped cycles: %+v", cs)
				}

				// Attached: a per-cycle tracer must pin the slow path and
				// still produce the identical simulated outcome.
				_, mT := buildKernelMachine(t, tc.bench, opts, cfg)
				for i := 0; i < mT.Cores(); i++ {
					mT.Core(i).SetTracer(countingTracer{})
				}
				tcyc, err := mT.Run(context.Background())
				if err != nil {
					t.Fatalf("traced run: %v", err)
				}
				requireSame(t, name+"/traced", mE, mT)
				ts := mT.Clock()
				if !ts.TracerPinned {
					t.Errorf("traced run did not report TracerPinned: %+v", ts)
				}
				if ts.SkippedCycles != 0 || ts.Jumps != 0 || ts.SpinJumps != 0 || ts.SpinSkippedCycles != 0 {
					t.Errorf("traced run fast-forwarded: %+v", ts)
				}
				if ts.SlowTicks != tcyc {
					t.Errorf("traced run stepped %d cycles of %d", ts.SlowTicks, tcyc)
				}
			})
		}
	}
}

// TestClockEquivalenceLitmus runs every litmus test under both clocks and
// three machine configurations (baseline, in-window speculation, FIFO
// store buffer), covering the snoop-replay and recovery paths.
func TestClockEquivalenceLitmus(t *testing.T) {
	tests := []*litmus.Test{
		litmus.StoreBuffering(false, isa.ScopeGlobal),
		litmus.StoreBuffering(true, isa.ScopeGlobal),
		litmus.StoreBuffering(true, isa.ScopeSet),
		litmus.MessagePassing(false),
		litmus.MessagePassing(true),
		litmus.LoadBuffering(),
		litmus.IRIW(),
		litmus.ClassScopedSB(),
		litmus.ScopedSBLeaky(),
		litmus.SBWithStoreStoreFence(),
		litmus.MessagePassingSS(isa.ScopeGlobal),
		litmus.MessagePassingSS(isa.ScopeClass),
		litmus.CASIncrement(4, 16),
		litmus.CoWW(),
		litmus.MessagePassingFiner(),
	}
	cfgs := map[string]func(*machine.Config){
		"base": func(*machine.Config) {},
		"spec": func(c *machine.Config) { c.Core.InWindowSpec = true },
		"fifo": func(c *machine.Config) { c.Core.FIFOStoreBuffer = true },
		"spec-shadow": func(c *machine.Config) {
			c.Core.InWindowSpec = true
			c.Core.Recovery = cpu.RecoveryShadow
		},
	}
	for cfgName, tweak := range cfgs {
		for _, lt := range tests {
			name := fmt.Sprintf("%s/%s", cfgName, lt.Name)
			t.Run(name, func(t *testing.T) {
				cfg := litmus.DefaultMachineConfig()
				tweak(&cfg)

				runBothClocks(t, name, nil, func(maxCycles int64) *machine.Machine {
					c := cfg
					c.MaxCycles = maxCycles
					m, err := machine.New(c, lt.Program, lt.Threads)
					if err != nil {
						t.Fatalf("machine: %v", err)
					}
					return m
				})
			})
		}
	}
}

// TestClockTracingPinsSlowPath checks that a machine with a tracer never
// fast-forwards: tracers observe per-cycle events, so every cycle must be
// stepped.
func TestClockTracingPinsSlowPath(t *testing.T) {
	_, m := buildKernelMachine(t, "fence-drain",
		kernels.Options{Mode: kernels.Traditional, Ops: 20}, machine.DefaultConfig())
	for i := 0; i < m.Cores(); i++ {
		m.Core(i).SetTracer(countingTracer{})
	}
	cycles, err := m.Run(context.Background())
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	cs := m.Clock()
	if cs.SkippedCycles != 0 || cs.Jumps != 0 {
		t.Fatalf("traced run fast-forwarded: %+v", cs)
	}
	if cs.SlowTicks != cycles {
		t.Fatalf("traced run stepped %d cycles of %d", cs.SlowTicks, cycles)
	}
	// The clock must say WHY there were no jumps: fast-forward was
	// disabled by the tracer, not never needed.
	if !cs.TracerPinned {
		t.Fatalf("traced run did not report TracerPinned: %+v", cs)
	}
	if got := m.StatsSnapshot().Value("machine.clock.tracer_pinned"); got != 1 {
		t.Fatalf("machine.clock.tracer_pinned = %d, want 1", got)
	}
}

// TestClockFastForwardEngages pins the work the event-driven clock saves,
// as exact counts rather than wall time, on every quickOps kernel in T
// and S (Workload 2). Every run must skip cycles and tick a core on at
// most 3/4 of its core cycles; the long-latency kernels must skip at
// least half their cycles; and dekker and wsq under traditional fences
// must take spin jumps. The tightest margins are ptc's skipped share
// (about 2%) and harris/S's core ticks per core cycle (about 0.63).
func TestClockFastForwardEngages(t *testing.T) {
	const maxTickShare = 0.75
	minSkipShare := map[string]float64{"barnes": 0.5, "radiosity": 0.5, "fence-drain": 0.5}
	spinsUnderT := map[string]bool{"dekker": true, "wsq": true}
	for _, bench := range slices.Sorted(maps.Keys(quickOps)) {
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			t.Run(fmt.Sprintf("%s/%v", bench, mode), func(t *testing.T) {
				opts := kernels.Options{Mode: mode, Ops: quickOps[bench], Workload: 2}
				_, m := buildKernelMachine(t, bench, opts, machine.DefaultConfig())
				cycles, err := m.Run(context.Background())
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				cs := m.Clock()
				if cs.SlowTicks+cs.SkippedCycles != cycles {
					t.Fatalf("clock accounting broken: %+v vs %d cycles", cs, cycles)
				}
				skipShare := float64(cs.SkippedCycles) / float64(cycles)
				tickShare := float64(cs.CoreTicks) / float64(m.StatsSnapshot().UValue("machine.core_cycles"))
				t.Logf("skipped %.3f, core ticks per core cycle %.3f, spin jumps %d", skipShare, tickShare, cs.SpinJumps)
				if cs.SkippedCycles == 0 || skipShare < minSkipShare[bench] {
					t.Errorf("clock skipped %.1f%% of %d cycles, want above 0 and at least %.0f%% (%+v)", 100*skipShare, cycles, 100*minSkipShare[bench], cs)
				}
				if tickShare > maxTickShare {
					t.Errorf("%.3f core ticks per core cycle, want at most %.2f (%+v)", tickShare, maxTickShare, cs)
				}
				if mode == kernels.Traditional && spinsUnderT[bench] && cs.SpinJumps == 0 {
					t.Errorf("no spin jumps: the spin detector never confirmed an orbit (%+v)", cs)
				}
			})
		}
	}
}

type countingTracer struct{}

func (countingTracer) Trace(int64, int, cpu.TraceEvent, uint64, isa.Instruction, int64) {}
