// Differential test of concurrent simulation: the experiment session's
// worker pool and sfence-serve's job pool run many independent machines
// at once in one process, on the promise that the pool width cannot
// change any result. Every Table IV kernel and every litmus
// configuration is simulated alone (the reference) and then as several
// copies built and run at the same time on their own goroutines, and
// every copy must be bit-identical to the reference — same final cycle,
// same registers, same memory image, same full stats registry, same
// clock accounting. Run it under -race to also certify that machines
// share no mutable state (kernel builders, programs, memory pages,
// stats registries).
package sfence_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sfence/internal/cpu"
	"sfence/internal/isa"
	"sfence/internal/kernels"
	"sfence/internal/litmus"
	"sfence/internal/machine"
	"sfence/internal/memsys"
)

// concurrentCopies is how many copies of each configuration are
// simulated at the same time against the solo reference.
const concurrentCopies = 2

// runConcurrently builds and runs n machines at once, one goroutine per
// machine, and returns them with their final cycles. newMachine gets the
// copy's index and is called on that copy's goroutine, so builders are
// exercised concurrently too.
func runConcurrently(t *testing.T, n int, newMachine func(i int) (*machine.Machine, error)) ([]*machine.Machine, []int64) {
	t.Helper()
	ms := make([]*machine.Machine, n)
	cycles := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := newMachine(i)
			if err != nil {
				errs[i] = err
				return
			}
			ms[i] = m
			cycles[i], errs[i] = m.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent copy %d: %v", i, err)
		}
	}
	return ms, cycles
}

// checkConcurrentCopies runs one configuration alone and then as
// concurrentCopies simultaneous copies, and requires every copy to match
// the solo run exactly, clock accounting included.
func checkConcurrentCopies(t *testing.T, name string, newMachine func() (*machine.Machine, error)) {
	t.Helper()
	refs, _ := runConcurrently(t, 1, func(int) (*machine.Machine, error) { return newMachine() })
	ref := refs[0]
	ms, _ := runConcurrently(t, concurrentCopies, func(int) (*machine.Machine, error) { return newMachine() })
	for i, m := range ms {
		copyName := fmt.Sprintf("%s/copy=%d", name, i)
		requireSame(t, copyName, ref, m)
		if rc, mc := ref.Clock(), m.Clock(); rc != mc {
			t.Errorf("%s: clock accounting diverged: solo %+v, concurrent %+v", copyName, rc, mc)
		}
	}
}

// newKernelMachine builds one kernel machine without a *testing.T, so it
// can run on a copy's goroutine.
func newKernelMachine(bench string, opts kernels.Options, cfg machine.Config) (*machine.Machine, error) {
	k, err := kernels.Build(bench, opts)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", bench, err)
	}
	m, err := machine.New(cfg, k.Program, k.Threads)
	if err != nil {
		return nil, fmt.Errorf("machine for %s: %w", bench, err)
	}
	k.LoadImage(m.Image())
	return m, nil
}

// TestParallelEquivalenceKernels runs every Table IV kernel concurrently
// against its solo run under traditional and scoped fences, with and
// without in-window speculation.
func TestParallelEquivalenceKernels(t *testing.T) {
	benches := []string{"dekker", "wsq", "msn", "harris", "barnes", "radiosity", "pst", "ptc", "nested-scope", "fence-drain"}
	for _, bench := range benches {
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			for _, spec := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/spec=%v", bench, mode, spec)
				t.Run(name, func(t *testing.T) {
					opts := kernels.Options{Mode: mode, Ops: quickOps[bench], Workload: 2}
					cfg := machine.DefaultConfig()
					cfg.Core.InWindowSpec = spec
					checkConcurrentCopies(t, name, func() (*machine.Machine, error) {
						return newKernelMachine(bench, opts, cfg)
					})
				})
			}
		}
	}
}

// TestParallelEquivalenceDepth3 re-runs the kernel differential on a
// three-level hierarchy, whose middle private banks are further
// per-machine state that concurrent copies must not share.
func TestParallelEquivalenceDepth3(t *testing.T) {
	for _, info := range kernels.All() {
		bench := info.Name
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			name := fmt.Sprintf("depth3/%s/%v", bench, mode)
			t.Run(name, func(t *testing.T) {
				opts := kernels.Options{Mode: mode, Ops: quickOps[bench], Workload: 2}
				cfg := machine.DefaultConfig()
				cfg.Mem = memsys.DepthConfig(3)
				checkConcurrentCopies(t, name, func() (*machine.Machine, error) {
					return newKernelMachine(bench, opts, cfg)
				})
			})
		}
	}
}

// TestParallelEquivalenceLitmus runs every litmus test and machine
// configuration concurrently against its solo run. The copies share one
// *isa.Program, so this also pins that a machine never writes to the
// program it executes.
func TestParallelEquivalenceLitmus(t *testing.T) {
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
				checkConcurrentCopies(t, name, func() (*machine.Machine, error) {
					return machine.New(cfg, lt.Program, lt.Threads)
				})
			})
		}
	}
}

// TestParallelEquivalenceManyCore runs the scale kernels concurrently on
// wide machines — 65 cores (the first with sharer words past the inline
// bitmask) and 256 cores — where each copy has its own directory
// extension words and parks its own barrier spinners.
func TestParallelEquivalenceManyCore(t *testing.T) {
	for _, tc := range []struct {
		bench    string
		cores    int
		workload int
	}{
		{"scale", 65, 4},
		{"scale-imb", 65, 1},
		{"scale", 256, 4},
		{"scale-imb", 256, 1},
	} {
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			name := fmt.Sprintf("%s/%d/%v", tc.bench, tc.cores, mode)
			t.Run(name, func(t *testing.T) {
				opts := kernels.Options{Mode: mode, Threads: tc.cores, Ops: 2, Workload: tc.workload}
				cfg := machine.DefaultConfig()
				cfg.Cores = tc.cores
				checkConcurrentCopies(t, name, func() (*machine.Machine, error) {
					return newKernelMachine(tc.bench, opts, cfg)
				})
			})
		}
	}
}

// TestParallelTracedFallsBack pins that tracer pinning is per machine: of
// concurrent copies, the traced one falls back to stepping every cycle
// while its untraced siblings still fast-forward, and all of them end in
// the same simulated state.
func TestParallelTracedFallsBack(t *testing.T) {
	opts := kernels.Options{Mode: kernels.Traditional, Ops: 20}
	cfg := machine.DefaultConfig()
	const traced = 0
	ms, cycles := runConcurrently(t, concurrentCopies+1, func(i int) (*machine.Machine, error) {
		m, err := newKernelMachine("fence-drain", opts, cfg)
		if err == nil && i == traced {
			for c := 0; c < m.Cores(); c++ {
				m.Core(c).SetTracer(countingTracer{})
			}
		}
		return m, err
	})
	ts := ms[traced].Clock()
	if !ts.TracerPinned || ts.Jumps != 0 || ts.SlowTicks != cycles[traced] {
		t.Fatalf("traced copy did not fall back to the slow path: %+v over %d cycles", ts, cycles[traced])
	}
	for i, m := range ms {
		if i == traced {
			continue
		}
		name := fmt.Sprintf("fence-drain/copy=%d", i)
		requireSame(t, name, ms[traced], m)
		if cs := m.Clock(); cs.TracerPinned || cs.Jumps == 0 {
			t.Errorf("%s: untraced sibling of a traced machine did not fast-forward: %+v", name, cs)
		}
	}
}
