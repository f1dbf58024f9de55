package ref

import (
	"context"
	"fmt"
	"math/rand"

	"sfence/internal/isa"
	"sfence/internal/machine"
	"sfence/internal/memsys"
)

// concOracleMaxSteps bounds the round-robin oracle. Generated scenarios
// terminate by construction; hitting this limit is a generator or
// interpreter bug and fails the check loudly.
const concOracleMaxSteps = 4_000_000

// concMaxCycles bounds each machine run of the checker. Far above any
// generated scenario's real runtime, far below DefaultMaxCycles so a
// livelock inside the fuzzer fails in seconds, not minutes.
const concMaxCycles = 50_000_000

// ConcRun records one (variant, depth) event-driven machine execution of
// a scenario.
type ConcRun struct {
	Variant Variant
	Depth   int
	Cycles  int64
	// Clock accounting of the event-driven run (the naive run is pure
	// slow ticks by definition).
	SlowTicks     int64
	SkippedCycles int64
}

// ConcReport summarizes one CheckConcurrent pass over a scenario.
type ConcReport struct {
	Seed        int64
	Threads     int
	Insts       [NumVariants]int // instruction count per variant
	OracleSteps int
	Runs        []ConcRun
	// Static scope-inference accounting for the fourth, analysis-derived
	// lowering (see checkScopesStatically).
	InferredFences  int // fences rewritten to set scope
	InferredFlagged int // accesses flagged by inference
}

// concMachineConfig returns the machine configuration the checker runs a
// scenario under: one core per thread, a hierarchy of the given depth, a
// 1 MiB image covering the scenario's footprint, and the given cycle
// budget.
func concMachineConfig(threads, depth int, maxCycles int64) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = threads
	cfg.Mem = memsys.DepthConfig(depth)
	cfg.ImageSize = 1 << 20
	cfg.MaxCycles = maxCycles
	return cfg
}

// newConcMachine builds a machine for one lowering of cp at the given
// hierarchy depth and cycle budget, with the scenario's initial registers
// and memory.
func newConcMachine(cp *ConcProgram, v Variant, prog *isa.Program, depth int, maxCycles int64) (*machine.Machine, error) {
	threads := make([]machine.Thread, cp.NumThreads)
	for t := range threads {
		threads[t] = machine.Thread{Entry: ConcEntry(t), Regs: cp.Regs[t]}
	}
	m, err := machine.New(concMachineConfig(cp.NumThreads, depth, maxCycles), prog, threads)
	if err != nil {
		return nil, fmt.Errorf("ref: machine for variant %v depth %d: %w", v, depth, err)
	}
	for addr, val := range cp.Mem {
		m.Image().Store(addr, val)
	}
	return m, nil
}

// checkAgainstOracle compares the checked projection of a finished
// machine run against the oracle's: per-thread data registers R1-R12 and
// every word of the scenario's shared-memory footprint. Scratch registers
// (R13-R19 and the loop counters) are interleaving-dependent — a CAS
// retry loop legitimately observes different intermediate values under
// different timings — so they are excluded by design; everything the
// generator's determinacy argument covers is compared exactly.
func checkAgainstOracle(label string, m *machine.Machine, oracle *ConcState, threads int) error {
	for t := 0; t < threads; t++ {
		for r := isa.R1; r <= isa.R12; r++ {
			got, want := m.Core(t).Reg(r), oracle.Threads[t].Regs[r]
			if got != want {
				return fmt.Errorf("%s: thread %d R%d = %d, oracle says %d", label, t, r, got, want)
			}
		}
	}
	for addr := int64(concCounterBase); addr < concMemEnd(threads); addr += 8 {
		got, want := m.Image().Load(addr), oracle.Mem[addr]
		if got != want {
			return fmt.Errorf("%s: mem[%d] = %d, oracle says %d", label, addr, got, want)
		}
	}
	return nil
}

// CheckConcurrent generates the scenario for seed and differentially
// checks it end to end:
//
//  1. the round-robin SC oracle (RunConc) executes the traditional
//     variant — fences are functionally transparent there, so one oracle
//     run covers every lowering;
//  2. the static scope analyzer verifies the class and set lowerings
//     clean (their annotations are correct by construction, so a finding
//     is an analyzer or generator bug) and infers a fourth, set-scoped
//     lowering from the unannotated traditional variant;
//  3. for every hierarchy depth in depths and every lowering — the three
//     generated ones plus the inferred one — the full machine runs the
//     scenario twice — naive per-cycle stepping and the two-speed
//     event-driven clock — and machine.Diff must find the two runs
//     identical (cycles, clock partition, full stats registry, per-core
//     clocks, stats, registers and fence profiles, hierarchy stats,
//     whole image). On its way the naive run stops at a cycle drawn from
//     the seed, where it must agree with a third machine run on the
//     event-driven clock with that cut as its cycle budget: a run
//     stopped by its budget must leave every core caught up to the cut;
//  4. each machine run's checked projection (per-thread R1-R12 plus the
//     scenario's memory footprint) must equal the oracle's exactly.
//
// Step 4 against the one shared oracle transitively forces all lowerings
// and all depths to agree on final architectural state — the paper's
// semantics-preservation claim — while allowing them to differ on every
// timing observable. For the inferred lowering it is the dynamic half of
// inference soundness: the static narrowing must preserve the checked
// projection on real hardware timings, not just under the analyzer's own
// model. Any divergence returns a descriptive error; nil means the
// scenario passed everywhere.
func CheckConcurrent(seed int64, depths []int) (*ConcReport, error) {
	cp := GenConcurrent(seed)
	rep := &ConcReport{Seed: seed, Threads: cp.NumThreads}
	for v := Variant(0); v < NumVariants; v++ {
		rep.Insts[v] = len(cp.Variants[v].Code)
	}

	entries := make([]string, cp.NumThreads)
	for t := range entries {
		entries[t] = ConcEntry(t)
	}
	oracle, err := RunConc(cp.Variants[VariantTraditional], entries, cp.Regs, cp.Mem, concOracleMaxSteps)
	if err != nil {
		return rep, fmt.Errorf("seed %d: oracle failed on a guaranteed-terminating scenario: %w", seed, err)
	}
	rep.OracleSteps = oracle.Steps

	inferred, info, err := checkScopesStatically(cp)
	if err != nil {
		return rep, err
	}
	rep.InferredFences = info.Fences
	rep.InferredFlagged = len(info.Flagged)

	lowerings := []struct {
		v    Variant
		prog *isa.Program
	}{
		{VariantTraditional, cp.Variants[VariantTraditional]},
		{VariantClass, cp.Variants[VariantClass]},
		{VariantSet, cp.Variants[VariantSet]},
		{VariantInferred, inferred},
	}
	cuts := rand.New(rand.NewSource(seed))
	for _, depth := range depths {
		for _, low := range lowerings {
			v := low.v
			label := fmt.Sprintf("seed %d variant %v depth %d", seed, v, depth)
			mN, err := newConcMachine(cp, v, low.prog, depth, concMaxCycles)
			if err != nil {
				return rep, err
			}
			mE, err := newConcMachine(cp, v, low.prog, depth, concMaxCycles)
			if err != nil {
				return rep, err
			}
			ec, err := mE.Run(context.Background())
			if err != nil {
				return rep, fmt.Errorf("%s: event-driven run: %w", label, err)
			}
			if ec > 1 {
				cut := 1 + cuts.Int63n(ec-1)
				mC, err := newConcMachine(cp, v, low.prog, depth, cut)
				if err != nil {
					return rep, err
				}
				errN := mN.StepUntil(cut)
				_, errC := mC.Run(context.Background())
				if errN == nil || errC == nil || errN.Error() != errC.Error() {
					return rep, fmt.Errorf("%s: runs stopped at cycle %d with %v (naive) and %v (event-driven), want the budget error", label, cut, errN, errC)
				}
				if err := machine.Diff(mN, mC); err != nil {
					return rep, fmt.Errorf("%s: naive vs event-driven at cycle %d: %w", label, cut, err)
				}
			}
			if err := mN.StepUntil(concMaxCycles); err != nil {
				return rep, fmt.Errorf("%s: naive run: %w", label, err)
			}
			if err := machine.Diff(mN, mE); err != nil {
				return rep, fmt.Errorf("%s: naive vs event-driven: %w", label, err)
			}
			if err := checkAgainstOracle(label, mE, oracle, cp.NumThreads); err != nil {
				return rep, err
			}
			cs := mE.Clock()
			rep.Runs = append(rep.Runs, ConcRun{
				Variant: v, Depth: depth, Cycles: ec,
				SlowTicks: cs.SlowTicks, SkippedCycles: cs.SkippedCycles,
			})
		}
	}
	return rep, nil
}
