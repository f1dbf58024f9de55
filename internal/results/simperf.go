package results

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
)

// KindSimPerf is the envelope kind of the simulator-performance artifact
// (BENCH_SIMPERF.json). Unlike every other artifact it records wall-clock
// measurements of the simulator itself, so it is not deterministic and is
// only written when explicitly requested (sfence-report -simperf).
const KindSimPerf = "simperf"

const simPerfTitle = "Simulator performance — naive per-cycle stepping vs. event-driven clock"

// SimPerfRow is one workload's clock comparison: the same simulation run
// under naive per-cycle stepping (Step/Done/Fault, the pre-event-driven
// Run loop) and under the two-speed event-driven Run, with identical
// results asserted before the timings are recorded.
type SimPerfRow struct {
	Bench     string `json:"bench"`
	Mode      string `json:"mode"`
	Threads   int    `json:"threads"`
	Ops       int    `json:"ops"`
	Workload  int    `json:"workload,omitempty"`
	SimCycles int64  `json:"simCycles"`

	NaiveNs int64 `json:"naiveNs"`
	EventNs int64 `json:"eventNs"`

	NaiveCyclesPerSec float64 `json:"naiveCyclesPerSec"`
	EventCyclesPerSec float64 `json:"eventCyclesPerSec"`
	// Speedup is event-driven over naive wall clock for the same machine.
	Speedup float64 `json:"speedup"`

	// Clock accounting of the event-driven run: cycles stepped one by one
	// vs. covered by fast-forward jumps.
	SlowTicks     int64 `json:"slowTicks"`
	SkippedCycles int64 `json:"skippedCycles"`
	Jumps         int64 `json:"jumps"`
	// Spin accounting: jumps taken while at least one core was parked in
	// a confirmed busy-wait orbit, and the cycles those jumps covered.
	SpinJumps         int64 `json:"spinJumps"`
	SpinSkippedCycles int64 `json:"spinSkippedCycles"`
}

// SimPerfReport is the BENCH_SIMPERF.json payload.
type SimPerfReport struct {
	GoVersion string       `json:"goVersion"`
	Rows      []SimPerfRow `json:"rows"`
}

// simPerfCase is one tracked workload.
type simPerfCase struct {
	bench string
	opts  kernels.Options
}

// simPerfKernelOps sizes the per-kernel rows: enough iterations that the
// steady-state clock behavior dominates warm-up, small enough that the
// full matrix (8 kernels x 2 fence modes x 2 clocks) stays respectable on
// a laptop. Full scale doubles the quick sizes.
var simPerfKernelOps = map[string]int{
	"dekker": 60, "wsq": 50, "msn": 32, "harris": 40,
	"pst": 160, "ptc": 64, "barnes": 16, "radiosity": 16,
}

// simPerfKernels fixes the row order of the per-kernel block.
var simPerfKernels = []string{
	"dekker", "wsq", "msn", "harris", "pst", "ptc", "barnes", "radiosity",
}

// simPerfCases are the tracked workloads: the fence-drain microbenchmark
// is the paper's Fig. 10 pattern (fence-heavy, miss-heavy — the
// event-driven clock's home turf), followed by every Table IV kernel
// under both fence modes, which is where the spin detector earns its
// keep: contended kernels busy-wait with the pipeline fully active, so
// only spin-aware jumps can compress them.
func simPerfCases(sc exp.Scale) []simPerfCase {
	ops := 400
	wl := 8
	scale := 2
	if sc == exp.Quick {
		ops = 200
		wl = 4
		scale = 1
	}
	cases := []simPerfCase{
		{bench: "fence-drain", opts: kernels.Options{Mode: kernels.Traditional, Ops: ops}},
		{bench: "fence-drain", opts: kernels.Options{Mode: kernels.Scoped, Ops: ops}},
	}
	for _, bench := range simPerfKernels {
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			cases = append(cases, simPerfCase{
				bench: bench,
				opts:  kernels.Options{Mode: mode, Ops: simPerfKernelOps[bench] * scale, Workload: wl},
			})
		}
	}
	return cases
}

// buildMachine assembles a ready-to-run machine for one case on the
// Table III configuration.
func buildMachine(bench string, opts kernels.Options) (*kernels.Kernel, *machine.Machine, error) {
	k, err := kernels.Build(bench, opts)
	if err != nil {
		return nil, nil, err
	}
	m, err := machine.New(machine.DefaultConfig(), k.Program, k.Threads)
	if err != nil {
		return nil, nil, err
	}
	k.LoadImage(m.Image())
	return k, m, nil
}

// runNaive drives the machine with the pre-event-driven loop: one Step per
// cycle with the Done/Fault scans Run used to perform.
func runNaive(ctx context.Context, m *machine.Machine) (int64, error) {
	limit := int64(machine.DefaultMaxCycles)
	for !m.Done() {
		if m.Cycle()%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return m.Cycle(), err
			}
		}
		if err := m.Fault(); err != nil {
			return m.Cycle(), err
		}
		if m.Cycle() >= limit {
			return m.Cycle(), fmt.Errorf("results: naive run exceeded %d cycles", limit)
		}
		m.Step()
	}
	return m.Cycle(), nil
}

// RunSimPerf measures every tracked workload under both clocks and
// asserts the runs are bit-identical (cycle count and aggregate core
// statistics) before recording the timings. The context cancels the
// event-driven runs; the naive loop polls it between steps.
func RunSimPerf(ctx context.Context, sc exp.Scale) (SimPerfReport, error) {
	rep := SimPerfReport{GoVersion: runtime.Version()}
	for _, tc := range simPerfCases(sc) {
		kN, mN, err := buildMachine(tc.bench, tc.opts)
		if err != nil {
			return rep, fmt.Errorf("results: simperf %s: %w", tc.bench, err)
		}
		_, mE, err := buildMachine(tc.bench, tc.opts)
		if err != nil {
			return rep, fmt.Errorf("results: simperf %s: %w", tc.bench, err)
		}

		t0 := time.Now()
		naiveCycles, err := runNaive(ctx, mN)
		naiveNs := time.Since(t0).Nanoseconds()
		if err != nil {
			return rep, fmt.Errorf("results: simperf %s (naive): %w", tc.bench, err)
		}
		t0 = time.Now()
		eventCycles, err := mE.Run(ctx)
		eventNs := time.Since(t0).Nanoseconds()
		if err != nil {
			return rep, fmt.Errorf("results: simperf %s (event): %w", tc.bench, err)
		}

		if naiveCycles != eventCycles {
			return rep, fmt.Errorf("results: simperf %s: clock divergence: naive %d cycles, event-driven %d", tc.bench, naiveCycles, eventCycles)
		}
		sn, se := mN.TotalStats(), mE.TotalStats()
		if sn != se {
			return rep, fmt.Errorf("results: simperf %s: clock divergence in core stats:\nnaive %+v\nevent %+v", tc.bench, sn, se)
		}
		if kN.Verify != nil {
			if err := kN.Verify(mE.Image()); err != nil {
				return rep, fmt.Errorf("results: simperf %s: %w", tc.bench, err)
			}
		}

		cs := mE.Clock()
		row := SimPerfRow{
			Bench:     tc.bench,
			Mode:      tc.opts.Mode.String(),
			Threads:   len(kN.Threads),
			Ops:       tc.opts.Ops,
			Workload:  tc.opts.Workload,
			SimCycles: eventCycles,
			NaiveNs:   naiveNs,
			EventNs:   eventNs,
			Speedup:   float64(naiveNs) / float64(eventNs),

			SlowTicks:     cs.SlowTicks,
			SkippedCycles: cs.SkippedCycles,
			Jumps:         cs.Jumps,

			SpinJumps:         cs.SpinJumps,
			SpinSkippedCycles: cs.SpinSkippedCycles,
		}
		if naiveNs > 0 {
			row.NaiveCyclesPerSec = float64(naiveCycles) / (float64(naiveNs) / 1e9)
		}
		if eventNs > 0 {
			row.EventCyclesPerSec = float64(eventCycles) / (float64(eventNs) / 1e9)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// SimPerfJSON renders the simulator-performance artifact.
func SimPerfJSON(rep SimPerfReport, sc exp.Scale) ([]byte, error) {
	return Marshal(NewEnvelope(KindSimPerf, simPerfTitle, sc, rep))
}
