// Package exp defines the paper's experiments: one regeneration method
// per table and figure of the evaluation section (Section VI), plus the
// ablations called out in DESIGN.md. Each method returns structured
// results and has an accompanying renderer producing the ASCII equivalent
// of the paper's chart.
//
// All experiment state is per-Session: a Session owns its runner, its
// progress sink, and its worker-pool width, so two sessions can run
// independent, cancellable evaluations in one process without sharing
// anything. The package has no mutable package-level state.
package exp

import (
	"context"
	"fmt"
	"runtime"

	"sfence/internal/cpu"
	"sfence/internal/kernels"
	"sfence/internal/machine"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick shrinks workloads for CI and unit tests.
	Quick Scale = iota
	// Full is the paper-shaped sizing used for EXPERIMENTS.md.
	Full
)

// opsFor returns the per-benchmark operation count at a scale.
func opsFor(bench string, sc Scale) int {
	quick := map[string]int{
		"dekker": 25, "wsq": 50, "msn": 32, "harris": 40,
		"pst": 160, "ptc": 64, "barnes": 16, "radiosity": 16,
	}
	full := map[string]int{
		"dekker": 60, "wsq": 120, "msn": 80, "harris": 90,
		"pst": 400, "ptc": 128, "barnes": 48, "radiosity": 48,
	}
	if sc == Quick {
		return quick[bench]
	}
	return full[bench]
}

// threadsFor returns the per-benchmark thread count (Table III: 8 cores).
func threadsFor(bench string) int {
	switch bench {
	case "nested-scope":
		return 1
	case "dekker":
		return 2
	case "wsq", "msn", "harris":
		return 4
	default:
		return 8
	}
}

// baseConfig is the Table III machine.
func baseConfig() machine.Config { return machine.DefaultConfig() }

// Runner executes one benchmark configuration. The default runner builds
// the kernel and simulates it directly; results.RunCache provides a
// memoizing runner so identical (benchmark, options, machine) triples are
// simulated once across a session's experiments.
type Runner func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error)

// ProgressFunc receives per-experiment completion updates: done out of
// total simulations have finished for the named experiment.
type ProgressFunc func(experiment string, done, total int)

// Session owns everything one experiment run needs: the runner that
// executes (or memoizes) simulations, the progress sink, and the width of
// the worker pool. Sessions are immutable after construction and safe for
// concurrent use; independent sessions never share state, so two of them
// can run full evaluations in parallel in one process.
type Session struct {
	runner      Runner // nil = DirectRun
	progress    ProgressFunc
	parallelism int
}

// NewSession builds a session. A nil runner simulates directly, a nil
// progress disables reporting, and a non-positive parallelism defaults to
// runtime.GOMAXPROCS(0). Each run is an independent deterministic machine,
// so the pool width cannot change any result — only wall-clock time.
func NewSession(runner Runner, progress ProgressFunc, parallelism int) *Session {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Session{runner: runner, progress: progress, parallelism: parallelism}
}

// DirectRun builds and simulates one benchmark configuration, bypassing
// any session runner. This is what runOne does when the session has no
// runner, and what a memoizing runner calls on a cache miss.
func DirectRun(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
	k, err := kernels.Build(bench, opts)
	if err != nil {
		return kernels.Result{}, err
	}
	return kernels.Run(ctx, k, cfg)
}

// runOne runs a benchmark under the given mode/config, after normalizing
// the thread count so equivalent runs present identical cache keys.
func (s *Session) runOne(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
	if opts.Threads == 0 {
		opts.Threads = threadsFor(bench)
	}
	if s.runner != nil {
		return s.runner(ctx, bench, opts, cfg)
	}
	return DirectRun(ctx, bench, opts, cfg)
}

// Bar is one stacked bar of a normalized-execution-time chart: the fence
// stall portion and the rest, both normalized to the experiment's baseline
// total time (the paper's presentation in Figures 13-16).
type Bar struct {
	Label      string  `json:"label"`
	FenceStall float64 `json:"fenceStall"`
	Others     float64 `json:"others"`
}

// Total returns the bar height (normalized execution time).
func (b Bar) Total() float64 { return b.FenceStall + b.Others }

// barFrom converts a run into a Bar normalized against baselineCycles.
func barFrom(label string, r kernels.Result, baselineCycles int64) Bar {
	height := float64(r.Cycles) / float64(baselineCycles)
	stall := height * r.FenceStallFraction()
	return Bar{Label: label, FenceStall: stall, Others: height - stall}
}

// SpeedupSeries is one benchmark's curve in Figure 12.
type SpeedupSeries struct {
	Bench    string    `json:"bench"`
	Workload []int     `json:"workload"`
	Speedup  []float64 `json:"speedup"`
}

// Peak returns the peak speedup and its workload level.
func (s SpeedupSeries) Peak() (float64, int) {
	best, at := 0.0, 0
	for i, v := range s.Speedup {
		if v > best {
			best, at = v, s.Workload[i]
		}
	}
	return best, at
}

// BenchGroup is one benchmark's bars in a grouped figure.
type BenchGroup struct {
	Bench string `json:"bench"`
	Bars  []Bar  `json:"bars"`
}

// modeOpts builds options for the four paper configurations T, S, T+, S+.
var fig13Configs = []struct {
	Label string
	Mode  kernels.FenceMode
	Spec  bool
}{
	{"T", kernels.Traditional, false},
	{"S", kernels.Scoped, false},
	{"T+", kernels.Traditional, true},
	{"S+", kernels.Scoped, true},
}

func withSpec(cfg machine.Config, spec bool) machine.Config {
	cfg.Core.InWindowSpec = spec
	return cfg
}

// HardwareCost computes the per-core storage cost of the S-Fence hardware
// (Section VI-E): fence scope bits on every ROB and store-buffer entry,
// the mapping table, and both fence scope stacks.
type HardwareCostReport struct {
	ROBFSBBits   int     `json:"robFSBBits"`
	SBFSBBits    int     `json:"sbFSBBits"`
	MappingBits  int     `json:"mappingBits"`
	FSSBits      int     `json:"fssBits"`
	TotalBits    int     `json:"totalBits"`
	TotalBytes   float64 `json:"totalBytes"`
	PaperClaimOK bool    `json:"paperClaimOK"` // < 80 bytes per core for the Table III configuration
}

// HardwareCost evaluates the cost model for a core configuration.
func HardwareCost(cfg cpu.Config) HardwareCostReport {
	entryBits := cfg.FSBEntries
	rob := cfg.ROBSize * entryBits
	sb := cfg.SBSize * entryBits
	// Mapping table: an 8-bit cid tag (classes containing fences are
	// few), an FSB entry index, and a valid bit per slot.
	idxBits := 1
	for 1<<idxBits < cfg.FSBEntries {
		idxBits++
	}
	mt := cfg.MapEntries * (8 + idxBits + 1)
	// FSS and its shadow: entry indices plus a depth counter each.
	fss := 2 * (cfg.FSSEntries*idxBits + 8)
	total := rob + sb + mt + fss
	return HardwareCostReport{
		ROBFSBBits:   rob,
		SBFSBBits:    sb,
		MappingBits:  mt,
		FSSBits:      fss,
		TotalBits:    total,
		TotalBytes:   float64(total) / 8,
		PaperClaimOK: float64(total)/8 < 80,
	}
}

// TableIIIRow describes one architectural parameter.
type TableIIIRow struct {
	Parameter string `json:"parameter"`
	Value     string `json:"value"`
}

// TableIII returns the simulated machine's architectural parameters in
// the paper's Table III layout, with one row per configured cache level.
func TableIII(cfg machine.Config) []TableIIIRow {
	rows := []TableIIIRow{
		{"Processor", fmt.Sprintf("%d core CMP, out-of-order", cfg.Cores)},
		{"ROB size", fmt.Sprintf("%d", cfg.Core.ROBSize)},
	}
	for k, lv := range cfg.Mem.Levels {
		share := "private"
		if lv.Shared {
			share = "shared"
		}
		size := fmt.Sprintf("%d KB", lv.SizeBytes>>10)
		if lv.SizeBytes >= 1<<20 && lv.SizeBytes%(1<<20) == 0 {
			size = fmt.Sprintf("%d MB", lv.SizeBytes>>20)
		}
		rows = append(rows, TableIIIRow{
			fmt.Sprintf("L%d Cache", k+1),
			fmt.Sprintf("%s %s, %d way, %d-cycle latency", share, size, lv.Ways, lv.Latency),
		})
	}
	return append(rows,
		TableIIIRow{"Memory", fmt.Sprintf("%d-cycle latency", cfg.Mem.MemLatency)},
		TableIIIRow{"# of FSB entries", fmt.Sprintf("%d", cfg.Core.FSBEntries)},
		TableIIIRow{"# of FSS entries", fmt.Sprintf("%d", cfg.Core.FSSEntries)},
	)
}

// TableIV returns the benchmark descriptions (the paper's Table IV).
func TableIV() []kernels.Info { return kernels.All() }
