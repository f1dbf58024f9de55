package results

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
)

// SuiteOptions parameterize a full evaluation run.
type SuiteOptions struct {
	// Scale selects Quick or Full experiment sizing.
	Scale exp.Scale
	// Cache, when non-nil, memoizes every simulation of the run.
	Cache *RunCache
	// Runner, when non-nil, overrides the cache (and the direct runner)
	// as the session's simulation executor.
	Runner exp.Runner
	// Progress, when non-nil, receives per-experiment completion updates
	// from the worker pool.
	Progress exp.ProgressFunc
	// Parallelism bounds the session's worker pool (0 = GOMAXPROCS).
	Parallelism int
}

// Suite holds every structured result of the paper's evaluation section
// plus the repository's extra ablations — the full input to both the
// BENCH_*.json artifacts and EXPERIMENTS.md.
type Suite struct {
	Scale       exp.Scale
	Figure12    []exp.SpeedupSeries
	Figure13    []exp.BenchGroup
	Figure14    []exp.BenchGroup
	Figure15    []exp.BenchGroup
	Figure16    []exp.BenchGroup
	FigureDepth []exp.BenchGroup
	// FigureInferred compares traditional fences, the hand-written scope
	// annotations, and statically inferred scopes (kernels.Inferred) on
	// every Table IV benchmark.
	FigureInferred []exp.BenchGroup
	// FigureCores sweeps the scale kernels across 8/64/256-core machines;
	// Heatmap breaks every benchmark's fence stall down per static fence
	// site. Both are deterministic simulated data (beyond the paper).
	FigureCores  []exp.CoresRow
	Heatmap      []exp.HeatmapRow
	Ablations    []AblationSet
	HardwareCost exp.HardwareCostReport
	TableIII     []exp.TableIIIRow
	TableIV      []BenchmarkInfo

	// SimRequests and SimDistinct count the simulations the experiments
	// asked for and the distinct configurations among them. Both are
	// properties of the suite alone — independent of cache presence or
	// warmth — so EXPERIMENTS.md can report them and stay diff-clean.
	SimRequests int
	SimDistinct int

	// CacheStats is the cache traffic observed during this run (nil when
	// the suite ran uncached).
	CacheStats *CacheStats
}

// AblationSpec names one ablation sweep: the identity shared by the
// combined BENCH_ABLATIONS.json artifact and the "ablation/<name>"
// experiment IDs in the registry.
type AblationSpec struct {
	Name  string
	Title string
}

// AblationSpecs lists the ablation sweeps in presentation order. It is
// the single identity registry shared by RunSuite, sfence-report, and
// sfence-bench, so every producer emits identical artifact identities.
func AblationSpecs() []AblationSpec {
	return []AblationSpec{
		{"fsb-entries", "FSB entry count"},
		{"fss-depth", "FSS depth"},
		{"store-buffer", "Store buffer size"},
		{"fifo-store-buffer", "FIFO (TSO-like) vs non-FIFO (RMO) store buffer"},
		{"finer-fences", "Store-store put fence (Section VII combination); 0=full, 1=SS"},
		{"nested-scopes", "Nested-scope pressure (FSB sharing / FSS overflow)"},
		{"fss-recovery", "FSS recovery: snapshot (0) vs paper shadow (1)"},
	}
}

// ablationFns maps each ablation identity to the session method that
// produces its rows (kept out of the public spec so AblationSpec stays a
// pure identity record).
var ablationFns = map[string]func(*exp.Session, context.Context, exp.Scale) ([]exp.AblationRow, error){
	"fsb-entries":       (*exp.Session).AblationFSBEntries,
	"fss-depth":         (*exp.Session).AblationFSSDepth,
	"store-buffer":      (*exp.Session).AblationStoreBuffer,
	"fifo-store-buffer": (*exp.Session).AblationFIFOStoreBuffer,
	"finer-fences":      (*exp.Session).AblationFinerFences,
	"nested-scopes":     (*exp.Session).AblationNestedScopes,
	"fss-recovery":      (*exp.Session).AblationRecovery,
}

// RunSuite executes every suite experiment of the registry at the given
// scale on a private session built from opts, so concurrent RunSuite
// calls (two Labs in one process) share nothing unless they share a
// cache. Cancelling ctx aborts the in-flight simulations and returns the
// context error; no partial Suite is returned and hence no artifact can
// be produced from a cancelled run. Deltas of the cache counters across
// the run are recorded in the returned suite.
func RunSuite(ctx context.Context, opts SuiteOptions) (*Suite, error) {
	// Count requested simulations and distinct configurations on the way
	// through, so the suite knows its own shape regardless of how many
	// requests the cache absorbed.
	var mu sync.Mutex
	requests := 0
	seen := map[string]struct{}{}
	base := opts.Runner
	if base == nil && opts.Cache != nil {
		base = opts.Cache.Run
	}
	if base == nil {
		base = exp.DirectRun
	}
	counting := func(ctx context.Context, bench string, kopts kernels.Options, cfg machine.Config) (kernels.Result, error) {
		mu.Lock()
		requests++
		seen[Key(bench, kopts, cfg)] = struct{}{}
		mu.Unlock()
		return base(ctx, bench, kopts, cfg)
	}
	var before CacheStats
	if opts.Cache != nil {
		before = opts.Cache.Stats()
	}
	session := exp.NewSession(counting, opts.Progress, opts.Parallelism)

	s := &Suite{Scale: opts.Scale}
	for _, spec := range Experiments() {
		if !spec.InSuite() {
			continue
		}
		data, err := spec.Run(ctx, session, opts.Scale)
		if err != nil {
			return nil, fmt.Errorf("results: %s: %w", spec.ID, err)
		}
		spec.store(s, data)
	}
	s.SimRequests = requests
	s.SimDistinct = len(seen)
	if opts.Cache != nil {
		after := opts.Cache.Stats()
		s.CacheStats = &CacheStats{
			Hits:        after.Hits - before.Hits,
			MemHits:     after.MemHits - before.MemHits,
			DiskHits:    after.DiskHits - before.DiskHits,
			Misses:      after.Misses - before.Misses,
			WriteErrors: after.WriteErrors - before.WriteErrors,
			Evictions:   after.Evictions - before.Evictions,
			// Occupancy is a level, not a counter: report where the disk
			// tier ended up, not a meaningless delta.
			DiskBytes:   after.DiskBytes,
			DiskEntries: after.DiskEntries,
		}
	}
	return s, nil
}

// Artifact is one named JSON results file.
type Artifact struct {
	Name string
	Data []byte
}

// Artifacts renders the suite's BENCH_*.json file set from the stored
// results by iterating the experiment registry; the individual ablation
// sweeps fold into the combined BENCH_ABLATIONS.json at their registry
// position.
func (s *Suite) Artifacts() ([]Artifact, error) {
	var out []Artifact
	ablationsDone := false
	for _, spec := range Experiments() {
		if !spec.InSuite() {
			continue
		}
		if strings.HasPrefix(spec.ID, "ablation/") {
			if ablationsDone {
				continue
			}
			ablationsDone = true
			data, err := AblationsJSON(s.Ablations, s.Scale)
			if err != nil {
				return nil, fmt.Errorf("results: BENCH_ABLATIONS.json: %w", err)
			}
			out = append(out, Artifact{Name: "BENCH_ABLATIONS.json", Data: data})
			continue
		}
		if spec.Artifact == "" {
			continue
		}
		data, err := spec.JSON(spec.fromSuite(s), s.Scale)
		if err != nil {
			return nil, fmt.Errorf("results: %s: %w", spec.Artifact, err)
		}
		out = append(out, Artifact{Name: spec.Artifact, Data: data})
	}
	return out, nil
}

// WriteArtifacts writes the BENCH_*.json set into dir and returns the
// file paths written. Every artifact is rendered before the first byte is
// written, so an encoding failure produces no partial file set.
func (s *Suite) WriteArtifacts(dir string) ([]string, error) {
	arts, err := s.Artifacts()
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(arts))
	for _, a := range arts {
		p := filepath.Join(dir, a.Name)
		if err := os.WriteFile(p, a.Data, 0o644); err != nil {
			return nil, fmt.Errorf("results: write %s: %w", p, err)
		}
		paths = append(paths, p)
	}
	return paths, nil
}
