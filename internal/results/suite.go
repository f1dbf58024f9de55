package results

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
)

// SuiteOptions configure an experiment session: the sizing, the
// simulation runner, progress reporting and the worker pool. It is the
// one options struct behind both a single experiment run (sfence.Lab)
// and a full suite run (RunSuite).
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

// ResolveRunner returns the runner that executes the options'
// simulations: the explicit Runner, else the cache's memoizing runner,
// else exp.DirectRun.
func (o SuiteOptions) ResolveRunner() exp.Runner {
	switch {
	case o.Runner != nil:
		return o.Runner
	case o.Cache != nil:
		return o.Cache.Run
	}
	return exp.DirectRun
}

// ExperimentResult is one experiment's payload plus the self-describing
// spec that produced it.
type ExperimentResult struct {
	Spec  ExperimentSpec
	Scale exp.Scale
	// Data is the experiment's structured payload; its concrete type is
	// the one the spec's Run returns (e.g. []exp.SpeedupSeries for
	// "fig12", AblationSet for "ablation/*", exp.HardwareCostReport for
	// "hwcost").
	Data any
}

// JSON encodes the payload as its schema-versioned artifact envelope.
func (r *ExperimentResult) JSON() ([]byte, error) { return r.Spec.JSON(r.Data, r.Scale) }

// Render formats the payload as the ASCII equivalent of the paper's
// chart or table.
func (r *ExperimentResult) Render() string { return r.Spec.Render(r.Data) }

// Suite is one run of the paper's evaluation section plus the
// repository's extra ablations — the full input to both the
// BENCH_*.json artifacts and EXPERIMENTS.md.
type Suite struct {
	Scale exp.Scale
	// Results holds one result per suite experiment (InSuite), in
	// registry order. Artifacts, Claims and ExperimentsMD read payloads
	// by experiment ID; a new registry experiment needs no field here.
	Results []ExperimentResult

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

// payload returns the payload of experiment id in s, or the zero T when
// s holds no result of that ID and type.
func payload[T any](s *Suite, id string) (v T) {
	for _, r := range s.Results {
		if r.Spec.ID == id {
			v, _ = r.Data.(T)
			break
		}
	}
	return v
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
	base := opts.ResolveRunner()
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
		s.Results = append(s.Results, ExperimentResult{Spec: spec, Scale: opts.Scale, Data: data})
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

// ablationsArtifact is the combined artifact that every ablation sweep
// folds into.
const ablationsArtifact = "BENCH_ABLATIONS.json"

// artifactNames lists the suite's BENCH_*.json names in the order
// Artifacts renders them: each result's own artifact, with the combined
// BENCH_ABLATIONS.json at the first ablation sweep.
func (s *Suite) artifactNames() []string {
	var names []string
	for _, r := range s.Results {
		name := r.Spec.Artifact
		if _, ok := r.Data.(AblationSet); ok {
			name = ablationsArtifact
		}
		if name != "" && !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	return names
}

// Artifacts renders the suite's BENCH_*.json file set from its results
// in order; the individual ablation sweeps fold into the combined
// BENCH_ABLATIONS.json at the first sweep's position.
func (s *Suite) Artifacts() ([]Artifact, error) {
	var out []Artifact
	var sets []AblationSet
	setsAt := 0 // index in out of the combined ablations artifact
	for i := range s.Results {
		r := &s.Results[i]
		if set, ok := r.Data.(AblationSet); ok {
			if len(sets) == 0 {
				setsAt = len(out)
				out = append(out, Artifact{Name: ablationsArtifact}) // encoded below, once every set is in
			}
			sets = append(sets, set)
			continue
		}
		if r.Spec.Artifact == "" {
			continue
		}
		data, err := r.JSON()
		if err != nil {
			return nil, fmt.Errorf("results: %s: %w", r.Spec.Artifact, err)
		}
		out = append(out, Artifact{Name: r.Spec.Artifact, Data: data})
	}
	if len(sets) > 0 {
		data, err := AblationsJSON(sets, s.Scale)
		if err != nil {
			return nil, fmt.Errorf("results: %s: %w", ablationsArtifact, err)
		}
		out[setsAt].Data = data
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
