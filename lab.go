package sfence

import (
	"context"

	"sfence/internal/exp"
	"sfence/internal/results"
)

// Lab is a session handle for running the paper's experiments: it owns
// one set of options (scale, runner, run cache, progress sink, worker
// pool) and the one session built from them, so all experiment state is
// per-session instead of per-process. Run executes one experiment and
// returns its ExperimentResult; RunSuite returns a Suite of those
// results, one per suite experiment, in registry order. Two Labs can
// run independent, cancellable evaluations concurrently in one process
// without stomping each other's cache, runner, or progress reporting —
// they share state only if they share a RunCache (which is itself safe
// for concurrent use and coalesces duplicate simulations).
//
// Build one with NewLab and functional options:
//
//	cache, _ := sfence.NewRunCache(".sfence-cache")
//	lab := sfence.NewLab(
//		sfence.WithCache(cache),
//		sfence.WithScale(sfence.Quick),
//		sfence.WithProgress(func(exp string, done, total int) { ... }),
//	)
//	res, err := lab.Run(ctx, "fig12")
//
// Every experiment is identified by a stable ID from Experiments()
// ("fig12", "table4", "ablation/fsb-entries", "stats", ...); an unknown
// ID returns an *ErrUnknownExperiment listing the valid IDs. The context
// passed to Run and RunSuite cancels or time-boxes the simulations
// mid-cycle-loop (see Machine.Run).
type Lab struct {
	opts    results.SuiteOptions
	session *exp.Session
}

// LabOption configures a Lab under construction.
type LabOption func(*Lab)

// WithCache memoizes every simulation of the Lab in c. Multiple Labs may
// share one cache; a nil cache means every simulation runs directly.
func WithCache(c *RunCache) LabOption { return func(l *Lab) { l.opts.Cache = c } }

// WithScale selects the experiment sizing (Quick or Full; default Full).
func WithScale(sc Scale) LabOption { return func(l *Lab) { l.opts.Scale = sc } }

// WithProgress installs a per-experiment progress callback, invoked
// concurrently from the Lab's worker pool.
func WithProgress(p ExperimentProgress) LabOption { return func(l *Lab) { l.opts.Progress = p } }

// WithParallelism bounds the Lab's worker pool (0 = GOMAXPROCS). Each
// simulation is an independent deterministic machine, so the pool width
// cannot change any result — only wall-clock time.
func WithParallelism(n int) LabOption { return func(l *Lab) { l.opts.Parallelism = n } }

// WithRunner overrides how the Lab executes simulations, taking
// precedence over WithCache. This is the session-scoped replacement for
// the long-gone global runner hook.
func WithRunner(r ExperimentRunner) LabOption { return func(l *Lab) { l.opts.Runner = r } }

// NewLab builds an experiment session from the given options. The
// defaults are Full scale, no cache, no progress reporting, and a
// GOMAXPROCS-wide worker pool.
func NewLab(opts ...LabOption) *Lab {
	l := &Lab{opts: results.SuiteOptions{Scale: Full}}
	for _, opt := range opts {
		opt(l)
	}
	l.session = exp.NewSession(l.opts.ResolveRunner(), l.opts.Progress, l.opts.Parallelism)
	return l
}

// Scale returns the Lab's experiment sizing.
func (l *Lab) Scale() Scale { return l.opts.Scale }

// Cache returns the Lab's run cache (nil when uncached).
func (l *Lab) Cache() *RunCache { return l.opts.Cache }

// Run executes one experiment by ID on this Lab's session and returns
// its payload bundled with the spec's encoder and renderer. An unknown
// ID returns an *ErrUnknownExperiment naming every valid ID; a cancelled
// context aborts the in-flight simulations and returns the context
// error, producing no result (and hence no artifact).
func (l *Lab) Run(ctx context.Context, id string) (*ExperimentResult, error) {
	spec, err := results.LookupExperiment(id)
	if err != nil {
		return nil, err
	}
	data, err := spec.Run(ctx, l.session, l.opts.Scale)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{Spec: spec, Scale: l.opts.Scale, Data: data}, nil
}

// RunSuite executes every suite experiment of the registry, configured
// like this Lab, and returns the Suite of their results in registry
// order (the input to WriteArtifacts and ExperimentsMD). Cancelling ctx
// aborts the run with no partial Suite and therefore no artifacts.
func (l *Lab) RunSuite(ctx context.Context) (*Suite, error) { return results.RunSuite(ctx, l.opts) }

// ExperimentResult is one experiment's payload plus the self-describing
// spec that produced it (see Lab.Run and Suite.Results).
type ExperimentResult = results.ExperimentResult

// ExperimentSpec describes one registry experiment: stable ID, title,
// envelope kind, artifact name, and its run/encode/render functions.
type ExperimentSpec = results.ExperimentSpec

// ErrUnknownExperiment is returned by Lab.Run for an ID that is not in
// the registry; it lists every valid ID.
type ErrUnknownExperiment = results.ErrUnknownExperiment

// Experiments returns the uniform experiment registry keyed by stable
// IDs ("fig12" ... "fig16", "ablation/<name>", "table3", "table4",
// "hwcost", "stats"). Lab.RunSuite, sfence-report, and sfence-bench all
// iterate this one table instead of hand-listing entry points. The
// registry is built once; each call returns a fresh copy of it, so
// callers may reorder or filter the slice freely.
func Experiments() []ExperimentSpec { return results.Experiments() }

// ExperimentIDs lists every registered experiment ID in registry order.
func ExperimentIDs() []string { return results.ExperimentIDs() }

// LookupExperiment resolves an experiment ID, returning an
// *ErrUnknownExperiment naming every valid ID on a miss.
func LookupExperiment(id string) (ExperimentSpec, error) { return results.LookupExperiment(id) }
