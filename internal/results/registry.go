package results

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"sfence/internal/cpu"
	"sfence/internal/exp"
	"sfence/internal/machine"
)

// ErrUnknownExperiment reports a lookup of an experiment ID that is not in
// the registry; Valid carries every registered ID so CLIs can print a real
// error instead of a silent no-op.
type ErrUnknownExperiment struct {
	ID    string
	Valid []string
}

func (e *ErrUnknownExperiment) Error() string {
	return fmt.Sprintf("results: unknown experiment %q (valid IDs: %s)", e.ID, strings.Join(e.Valid, ", "))
}

// ExperimentSpec describes one runnable experiment: a stable ID, the
// envelope kind and artifact its payload becomes, and the functions to
// run, encode, and render it. The registry returned by Experiments() is
// the single table that RunSuite, sfence-report, and sfence-bench
// iterate, so every consumer agrees on identities and encodings.
type ExperimentSpec struct {
	// ID is the stable experiment identifier: "fig12", "table4",
	// "ablation/fsb-entries", "stats", ...
	ID string
	// Title is the human heading (also the envelope title).
	Title string
	// Kind is the JSON envelope kind of the payload.
	Kind string
	// Artifact names the BENCH_*.json file this experiment's payload
	// becomes in a suite regeneration. It is empty for the individual
	// ablation sweeps, whose payloads fold into the combined
	// BENCH_ABLATIONS.json.
	Artifact string
	// Run executes the experiment on a session at the given scale and
	// returns its payload (the concrete type behind the JSON/Render
	// functions below).
	Run func(ctx context.Context, s *exp.Session, sc exp.Scale) (any, error)
	// JSON encodes a payload produced by Run into its schema-versioned
	// envelope.
	JSON func(data any, sc exp.Scale) ([]byte, error)
	// Render formats a payload produced by Run as the ASCII equivalent of
	// the paper's chart.
	Render func(data any) string

	// store installs a payload into a Suite; nil marks experiments that
	// RunSuite skips (stats is a drill-down artifact, not one of the
	// paper's figures).
	store func(*Suite, any)
	// fromSuite reads the payload back out of a stored Suite, for
	// artifact regeneration.
	fromSuite func(*Suite) any
}

// InSuite reports whether RunSuite executes this experiment (every
// experiment except the explicit-only stats drill-down).
func (e ExperimentSpec) InSuite() bool { return e.store != nil }

// typedSpec adapts strongly-typed experiment functions to the any-typed
// ExperimentSpec fields, with a defensive payload type check on encode.
func typedSpec[T any](
	id, title, kind, artifact string,
	run func(ctx context.Context, s *exp.Session, sc exp.Scale) (T, error),
	encode func(T, exp.Scale) ([]byte, error),
	render func(T) string,
	store func(*Suite, T),
	fromSuite func(*Suite) T,
) ExperimentSpec {
	es := ExperimentSpec{ID: id, Title: title, Kind: kind, Artifact: artifact}
	es.Run = func(ctx context.Context, s *exp.Session, sc exp.Scale) (any, error) {
		return run(ctx, s, sc)
	}
	es.JSON = func(data any, sc exp.Scale) ([]byte, error) {
		v, ok := data.(T)
		if !ok {
			return nil, fmt.Errorf("results: experiment %s: payload is %T, want %T", id, data, *new(T))
		}
		return encode(v, sc)
	}
	es.Render = func(data any) string {
		v, ok := data.(T)
		if !ok {
			return fmt.Sprintf("results: experiment %s: payload is %T", id, data)
		}
		return render(v)
	}
	if store != nil {
		es.store = func(su *Suite, data any) { store(su, data.(T)) }
	}
	if fromSuite != nil {
		es.fromSuite = func(su *Suite) any { return fromSuite(su) }
	}
	return es
}

// groupFigureSpec builds the spec of one grouped-bar figure (13-16).
func groupFigureSpec(id, kind, artifact, renderTitle string,
	run func(*exp.Session, context.Context, exp.Scale) ([]exp.BenchGroup, error),
	store func(*Suite, []exp.BenchGroup),
	fromSuite func(*Suite) []exp.BenchGroup,
) ExperimentSpec {
	return typedSpec(id, kindTitles[kind], kind, artifact,
		func(ctx context.Context, s *exp.Session, sc exp.Scale) ([]exp.BenchGroup, error) {
			return run(s, ctx, sc)
		},
		func(v []exp.BenchGroup, sc exp.Scale) ([]byte, error) { return GroupsJSON(kind, v, sc) },
		func(v []exp.BenchGroup) string { return exp.RenderGroups(renderTitle, v) },
		store, fromSuite,
	)
}

// ablationExperimentSpec builds the spec of one ablation sweep. The
// payload is a single AblationSet; standalone JSON output wraps it in a
// one-set ablations envelope, while suite regeneration folds all sweeps
// into the combined BENCH_ABLATIONS.json.
func ablationExperimentSpec(a AblationSpec) ExperimentSpec {
	fn := ablationFns[a.Name]
	return typedSpec("ablation/"+a.Name, a.Title, KindAblations, "",
		func(ctx context.Context, s *exp.Session, sc exp.Scale) (AblationSet, error) {
			rows, err := fn(s, ctx, sc)
			if err != nil {
				return AblationSet{}, err
			}
			return AblationSet{Name: a.Name, Title: a.Title, Rows: rows}, nil
		},
		func(v AblationSet, sc exp.Scale) ([]byte, error) { return AblationsJSON([]AblationSet{v}, sc) },
		func(v AblationSet) string { return exp.RenderAblation("Ablation — "+v.Title, v.Rows) },
		func(su *Suite, v AblationSet) { su.Ablations = append(su.Ablations, v) },
		func(su *Suite) AblationSet {
			for _, set := range su.Ablations {
				if set.Name == a.Name {
					return set
				}
			}
			return AblationSet{Name: a.Name, Title: a.Title}
		},
	)
}

// Experiments returns the registry in presentation order: the figures,
// the ablation sweeps, the tables, the hardware-cost model, and finally
// the suite-excluded per-kernel stats drill-down. The registry is built
// once; each call returns a fresh copy of it, so callers may reorder or
// filter the slice freely.
func Experiments() []ExperimentSpec { return slices.Clone(theRegistry().specs) }

// registry is the experiment table with its ID index and ID list. It is
// built once and never mutated: the specs' closures are pure, so every
// goroutine shares it.
type registry struct {
	specs []ExperimentSpec
	byID  map[string]int
	ids   []string
}

var theRegistry = sync.OnceValue(func() *registry {
	r := &registry{specs: buildExperiments(), byID: map[string]int{}}
	for i, s := range r.specs {
		r.byID[s.ID] = i
		r.ids = append(r.ids, s.ID)
	}
	return r
})

// buildExperiments constructs the registry table.
func buildExperiments() []ExperimentSpec {
	specs := []ExperimentSpec{
		typedSpec("fig12", kindTitles[KindFigure12], KindFigure12, "BENCH_FIG12.json",
			func(ctx context.Context, s *exp.Session, sc exp.Scale) ([]exp.SpeedupSeries, error) {
				return s.Figure12(ctx, sc)
			},
			Figure12JSON,
			exp.RenderFigure12,
			func(su *Suite, v []exp.SpeedupSeries) { su.Figure12 = v },
			func(su *Suite) []exp.SpeedupSeries { return su.Figure12 },
		),
		groupFigureSpec("fig13", KindFigure13, "BENCH_FIG13.json",
			"Figure 13 — Normalized execution time (T, S, T+, S+)",
			(*exp.Session).Figure13,
			func(su *Suite, v []exp.BenchGroup) { su.Figure13 = v },
			func(su *Suite) []exp.BenchGroup { return su.Figure13 }),
		groupFigureSpec("fig14", KindFigure14, "BENCH_FIG14.json",
			"Figure 14 — Class scope vs. set scope",
			(*exp.Session).Figure14,
			func(su *Suite, v []exp.BenchGroup) { su.Figure14 = v },
			func(su *Suite) []exp.BenchGroup { return su.Figure14 }),
		groupFigureSpec("fig15", KindFigure15, "BENCH_FIG15.json",
			"Figure 15 — Varying memory access latency (200/300/500 cycles)",
			(*exp.Session).Figure15,
			func(su *Suite, v []exp.BenchGroup) { su.Figure15 = v },
			func(su *Suite) []exp.BenchGroup { return su.Figure15 }),
		groupFigureSpec("fig16", KindFigure16, "BENCH_FIG16.json",
			"Figure 16 — Varying ROB size (64/128/256 entries)",
			(*exp.Session).Figure16,
			func(su *Suite, v []exp.BenchGroup) { su.Figure16 = v },
			func(su *Suite) []exp.BenchGroup { return su.Figure16 }),
		groupFigureSpec("fig-depth", KindFigureDepth, "BENCH_DEPTH.json",
			"Depth sweep — Varying memory-hierarchy depth (2/3/4 levels)",
			(*exp.Session).FigureDepth,
			func(su *Suite, v []exp.BenchGroup) { su.FigureDepth = v },
			func(su *Suite) []exp.BenchGroup { return su.FigureDepth }),
		typedSpec("fig-cores", kindTitles[KindFigureCores], KindFigureCores, "BENCH_CORES.json",
			func(ctx context.Context, s *exp.Session, sc exp.Scale) ([]exp.CoresRow, error) {
				return s.FigureCores(ctx, sc)
			},
			CoresJSON,
			exp.RenderCores,
			func(su *Suite, v []exp.CoresRow) { su.FigureCores = v },
			func(su *Suite) []exp.CoresRow { return su.FigureCores },
		),
		typedSpec("fig-heatmap", kindTitles[KindHeatmap], KindHeatmap, "BENCH_HEATMAP.json",
			func(ctx context.Context, s *exp.Session, sc exp.Scale) ([]exp.HeatmapRow, error) {
				return s.FigureHeatmap(ctx, sc)
			},
			HeatmapJSON,
			exp.RenderHeatmap,
			func(su *Suite, v []exp.HeatmapRow) { su.Heatmap = v },
			func(su *Suite) []exp.HeatmapRow { return su.Heatmap },
		),
		groupFigureSpec("fig-inferred", KindInferred, "BENCH_INFERRED.json",
			"Inferred scopes — T (traditional), S (hand annotations), I (static inference)",
			(*exp.Session).FigureInferred,
			func(su *Suite, v []exp.BenchGroup) { su.FigureInferred = v },
			func(su *Suite) []exp.BenchGroup { return su.FigureInferred }),
	}
	for _, a := range AblationSpecs() {
		specs = append(specs, ablationExperimentSpec(a))
	}
	specs = append(specs,
		typedSpec("table3", kindTitles[KindTableIII], KindTableIII, "BENCH_TABLE3.json",
			func(context.Context, *exp.Session, exp.Scale) ([]exp.TableIIIRow, error) {
				return exp.TableIII(machine.DefaultConfig()), nil
			},
			func(v []exp.TableIIIRow, sc exp.Scale) ([]byte, error) {
				return Marshal(NewEnvelope(KindTableIII, kindTitles[KindTableIII], sc, v))
			},
			exp.RenderTableIIIRows,
			func(su *Suite, v []exp.TableIIIRow) { su.TableIII = v },
			func(su *Suite) []exp.TableIIIRow { return su.TableIII },
		),
		typedSpec("table4", kindTitles[KindTableIV], KindTableIV, "BENCH_TABLE4.json",
			func(context.Context, *exp.Session, exp.Scale) ([]BenchmarkInfo, error) {
				return TableIVInfos(), nil
			},
			func(v []BenchmarkInfo, sc exp.Scale) ([]byte, error) {
				return Marshal(NewEnvelope(KindTableIV, kindTitles[KindTableIV], sc, v))
			},
			renderTableIVInfos,
			func(su *Suite, v []BenchmarkInfo) { su.TableIV = v },
			func(su *Suite) []BenchmarkInfo { return su.TableIV },
		),
		typedSpec("hwcost", kindTitles[KindHardwareCost], KindHardwareCost, "BENCH_HWCOST.json",
			func(context.Context, *exp.Session, exp.Scale) (exp.HardwareCostReport, error) {
				return exp.HardwareCost(cpu.DefaultConfig()), nil
			},
			HardwareCostJSON,
			exp.RenderHardwareCost,
			func(su *Suite, v exp.HardwareCostReport) { su.HardwareCost = v },
			func(su *Suite) exp.HardwareCostReport { return su.HardwareCost },
		),
		typedSpec("stats", statsTitle, KindStats, "BENCH_STATS.json",
			func(ctx context.Context, s *exp.Session, sc exp.Scale) ([]exp.KernelSnapshot, error) {
				return s.KernelStats(ctx, sc)
			},
			StatsJSON,
			exp.RenderKernelStats,
			nil, nil,
		),
	)
	return specs
}

// KindStats is the envelope kind of the per-kernel snapshot experiment.
// It is the one experiment excluded from the suite — its payload is a
// drill-down artifact, not one of the paper's figures — so it is
// produced only on explicit request (sfence-bench stats).
const KindStats = "stats"

const statsTitle = "Per-kernel statistics snapshots — the full hierarchical registry per Table IV benchmark and configuration"

// StatsJSON renders the per-kernel snapshot artifact.
func StatsJSON(rows []exp.KernelSnapshot, sc exp.Scale) ([]byte, error) {
	return Marshal(NewEnvelope(KindStats, statsTitle, sc, rows))
}

// ExperimentIDs lists every registered experiment ID in registry order,
// in a fresh slice.
func ExperimentIDs() []string { return slices.Clone(theRegistry().ids) }

// LookupExperiment resolves an experiment ID, returning an
// *ErrUnknownExperiment naming every valid ID on a miss. A hit allocates
// nothing.
func LookupExperiment(id string) (ExperimentSpec, error) {
	r := theRegistry()
	if i, ok := r.byID[id]; ok {
		return r.specs[i], nil
	}
	return ExperimentSpec{}, &ErrUnknownExperiment{ID: id, Valid: ExperimentIDs()}
}
