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

	// drillDown marks the explicit-only experiments that RunSuite skips
	// (stats is a drill-down artifact, not one of the paper's figures).
	drillDown bool
}

// InSuite reports whether RunSuite executes this experiment (every
// experiment except the explicit-only stats drill-down).
func (e ExperimentSpec) InSuite() bool { return !e.drillDown }

// typedSpec adapts strongly-typed experiment functions to the any-typed
// ExperimentSpec fields, with a defensive payload type check on encode.
// run has the shape of an exp.Session method expression.
func typedSpec[T any](
	id, title, kind, artifact string,
	run func(*exp.Session, context.Context, exp.Scale) (T, error),
	encode func(T, exp.Scale) ([]byte, error),
	render func(T) string,
) ExperimentSpec {
	es := ExperimentSpec{ID: id, Title: title, Kind: kind, Artifact: artifact}
	es.Run = func(ctx context.Context, s *exp.Session, sc exp.Scale) (any, error) {
		return run(s, ctx, sc)
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
	return es
}

// groupFigureSpec builds the spec of one grouped-bar figure (13-16).
func groupFigureSpec(id, kind, artifact, renderTitle string,
	run func(*exp.Session, context.Context, exp.Scale) ([]exp.BenchGroup, error),
) ExperimentSpec {
	return typedSpec(id, kindTitles[kind], kind, artifact, run,
		func(v []exp.BenchGroup, sc exp.Scale) ([]byte, error) { return GroupsJSON(kind, v, sc) },
		func(v []exp.BenchGroup) string { return exp.RenderGroups(renderTitle, v) },
	)
}

// ablations lists the ablation sweeps in presentation order: each is the
// registry experiment "ablation/<name>" and one set of the combined
// BENCH_ABLATIONS.json.
var ablations = []struct {
	name, title string
	run         func(*exp.Session, context.Context, exp.Scale) ([]exp.AblationRow, error)
}{
	{"fsb-entries", "FSB entry count", (*exp.Session).AblationFSBEntries},
	{"fss-depth", "FSS depth", (*exp.Session).AblationFSSDepth},
	{"store-buffer", "Store buffer size", (*exp.Session).AblationStoreBuffer},
	{"fifo-store-buffer", "FIFO (TSO-like) vs non-FIFO (RMO) store buffer", (*exp.Session).AblationFIFOStoreBuffer},
	{"finer-fences", "Store-store put fence (Section VII combination); 0=full, 1=SS", (*exp.Session).AblationFinerFences},
	{"nested-scopes", "Nested-scope pressure (FSB sharing / FSS overflow)", (*exp.Session).AblationNestedScopes},
	{"fss-recovery", "FSS recovery: snapshot (0) vs paper shadow (1)", (*exp.Session).AblationRecovery},
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
			(*exp.Session).Figure12, Figure12JSON, exp.RenderFigure12),
		groupFigureSpec("fig13", KindFigure13, "BENCH_FIG13.json",
			"Figure 13 — Normalized execution time (T, S, T+, S+)", (*exp.Session).Figure13),
		groupFigureSpec("fig14", KindFigure14, "BENCH_FIG14.json",
			"Figure 14 — Class scope vs. set scope", (*exp.Session).Figure14),
		groupFigureSpec("fig15", KindFigure15, "BENCH_FIG15.json",
			"Figure 15 — Varying memory access latency (200/300/500 cycles)", (*exp.Session).Figure15),
		groupFigureSpec("fig16", KindFigure16, "BENCH_FIG16.json",
			"Figure 16 — Varying ROB size (64/128/256 entries)", (*exp.Session).Figure16),
		groupFigureSpec("fig-depth", KindFigureDepth, "BENCH_DEPTH.json",
			"Depth sweep — Varying memory-hierarchy depth (2/3/4 levels)", (*exp.Session).FigureDepth),
		typedSpec("fig-cores", kindTitles[KindFigureCores], KindFigureCores, "BENCH_CORES.json",
			(*exp.Session).FigureCores, CoresJSON, exp.RenderCores),
		typedSpec("fig-heatmap", kindTitles[KindHeatmap], KindHeatmap, "BENCH_HEATMAP.json",
			(*exp.Session).FigureHeatmap, HeatmapJSON, exp.RenderHeatmap),
		groupFigureSpec("fig-inferred", KindInferred, "BENCH_INFERRED.json",
			"Inferred scopes — T (traditional), S (hand annotations), I (static inference)", (*exp.Session).FigureInferred),
	}
	// Standalone JSON output wraps one sweep's AblationSet in a one-set
	// ablations envelope; a suite folds every sweep into the combined
	// BENCH_ABLATIONS.json.
	for _, a := range ablations {
		specs = append(specs, typedSpec("ablation/"+a.name, a.title, KindAblations, "",
			func(s *exp.Session, ctx context.Context, sc exp.Scale) (AblationSet, error) {
				rows, err := a.run(s, ctx, sc)
				return AblationSet{Name: a.name, Title: a.title, Rows: rows}, err
			},
			func(v AblationSet, sc exp.Scale) ([]byte, error) { return AblationsJSON([]AblationSet{v}, sc) },
			func(v AblationSet) string { return exp.RenderAblation("Ablation — "+v.Title, v.Rows) },
		))
	}
	specs = append(specs,
		typedSpec("table3", kindTitles[KindTableIII], KindTableIII, "BENCH_TABLE3.json",
			func(*exp.Session, context.Context, exp.Scale) ([]exp.TableIIIRow, error) {
				return exp.TableIII(machine.DefaultConfig()), nil
			},
			func(v []exp.TableIIIRow, sc exp.Scale) ([]byte, error) {
				return Marshal(NewEnvelope(KindTableIII, kindTitles[KindTableIII], sc, v))
			},
			exp.RenderTableIIIRows,
		),
		typedSpec("table4", kindTitles[KindTableIV], KindTableIV, "BENCH_TABLE4.json",
			func(*exp.Session, context.Context, exp.Scale) ([]BenchmarkInfo, error) {
				return TableIVInfos(), nil
			},
			func(v []BenchmarkInfo, sc exp.Scale) ([]byte, error) {
				return Marshal(NewEnvelope(KindTableIV, kindTitles[KindTableIV], sc, v))
			},
			renderTableIVInfos,
		),
		typedSpec("hwcost", kindTitles[KindHardwareCost], KindHardwareCost, "BENCH_HWCOST.json",
			func(*exp.Session, context.Context, exp.Scale) (exp.HardwareCostReport, error) {
				return exp.HardwareCost(cpu.DefaultConfig()), nil
			},
			HardwareCostJSON,
			exp.RenderHardwareCost,
		),
	)
	stats := typedSpec("stats", statsTitle, KindStats, "BENCH_STATS.json",
		(*exp.Session).KernelStats, StatsJSON, exp.RenderKernelStats)
	stats.drillDown = true
	return append(specs, stats)
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
