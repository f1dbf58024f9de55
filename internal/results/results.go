// Package results is the structured results pipeline for the paper's
// evaluation: typed, schema-versioned JSON records for every figure,
// table, and ablation (the BENCH_*.json artifacts), a content-addressed
// run cache that memoizes simulations across experiments, and the
// generator for EXPERIMENTS.md — the paper-claimed vs. measured record
// promised by the root package documentation.
//
// The package sits above internal/exp (it consumes the experiment
// functions' structured outputs) and hooks below it (the RunCache
// installs itself as the exp runner), so experiments themselves stay
// unaware of serialization or caching.
package results

import (
	"encoding/json"
	"fmt"

	"sfence/internal/exp"
	"sfence/internal/kernels"
)

// SchemaVersion is bumped whenever the JSON layout of envelopes or cached
// run records changes incompatibly; readers must reject other versions.
// v2: the simulator-performance payload grew per-kernel spin accounting
// and covered every Table IV kernel.
// v3: the cache key ignores machine.Config.Parallel (simulated results
// are worker-invariant), new fig-cores and fig-heatmap artifacts, and
// the simulator-performance payload grew the parallel-runner block.
// Deleting that runner removed the block and the Parallel field again;
// records and envelopes only lost fields, so the version stands, and old
// disk records simply miss on the changed cache keys. The
// simulator-performance artifact and its envelope kind are gone as well
// (bench/ measures wall clock now); no other envelope changed, so the
// version still stands.
const SchemaVersion = 3

// Paper identifies the reproduced paper in every envelope.
const Paper = "conf_sc_LinNG14 (Fence Scoping, Lin/Nagarajan/Gupta, SC '14)"

// Envelope wraps one experiment's data with provenance: schema version,
// paper id, the experiment kind, a human title, and the scale it ran at.
// Envelopes are what the BENCH_*.json artifacts contain.
type Envelope[T any] struct {
	Schema int    `json:"schema"`
	Paper  string `json:"paper"`
	Kind   string `json:"kind"`
	Title  string `json:"title"`
	Scale  string `json:"scale"`
	Data   T      `json:"data"`
}

// NewEnvelope builds an envelope at the current schema version.
func NewEnvelope[T any](kind, title string, sc exp.Scale, data T) Envelope[T] {
	return Envelope[T]{
		Schema: SchemaVersion,
		Paper:  Paper,
		Kind:   kind,
		Title:  title,
		Scale:  ScaleName(sc),
		Data:   data,
	}
}

// Marshal renders v as indented JSON with a trailing newline: the bytes a
// json.Encoder with SetIndent("", "  ") writes, HTML escapes included.
// The output is deterministic for a given value, so artifacts
// regenerated from identical measurements are byte-identical.
func Marshal(v any) ([]byte, error) {
	compact, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return indent(compact), nil
}

// Unmarshal decodes an envelope previously produced by Marshal, rejecting
// foreign schema versions.
func Unmarshal[T any](data []byte) (Envelope[T], error) {
	var env Envelope[T]
	if err := json.Unmarshal(data, &env); err != nil {
		return Envelope[T]{}, err
	}
	if env.Schema != SchemaVersion {
		return Envelope[T]{}, fmt.Errorf("results: envelope schema %d, want %d", env.Schema, SchemaVersion)
	}
	return env, nil
}

// ScaleName names an experiment scale for envelopes and reports.
func ScaleName(sc exp.Scale) string {
	if sc == exp.Quick {
		return "quick"
	}
	return "full"
}

// AblationSet is one ablation sweep's identity plus its rows.
type AblationSet struct {
	Name  string            `json:"name"`
	Title string            `json:"title"`
	Rows  []exp.AblationRow `json:"rows"`
}

// BenchmarkInfo is the JSON-safe mirror of kernels.Info (which carries a
// non-serializable builder function) for the Table IV artifact.
type BenchmarkInfo struct {
	Name        string `json:"name"`
	ScopeType   string `json:"scopeType"`
	Group       string `json:"group"`
	Description string `json:"description"`
}

// TableIVInfos converts the registry metadata into serializable records.
func TableIVInfos() []BenchmarkInfo {
	infos := kernels.All()
	out := make([]BenchmarkInfo, len(infos))
	for i, info := range infos {
		out[i] = BenchmarkInfo{
			Name:        info.Name,
			ScopeType:   info.ScopeType,
			Group:       info.Group,
			Description: info.Description,
		}
	}
	return out
}

// Envelope kinds, one per artifact.
const (
	KindFigure12     = "figure12"
	KindFigure13     = "figure13"
	KindFigure14     = "figure14"
	KindFigure15     = "figure15"
	KindFigure16     = "figure16"
	KindFigureDepth  = "figure-depth"
	KindFigureCores  = "figure-cores"
	KindHeatmap      = "heatmap"
	KindInferred     = "figure-inferred"
	KindAblations    = "ablations"
	KindTableIII     = "tableIII"
	KindTableIV      = "tableIV"
	KindHardwareCost = "hardware-cost"
)

// Titles for the envelope kinds (also used as report section headers).
var kindTitles = map[string]string{
	KindFigure12:     "Figure 12 — Impact of workload",
	KindFigure13:     "Figure 13 — Performance on full applications (T, S, T+, S+)",
	KindFigure14:     "Figure 14 — Class scope vs. set scope",
	KindFigure15:     "Figure 15 — Varying memory access latency (200/300/500 cycles)",
	KindFigure16:     "Figure 16 — Varying ROB size (64/128/256 entries)",
	KindFigureDepth:  "Depth sweep — Varying memory-hierarchy depth (2/3/4 levels, beyond the paper)",
	KindFigureCores:  "Core-count sweep — scale kernels at 8/64/256 cores (beyond the paper)",
	KindHeatmap:      "Fence-site stall-intensity heatmap (beyond the paper)",
	KindInferred:     "Inferred scopes — hand annotations vs. static scope inference (beyond the paper)",
	KindAblations:    "Ablations — design-choice sweeps beyond the paper",
	KindTableIII:     "Table III — Architectural parameters",
	KindTableIV:      "Table IV — Benchmark description",
	KindHardwareCost: "Section VI-E — Hardware cost per core",
}

// Figure12JSON renders the Figure 12 artifact.
func Figure12JSON(series []exp.SpeedupSeries, sc exp.Scale) ([]byte, error) {
	return Marshal(NewEnvelope(KindFigure12, kindTitles[KindFigure12], sc, series))
}

// GroupsJSON renders a grouped-bar figure artifact (Figures 13-16).
func GroupsJSON(kind string, groups []exp.BenchGroup, sc exp.Scale) ([]byte, error) {
	title, ok := kindTitles[kind]
	if !ok {
		return nil, fmt.Errorf("results: unknown figure kind %q", kind)
	}
	return Marshal(NewEnvelope(kind, title, sc, groups))
}

// CoresJSON renders the core-count sweep artifact.
func CoresJSON(rows []exp.CoresRow, sc exp.Scale) ([]byte, error) {
	return Marshal(NewEnvelope(KindFigureCores, kindTitles[KindFigureCores], sc, rows))
}

// HeatmapJSON renders the fence-site heatmap artifact.
func HeatmapJSON(rows []exp.HeatmapRow, sc exp.Scale) ([]byte, error) {
	return Marshal(NewEnvelope(KindHeatmap, kindTitles[KindHeatmap], sc, rows))
}

// AblationsJSON renders the combined ablation artifact.
func AblationsJSON(sets []AblationSet, sc exp.Scale) ([]byte, error) {
	return Marshal(NewEnvelope(KindAblations, kindTitles[KindAblations], sc, sets))
}

// HardwareCostJSON renders the Section VI-E cost-model artifact.
func HardwareCostJSON(rep exp.HardwareCostReport, sc exp.Scale) ([]byte, error) {
	return Marshal(NewEnvelope(KindHardwareCost, kindTitles[KindHardwareCost], sc, rep))
}
