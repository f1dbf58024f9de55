package results

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sfence/internal/exp"
)

// result builds a suite result of registry experiment id around a
// hand-made payload.
func result(t *testing.T, id string, data any) ExperimentResult {
	t.Helper()
	spec, err := LookupExperiment(id)
	if err != nil {
		t.Fatal(err)
	}
	return ExperimentResult{Spec: spec, Scale: exp.Quick, Data: data}
}

// TestSuiteArtifactsFoldAblations checks on a hand-built Suite that two
// ablation sweeps around a figure fold into one BENCH_ABLATIONS.json at
// the first sweep's position, holding both sets in suite order, and that
// the figure's artifact is its result's own envelope.
func TestSuiteArtifactsFoldAblations(t *testing.T) {
	fsb := AblationSet{Name: "fsb-entries", Title: "FSB entry count",
		Rows: []exp.AblationRow{{Bench: "wsq", Param: "fsb", Value: 4, Cycles: 1000, Stall: 0.25}}}
	depth := AblationSet{Name: "fss-depth", Title: "FSS depth",
		Rows: []exp.AblationRow{{Bench: "msn", Param: "fss", Value: 2, Cycles: 2000, Stall: 0.5}}}
	series := []exp.SpeedupSeries{{Bench: "dekker", Workload: []int{1, 2}, Speedup: []float64{1.1, 1.2}}}
	s := &Suite{Scale: exp.Quick, Results: []ExperimentResult{
		result(t, "ablation/fsb-entries", fsb),
		result(t, "fig12", series),
		result(t, "ablation/fss-depth", depth),
	}}

	arts, err := s.Artifacts()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range arts {
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, " "), "BENCH_ABLATIONS.json BENCH_FIG12.json"; got != want {
		t.Fatalf("artifacts %q, want %q", got, want)
	}
	wantAblations, err := AblationsJSON([]AblationSet{fsb, depth}, exp.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arts[0].Data, wantAblations) {
		t.Errorf("BENCH_ABLATIONS.json does not hold both sets in order:\n%s", arts[0].Data)
	}
	wantFig12, err := s.Results[1].JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arts[1].Data, wantFig12) {
		t.Error("BENCH_FIG12.json differs from its result's JSON()")
	}

	// EXPERIMENTS.md lists the same names in the same order, and renders
	// both sweeps.
	md := s.ExperimentsMD()
	if !strings.HasSuffix(md, "- `BENCH_ABLATIONS.json`\n- `BENCH_FIG12.json`\n") {
		t.Errorf("EXPERIMENTS.md artifact list does not match Artifacts():\n%s", md[strings.LastIndex(md, "## Artifacts"):])
	}
	if i, j := strings.Index(md, "Ablation — FSB entry count"), strings.Index(md, "Ablation — FSS depth"); i < 0 || j < i {
		t.Error("EXPERIMENTS.md does not render both ablation sweeps in order")
	}
}

// TestSuiteMissingPayloadDiverges checks that a Suite missing a payload,
// or holding one of the wrong type, makes the affected claims diverge in
// Claims() and EXPERIMENTS.md instead of panicking, while a claim whose
// payload is present still reproduces.
func TestSuiteMissingPayloadDiverges(t *testing.T) {
	hwcost, err := LookupExperiment("hwcost")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hwcost.Run(context.Background(), nil, exp.Quick) // analytic: no session needed
	if err != nil {
		t.Fatal(err)
	}
	s := &Suite{Scale: exp.Quick, Results: []ExperimentResult{
		result(t, "fig13", "not a []exp.BenchGroup"),
		{Spec: hwcost, Scale: exp.Quick, Data: rep},
	}}

	for _, c := range Claims() {
		measured, ok := c.Check(s)
		if want := c.Kind == KindHardwareCost; ok != want {
			t.Errorf("%s claim (%q): ok = %v, want %v", c.Kind, measured, ok, want)
		}
	}
	md := s.ExperimentsMD()
	for _, kind := range []string{KindFigure12, KindFigure13} {
		if !strings.Contains(md, "| "+kindTitles[kind]+" |") {
			t.Fatalf("EXPERIMENTS.md has no claim row for %s", kind)
		}
	}
	for _, line := range strings.Split(md, "\n") {
		isClaim := strings.HasPrefix(line, "| ") && strings.HasSuffix(line, " |") && !strings.HasPrefix(line, "| #")
		if !isClaim {
			continue
		}
		want := "| ❌ DIVERGES |"
		if strings.Contains(line, kindTitles[KindHardwareCost]) {
			want = "| ✅ reproduced |"
		}
		if !strings.HasSuffix(line, want) {
			t.Errorf("claim row does not end in %q: %s", want, line)
		}
	}
	if !strings.Contains(md, "**1/") {
		t.Error("EXPERIMENTS.md does not count exactly one reproduced claim")
	}
	if _, err := s.Artifacts(); err == nil {
		t.Error("Artifacts encoded a payload of the wrong type without an error")
	}
}
