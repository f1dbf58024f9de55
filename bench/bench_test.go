package main

import (
	"context"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/expected.json from seed-1 simulations")

// TestWorkloads runs every workload for its shortest length, one untraced
// and one traced pass (round on serve-mix), and checks that every op
// succeeded and every emitted metric is the one BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	sameDefs(t, "end_to_end", bf.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", bf.PerLayer, perLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(names), len(workloads))
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := config{workload: w.name, seed: expectedSeed, trace: true, setupReps: 1, outDir: t.TempDir()}
			rep, err := w.run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, trace := range []bool{false, true} {
				res, err := rep.result(trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
				}
				var want []string
				for _, d := range metricsFor(trace) {
					want = append(want, d.name)
				}
				if got := slices.Sorted(maps.Keys(res.Metrics)); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
					t.Errorf("trace=%v metrics %v, want %v", trace, got, want)
				}
				if !trace {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end %s = %g, want > 0", name, m.Value)
						}
					}
				}
			}
		})
	}
}

func sameDefs(t *testing.T, section string, got []benchMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("BENCHMARK.json %s has %d metrics, the benchmark %d", section, len(got), len(want))
		return
	}
	for i, d := range want {
		if got[i].Name != d.name || got[i].Unit != d.unit {
			t.Errorf("BENCHMARK.json %s[%d] = %s (%s), the benchmark has %s (%s)", section, i, got[i].Name, got[i].Unit, d.name, d.unit)
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4),
// which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// TestExpectedDigests regenerates testdata/expected.json with -update.
// Without it there is nothing to do: TestWorkloads already checks every
// sim-* op at the expected seed against the file.
func TestExpectedDigests(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/expected.json")
	}
	all := map[string]map[string]string{}
	for name, cases := range simCases {
		p := runSimPass(context.Background(), simOps(cases, expectedSeed), nil, nil, 0)
		if p.err != nil {
			t.Fatal(p.err)
		}
		all[name] = p.digests
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/expected.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
