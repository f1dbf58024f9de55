// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (regenerating the experiment at Quick scale and reporting the
// headline metric), plus a program-assembly micro-benchmark. Simulator
// speed is measured by the bench/ module (bash bench/run.sh), with
// repeated runs and their spread.
//
// Run with: go test -bench=. -benchmem
package sfence_test

import (
	"context"
	"testing"

	"sfence"
)

// benchLab returns an uncached quick-scale Lab: each iteration should
// re-simulate, so the benchmark measures regeneration, not cache hits.
func benchLab() *sfence.Lab { return sfence.NewLab(sfence.WithScale(sfence.Quick)) }

// runExperiment runs one registry experiment on a fresh Lab and returns
// its payload.
func runExperiment[T any](b *testing.B, id string) T {
	b.Helper()
	res, err := benchLab().Run(context.Background(), id)
	if err != nil {
		b.Fatal(err)
	}
	payload, ok := res.Data.(T)
	if !ok {
		b.Fatalf("%s payload is %T", id, res.Data)
	}
	return payload
}

// BenchmarkTable3Defaults pins the Table III defaults (configuration
// construction is trivially cheap; the benchmark exists so the table has a
// regeneration entry point alongside the figures).
func BenchmarkTable3Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sfence.TableIII(sfence.DefaultConfig())
		if len(rows) != 7 {
			b.Fatalf("Table III has %d rows", len(rows))
		}
	}
}

// BenchmarkTable4Registry regenerates the benchmark-description table.
func BenchmarkTable4Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(sfence.TableIV()) != 8 {
			b.Fatal("Table IV incomplete")
		}
	}
}

// BenchmarkFigure12 regenerates the workload-impact experiment and reports
// the mean peak speedup across the four lock-free algorithms.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := runExperiment[[]sfence.SpeedupSeries](b, "fig12")
		sum := 0.0
		for _, s := range series {
			peak, _ := s.Peak()
			sum += peak
		}
		b.ReportMetric(sum/float64(len(series)), "mean-peak-speedup")
	}
}

// BenchmarkFigure13 regenerates the full-application experiment and
// reports the mean S-over-T speedup.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		groups := runExperiment[[]sfence.BenchGroup](b, "fig13")
		sum := 0.0
		for _, g := range groups {
			sum += 1 / g.Bars[1].Total() // S normalized against T=1
		}
		b.ReportMetric(sum/float64(len(groups)), "mean-S-speedup")
	}
}

// BenchmarkFigure14 regenerates the class-vs-set-scope comparison and
// reports the mean set-scope time normalized to class scope.
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		groups := runExperiment[[]sfence.BenchGroup](b, "fig14")
		sum := 0.0
		for _, g := range groups {
			sum += g.Bars[1].Total()
		}
		b.ReportMetric(sum/float64(len(groups)), "set-vs-class-time")
	}
}

// BenchmarkFigure15 regenerates the memory-latency sweep and reports the
// S-Fence speedup at 500-cycle latency (where the paper's gains are
// largest for the set-scope applications).
func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		groups := runExperiment[[]sfence.BenchGroup](b, "fig15")
		var speedup float64
		var n int
		for _, g := range groups {
			var t500, s500 float64
			for _, bar := range g.Bars {
				switch bar.Label {
				case "500T":
					t500 = bar.Total()
				case "500S":
					s500 = bar.Total()
				}
			}
			if s500 > 0 {
				speedup += t500 / s500
				n++
			}
		}
		b.ReportMetric(speedup/float64(n), "speedup@500cy")
	}
}

// BenchmarkFigure16 regenerates the ROB-size sweep and reports the
// S-Fence speedup with a 256-entry ROB.
func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		groups := runExperiment[[]sfence.BenchGroup](b, "fig16")
		var speedup float64
		var n int
		for _, g := range groups {
			var t, s float64
			for _, bar := range g.Bars {
				switch bar.Label {
				case "256T":
					t = bar.Total()
				case "256S":
					s = bar.Total()
				}
			}
			if s > 0 {
				speedup += t / s
				n++
			}
		}
		b.ReportMetric(speedup/float64(n), "speedup@rob256")
	}
}

// BenchmarkHardwareCost evaluates the Section VI-E cost model.
func BenchmarkHardwareCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := sfence.HardwareCost(sfence.DefaultConfig().Core)
		if !rep.PaperClaimOK {
			b.Fatalf("cost %.1f bytes exceeds the paper's 80-byte claim", rep.TotalBytes)
		}
		b.ReportMetric(rep.TotalBytes, "bytes/core")
	}
}

// BenchmarkAblationFSBEntries regenerates the FSB-size ablation.
func BenchmarkAblationFSBEntries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExperiment[sfence.AblationSet](b, "ablation/fsb-entries")
	}
}

// BenchmarkAblationFIFOStoreBuffer regenerates the TSO-vs-RMO ablation.
func BenchmarkAblationFIFOStoreBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExperiment[sfence.AblationSet](b, "ablation/fifo-store-buffer")
	}
}

// BenchmarkKernelBuild measures program-assembly cost (no simulation).
func BenchmarkKernelBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sfence.BuildBenchmark("harris", sfence.BenchmarkOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
