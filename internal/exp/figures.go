package exp

import (
	"context"
	"strconv"
	"sync/atomic"

	"sfence/internal/kernels"
	"sfence/internal/machine"
)

// figRun is one (benchmark, configuration) simulation inside a figure.
type figRun struct {
	bench string
	opts  kernels.Options
	cfg   machine.Config
	res   kernels.Result
}

// execute fills in the res fields of all runs on the session's worker
// pool, reporting per-experiment progress as simulations complete. A
// cancelled context stops dispatching and surfaces ctx.Err() from the
// in-flight simulations; the first failing simulation cancels the rest.
func (s *Session) execute(ctx context.Context, experiment string, runs []*figRun) error {
	progress := s.progress
	var done atomic.Int64
	if progress != nil {
		progress(experiment, 0, len(runs))
	}
	jobs := make([]func(context.Context) error, len(runs))
	for i, r := range runs {
		r := r
		jobs[i] = func(ctx context.Context) error {
			res, err := s.runOne(ctx, r.bench, r.opts, r.cfg)
			if err != nil {
				return err
			}
			r.res = res
			if progress != nil {
				progress(experiment, int(done.Add(1)), len(runs))
			}
			return nil
		}
	}
	return runParallel(ctx, s.parallelism, jobs)
}

// Figure12 reproduces "Impact of workload": the speedup of S-Fence over
// traditional fences for the four lock-free algorithms across six workload
// levels. The paper reports hump-shaped curves with peaks between 1.13x
// and 1.34x, dekker peaking earliest.
func (s *Session) Figure12(ctx context.Context, sc Scale) ([]SpeedupSeries, error) {
	benches := []string{"dekker", "wsq", "msn", "harris"}
	levels := []int{1, 2, 3, 4, 5, 6}
	modes := []kernels.FenceMode{kernels.Traditional, kernels.Scoped}

	grid := map[[3]int]*figRun{}
	var runs []*figRun
	for bi, bench := range benches {
		for li, w := range levels {
			for mi, mode := range modes {
				r := &figRun{bench: bench, opts: kernels.Options{
					Mode: mode, Ops: opsFor(bench, sc), Workload: w,
				}, cfg: baseConfig()}
				grid[[3]int{bi, li, mi}] = r
				runs = append(runs, r)
			}
		}
	}
	if err := s.execute(ctx, "Figure 12", runs); err != nil {
		return nil, err
	}
	out := make([]SpeedupSeries, 0, len(benches))
	for bi, bench := range benches {
		series := SpeedupSeries{Bench: bench, Workload: levels}
		for li := range levels {
			trad := grid[[3]int{bi, li, 0}].res.Cycles
			scoped := grid[[3]int{bi, li, 1}].res.Cycles
			series.Speedup = append(series.Speedup, float64(trad)/float64(scoped))
		}
		out = append(out, series)
	}
	return out, nil
}

// Figure13 reproduces "Performance on full applications": normalized
// execution time of pst, ptc, barnes, and radiosity under T (traditional),
// S (S-Fence), T+ and S+ (with in-window speculation), split into fence
// stalls and the rest and normalized to T.
func (s *Session) Figure13(ctx context.Context, sc Scale) ([]BenchGroup, error) {
	benches := []string{"pst", "ptc", "barnes", "radiosity"}
	grid := map[[2]int]*figRun{}
	var runs []*figRun
	for bi, bench := range benches {
		for ci, c := range fig13Configs {
			r := &figRun{bench: bench, opts: kernels.Options{
				Mode: c.Mode, Ops: opsFor(bench, sc),
			}, cfg: withSpec(baseConfig(), c.Spec)}
			grid[[2]int{bi, ci}] = r
			runs = append(runs, r)
		}
	}
	if err := s.execute(ctx, "Figure 13", runs); err != nil {
		return nil, err
	}
	out := make([]BenchGroup, 0, len(benches))
	for bi, bench := range benches {
		group := BenchGroup{Bench: bench}
		baseline := grid[[2]int{bi, 0}].res.Cycles // "T"
		for ci, c := range fig13Configs {
			group.Bars = append(group.Bars, barFrom(c.Label, grid[[2]int{bi, ci}].res, baseline))
		}
		out = append(out, group)
	}
	return out, nil
}

// Figure14 reproduces "Class scope vs. Set scope" for msn, harris, pst,
// and ptc: both scoped variants, normalized to class scope.
func (s *Session) Figure14(ctx context.Context, sc Scale) ([]BenchGroup, error) {
	benches := []string{"msn", "harris", "pst", "ptc"}
	variants := []struct {
		Label string
		Scope kernels.ScopeOverride
	}{
		{"C.S.", kernels.ForceClass},
		{"S.S.", kernels.ForceSet},
	}
	grid := map[[2]int]*figRun{}
	var runs []*figRun
	for bi, bench := range benches {
		for vi, v := range variants {
			r := &figRun{bench: bench, opts: kernels.Options{
				Mode: kernels.Scoped, Scope: v.Scope, Ops: opsFor(bench, sc),
			}, cfg: baseConfig()}
			grid[[2]int{bi, vi}] = r
			runs = append(runs, r)
		}
	}
	if err := s.execute(ctx, "Figure 14", runs); err != nil {
		return nil, err
	}
	out := make([]BenchGroup, 0, len(benches))
	for bi, bench := range benches {
		group := BenchGroup{Bench: bench}
		baseline := grid[[2]int{bi, 0}].res.Cycles
		for vi, v := range variants {
			group.Bars = append(group.Bars, barFrom(v.Label, grid[[2]int{bi, vi}].res, baseline))
		}
		out = append(out, group)
	}
	return out, nil
}

// FigureInferred is the static-inference experiment (beyond the paper):
// every Table IV benchmark under traditional fences (T), the hand-written
// scope annotations (S), and the compiler-derived configuration (I) —
// scopecheck.Infer run over the unannotated build — normalized to T. The
// claim it feeds: inference recovers the hand annotations' benefit
// without any programmer involvement, the paper's Section IV compiler
// support realized as a working analysis.
func (s *Session) FigureInferred(ctx context.Context, sc Scale) ([]BenchGroup, error) {
	benches := []string{"dekker", "wsq", "msn", "harris", "pst", "ptc", "barnes", "radiosity"}
	modes := []struct {
		Label string
		Mode  kernels.FenceMode
	}{
		{"T", kernels.Traditional},
		{"S", kernels.Scoped},
		{"I", kernels.Inferred},
	}
	grid := map[[2]int]*figRun{}
	var runs []*figRun
	for bi, bench := range benches {
		for mi, m := range modes {
			r := &figRun{bench: bench, opts: kernels.Options{
				Mode: m.Mode, Ops: opsFor(bench, sc),
			}, cfg: baseConfig()}
			grid[[2]int{bi, mi}] = r
			runs = append(runs, r)
		}
	}
	if err := s.execute(ctx, "Inferred scopes", runs); err != nil {
		return nil, err
	}
	out := make([]BenchGroup, 0, len(benches))
	for bi, bench := range benches {
		group := BenchGroup{Bench: bench}
		baseline := grid[[2]int{bi, 0}].res.Cycles
		for mi, m := range modes {
			group.Bars = append(group.Bars, barFrom(m.Label, grid[[2]int{bi, mi}].res, baseline))
		}
		out = append(out, group)
	}
	return out, nil
}

// fullApps are the four full applications the paper's sensitivity
// figures (15 and 16) sweep.
var fullApps = []string{"pst", "ptc", "barnes", "radiosity"}

// sweepFigure runs a T/S pair per parameter value per benchmark, with bars
// normalized to the baseline value's traditional run.
func (s *Session) sweepFigure(ctx context.Context, name string, benches []string, sc Scale, values []int, baseline int, label func(int) string, apply func(machine.Config, int) machine.Config) ([]BenchGroup, error) {
	modes := []struct {
		suffix string
		mode   kernels.FenceMode
	}{{"T", kernels.Traditional}, {"S", kernels.Scoped}}

	grid := map[[3]int]*figRun{}
	var runs []*figRun
	for bi, bench := range benches {
		for vi, v := range values {
			for mi, mc := range modes {
				r := &figRun{bench: bench, opts: kernels.Options{
					Mode: mc.mode, Ops: opsFor(bench, sc),
				}, cfg: apply(baseConfig(), v)}
				grid[[3]int{bi, vi, mi}] = r
				runs = append(runs, r)
			}
		}
	}
	if err := s.execute(ctx, name, runs); err != nil {
		return nil, err
	}
	baseIdx := 0
	for vi, v := range values {
		if v == baseline {
			baseIdx = vi
		}
	}
	out := make([]BenchGroup, 0, len(benches))
	for bi, bench := range benches {
		group := BenchGroup{Bench: bench}
		base := grid[[3]int{bi, baseIdx, 0}].res.Cycles
		for vi, v := range values {
			for mi, mc := range modes {
				group.Bars = append(group.Bars, barFrom(label(v)+mc.suffix, grid[[3]int{bi, vi, mi}].res, base))
			}
		}
		out = append(out, group)
	}
	return out, nil
}

// Figure15 reproduces "Varying memory access latency": pst, ptc, barnes,
// radiosity under traditional and scoped fences at 200-, 300-, and
// 500-cycle memory latency, normalized per benchmark to the 300-cycle
// traditional run (the Table III default, matching the paper's
// normalization to the traditional-fence total).
func (s *Session) Figure15(ctx context.Context, sc Scale) ([]BenchGroup, error) {
	return s.sweepFigure(ctx, "Figure 15", fullApps, sc, []int{200, 300, 500}, 300, intLabel,
		func(cfg machine.Config, lat int) machine.Config {
			cfg.Mem.MemLatency = lat
			return cfg
		})
}

// Figure16 reproduces "Varying ROB size": 64-, 128-, and 256-entry reorder
// buffers under traditional and scoped fences, normalized per benchmark to
// the 128-entry traditional run.
func (s *Session) Figure16(ctx context.Context, sc Scale) ([]BenchGroup, error) {
	return s.sweepFigure(ctx, "Figure 16", fullApps, sc, []int{64, 128, 256}, 128, intLabel,
		func(cfg machine.Config, size int) machine.Config {
			cfg.Core.ROBSize = size
			return cfg
		})
}

func intLabel(v int) string { return strconv.Itoa(v) }
