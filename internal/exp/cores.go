package exp

import (
	"context"
	"fmt"
	"strings"

	"sfence/internal/kernels"
)

// CoreCounts are the machine widths the fig-cores experiment sweeps. 8 is
// the paper's Table III machine, 64 the old directory-bitmask ceiling,
// and 256 exercises the directory's extension sharer words end to end.
var CoreCounts = []int{8, 64, 256}

// coresBenches are the scalable workloads of the sweep: the balanced
// ring-synchronized scale kernel and its straggler variant, whose
// barrier tail grows with core count (see internal/kernels/scale.go).
var coresBenches = []string{"scale", "scale-imb"}

// CoresRow is one (benchmark, cores, mode) cell of the core-count sweep.
// Everything in it is simulated (deterministic) data; wall-clock
// measurements of the simulator itself come from bench/.
type CoresRow struct {
	Bench    string `json:"bench"`
	Cores    int    `json:"cores"`
	Mode     string `json:"mode"`
	Ops      int    `json:"ops"`
	Workload int    `json:"workload"`
	Cycles   int64  `json:"cycles"`
	// FenceStallFrac is the fence-stall share of total core time.
	FenceStallFrac float64 `json:"fenceStallFrac"`
	Committed      uint64  `json:"committed"`
	L1Misses       uint64  `json:"l1Misses"`
}

// coresSizing returns (ops, workload) for the sweep at a scale. The
// straggler variant multiplies thread 0's compute by 8x internally, so
// these stay small to keep the 256-core rows affordable.
func coresSizing(sc Scale) (int, int) {
	if sc == Quick {
		return 2, 1
	}
	return 4, 2
}

// FigureCores is the core-count sweep (beyond the paper): the scale
// kernels at 8, 64, and 256 cores under traditional and scoped fences.
// It answers the scaling form of the paper's question — does S-Fence's
// advantage survive machine width? — and doubles as the end-to-end
// exercise of the many-core memory system (extension sharer words, 256-way
// invalidation broadcasts) inside the ordinary experiment pipeline.
func (s *Session) FigureCores(ctx context.Context, sc Scale) ([]CoresRow, error) {
	ops, wl := coresSizing(sc)
	modes := []struct {
		label string
		mode  kernels.FenceMode
	}{{"T", kernels.Traditional}, {"S", kernels.Scoped}}

	var runs []*figRun
	type cell struct {
		bench string
		cores int
		mode  string
	}
	var cells []cell
	for _, bench := range coresBenches {
		for _, cores := range CoreCounts {
			for _, mc := range modes {
				cfg := baseConfig()
				cfg.Cores = cores
				runs = append(runs, &figRun{bench: bench, opts: kernels.Options{
					Mode: mc.mode, Threads: cores, Ops: ops, Workload: wl,
				}, cfg: cfg})
				cells = append(cells, cell{bench, cores, mc.label})
			}
		}
	}
	if err := s.execute(ctx, "Core-count sweep", runs); err != nil {
		return nil, err
	}
	out := make([]CoresRow, len(runs))
	for i, r := range runs {
		out[i] = CoresRow{
			Bench:          cells[i].bench,
			Cores:          cells[i].cores,
			Mode:           cells[i].mode,
			Ops:            ops,
			Workload:       wl,
			Cycles:         r.res.Cycles,
			FenceStallFrac: r.res.FenceStallFraction(),
			Committed:      r.res.Stats.Committed,
			L1Misses:       r.res.Stats.L1Misses,
		}
	}
	return out, nil
}

// RenderCores formats the core-count sweep as a table with one line per
// (benchmark, cores) pair and an S-Fence speedup column.
func RenderCores(rows []CoresRow) string {
	var sb strings.Builder
	sb.WriteString("Core-count sweep — scale kernels at 8/64/256 cores\n")
	sb.WriteString(fmt.Sprintf("%-11s%7s%14s%14s%9s%12s%12s\n",
		"bench", "cores", "T cycles", "S cycles", "T/S", "T stall", "S stall"))
	byKey := map[[2]string]CoresRow{}
	for _, r := range rows {
		byKey[[2]string{fmt.Sprintf("%s/%d", r.Bench, r.Cores), r.Mode}] = r
	}
	seen := map[string]bool{}
	for _, r := range rows {
		key := fmt.Sprintf("%s/%d", r.Bench, r.Cores)
		if seen[key] {
			continue
		}
		seen[key] = true
		T, S := byKey[[2]string{key, "T"}], byKey[[2]string{key, "S"}]
		speedup := 0.0
		if S.Cycles > 0 {
			speedup = float64(T.Cycles) / float64(S.Cycles)
		}
		sb.WriteString(fmt.Sprintf("%-11s%7d%14d%14d%8.3fx%11.1f%%%11.1f%%\n",
			T.Bench, T.Cores, T.Cycles, S.Cycles, speedup,
			100*T.FenceStallFrac, 100*S.FenceStallFrac))
	}
	return sb.String()
}
