package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// metricDef names one metric and its unit. The tables below and
// BENCHMARK.json at the repository root must list the same names in the
// same order; bench_test.go checks it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator or the service sees.
// Every workload reports all of them; README.md says what an op and a
// pass are on each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_kips", "kinstr/s"},
	{"op_ms_geomean", "ms"},
	{"op_ms_max", "ms"},
}

// perLayer are the traced run's metrics. A layer that is not on a
// workload's path reads 0 there: the simulation layers on serve-mix, the
// service layers on the sim-* workloads.
var perLayer = []metricDef{
	{"kernels.build_ms", "ms"},
	{"kernels.build_share", "share"},
	{"machine.new_ms", "ms"},
	{"machine.new_share", "share"},
	{"kernels.init_ms", "ms"},
	{"kernels.init_share", "share"},
	{"machine.run_ms", "ms"},
	{"machine.run_share", "share"},
	{"kernels.verify_ms", "ms"},
	{"kernels.verify_share", "share"},
	{"stats.snapshot_ms", "ms"},
	{"stats.snapshot_share", "share"},
	{"machine.run_ns_per_slow_tick", "ns"},
	{"machine.run_ns_per_instr", "ns"},
	{"machine.skip_share", "share"},
	{"machine.spin_skip_share", "share"},
	{"machine.jumps", "count"},
	{"machine.slow_ticks", "count"},
	{"machine.cycles", "count"},
	{"cpu.committed", "count"},
	{"cpu.fence_idle_share", "share"},
	{"memsys.l1_misses", "count"},
	{"memsys.l2_misses", "count"},
	{"runtime.peak_rss_mb", "MiB"},
	{"runtime.alloc_mb_per_pass", "MiB"},
	{"runtime.gc_per_pass", "count"},
	{"runtime.gc_pause_ms_per_pass", "ms"},
	{"trace.overhead", "share"},
	{"serve.cold.submit_ms", "ms"},
	{"serve.cold.queue_wait_ms", "ms"},
	{"serve.cold.run_ms", "ms"},
	{"serve.cold.result_ms", "ms"},
	{"serve.warm.submit_ms", "ms"},
	{"serve.warm.queue_wait_ms", "ms"},
	{"serve.warm.run_ms", "ms"},
	{"serve.warm.result_ms", "ms"},
	{"results.cold.runner_ms", "ms"},
	{"results.warm.runner_us_per_call", "us"},
	{"results.runner_calls_per_job", "count"},
	{"results.encode_ms", "ms"},
	{"results.encode_ms_max", "ms"},
	{"exp.warm_run_ms", "ms"},
	{"serve.cache.hit_ratio", "share"},
	{"serve.cache.misses", "count"},
	{"serve.cache.disk_bytes", "bytes"},
	{"serve.jobs.failed", "count"},
	{"serve.jobs.rejected", "count"},
}

func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// report is what a workload run measured.
type report struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	// info describes the run's length: passes, ops, rounds, jobs.
	info map[string]any
	tr   *tracer
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}}
}

func (r *report) runInfo(cfg config) map[string]any {
	out := map[string]any{
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"seconds":   cfg.measure.Seconds(),
		"trace":     cfg.trace,
		"setupReps": cfg.setupReps,
	}
	for k, v := range r.info {
		out[k] = v
	}
	return out
}

// metric is one value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the metrics of one mode. Every end-to-end metric must
// have been measured; a per-layer metric the workload does not reach
// reads 0. A measured name missing from the tables is a bug.
func (r *report) result(trace bool) (result, error) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	src := r.e2e
	if trace {
		src = r.layers
	}
	for _, d := range metricsFor(trace) {
		v, ok := src[d.name]
		if !ok && !trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range src {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("measured metric %s is not in the metric table", name)
		}
	}
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// geomean weighs every op kind alike, however long it runs.
func geomean(xs []float64) float64 {
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// minOf returns the smallest per-pass value; for a time, that of the pass
// the host disturbed least.
func minOf[P any](passes []P, f func(P) float64) float64 {
	return quantileOf(passes, f, 0)
}

// medianOf returns the median over passes of one per-pass value.
func medianOf[P any](passes []P, f func(P) float64) float64 {
	return quantileOf(passes, f, 0.5)
}

func quantileOf[P any](passes []P, f func(P) float64, q float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return quantile(xs, q)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta is the Go runtime's work between two points.
type memDelta struct {
	allocMB float64
	gcs     float64
	pauseMs float64
}

// readMem samples the runtime counters memDelta subtracts.
func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcs:     float64(after.NumGC - before.NumGC),
		pauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// setRuntimeLayers records the runtime.* metrics: the peak resident set
// and, as medians over the passes, the Go runtime's work.
func setRuntimeLayers[P any](layers map[string]float64, passes []P, mem func(P) memDelta) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	layers["runtime.peak_rss_mb"] = rss
	layers["runtime.alloc_mb_per_pass"] = medianOf(passes, func(p P) float64 { return mem(p).allocMB })
	layers["runtime.gc_per_pass"] = medianOf(passes, func(p P) float64 { return mem(p).gcs })
	layers["runtime.gc_pause_ms_per_pass"] = medianOf(passes, func(p P) float64 { return mem(p).pauseMs })
	return nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostInfo describes the machine a run measured.
func hostInfo(dir string) map[string]any {
	return map[string]any{
		"numCPU":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS,
		"arch":       runtime.GOARCH,
		"cpu":        cpuModel(),
		"tmpFS":      fsType(dir),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType returns the type of the filesystem holding dir: the entry of
// /proc/mounts with the longest mount point containing it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}
