// Command bench is the repository benchmark. It runs one workload per
// process, checks every output it produces, and prints every metric by
// name and unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// per-layer ones, and the spans behind them are written to
// .bench_build/spans-<workload>-seed<N>.json. Each
// layer is timed from outside: spans wrap calls into exported functions,
// and counts come from exported stats registries.
//
// Usage, from this directory (bench/run.sh builds and runs it from the
// repository root):
//
//	go run . -workload sim-active -seed 1 -seconds 20 -trace 0
//	go run . compare A.jsonl B.jsonl
//
// See README.md for the workloads, the metrics and the baseline numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 5

// config is one workload run.
type config struct {
	workload string
	seed     int64
	// measure is how long the timed loop runs. Whole passes (rounds on
	// serve-mix) are run until it has elapsed, at least one untraced pass
	// and, when tracing, one traced pass.
	measure   time.Duration
	trace     bool
	setupReps int
	// outDir receives the trace spans and the serve-mix run caches.
	outDir string
}

// workload is one set of inputs the benchmark runs.
// Why each was chosen is in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*report, error)
}

var workloads = []workload{
	{"sim-active", simActive},
	{"sim-skip", simSkip},
	{"sim-manycore", simManycore},
	{"serve-mix", serveMix},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: sim-active, sim-skip, sim-manycore or serve-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "length of the timed loop in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	fs.Parse(os.Args[1:])

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fail(fmt.Errorf("-trace %d: want 0 or 1", *traceFlag))
	}
	if *seconds < 0 {
		fail(fmt.Errorf("-seconds %g: want >= 0", *seconds))
	}
	cfg := config{
		workload:  w.name,
		seed:      *seed,
		measure:   time.Duration(*seconds * float64(time.Second)),
		trace:     *traceFlag == 1,
		setupReps: setupReps,
		outDir:    ".bench_build",
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := w.run(ctx, cfg)
	if err != nil {
		fail(err)
	}
	if cfg.trace {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := rep.tr.write(path, cfg); err != nil {
			fail(err)
		}
		fmt.Println("spans:", path)
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		fail(err)
	}
	if err := printReport(os.Stdout, cfg, rep, res); err != nil {
		fail(err)
	}
}

// printReport writes the host block, one line per metric, and the result
// object as the last line.
func printReport(w io.Writer, cfg config, rep *report, res result) error {
	block := map[string]any{"host": hostInfo(cfg.outDir), "run": rep.runInfo(cfg)}
	hb, err := json.Marshal(block)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", hb)
	for _, d := range metricsFor(cfg.trace) {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", rb)
	return err
}
