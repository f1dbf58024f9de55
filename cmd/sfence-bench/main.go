// Command sfence-bench regenerates individual tables and figures of the
// paper's evaluation section (and the repository's extra ablations) on
// the simulated machine, by experiment ID from the shared registry.
//
// Examples:
//
//	sfence-bench -list                   # print every experiment ID
//	sfence-bench -all                    # every deterministic experiment
//	sfence-bench -quick fig12            # just Figure 12, reduced sizing
//	sfence-bench table3 table4 hwcost
//	sfence-bench -json fig13             # schema-versioned JSON envelope
//	sfence-bench -quick ablation/fsb-entries ablation/fss-depth
//	sfence-bench -cache /tmp/sfc -all    # memoize simulations on disk
//	sfence-bench -server http://localhost:8080 table4
//	                                     # run on a sfence-serve instance
//
// With -server the experiments run remotely on a sfence-serve instance
// sharing its bounded cache with every other tenant; the output is the
// schema-versioned JSON envelope (byte-identical to a local -json run,
// since the simulator is deterministic), and -progress follows the
// server's live NDJSON event stream. Ctrl-C disconnects the stream,
// which cancels the remote job mid-cycle-loop.
//
// An unknown experiment ID fails with an error listing every valid ID.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"sfence"
	"sfence/internal/serve"
)

func main() {
	var (
		all        = flag.Bool("all", false, "run every suite experiment (excludes the stats drill-down)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		quick      = flag.Bool("quick", false, "reduced workload sizes")
		asJSON     = flag.Bool("json", false, "emit schema-versioned JSON envelopes instead of ASCII")
		progress   = flag.Bool("progress", false, "report per-experiment progress on stderr")
		cacheDir   = flag.String("cache", "", "memoize simulations in this run-cache directory")
		server     = flag.String("server", "", "run experiments on the sfence-serve instance at this base URL instead of locally (output is the JSON envelope)")
		tenant     = flag.String("tenant", "", "tenant label sent with -server requests (X-Tenant header)")
		parallel   = flag.Int("parallel", 0, "worker-pool width (0 = GOMAXPROCS)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		pprof.StopCPUProfile() // flush a partial profile before exiting
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	if *list {
		for _, spec := range sfence.Experiments() {
			fmt.Printf("%-26s %s\n", spec.ID, spec.Title)
		}
		return
	}

	ids := flag.Args()
	if *all {
		for _, spec := range sfence.Experiments() {
			if spec.InSuite() { // stats is a drill-down: explicit only
				ids = append(ids, spec.ID)
			}
		}
	}
	if len(ids) == 0 {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "\nname experiments to run (see -list), or pass -all")
		pprof.StopCPUProfile()
		os.Exit(2)
	}
	// Validate every ID up front (an unknown ID must not discard the
	// wall-clock already spent on earlier experiments) and drop
	// duplicates, e.g. from combining -all with explicit IDs.
	seen := make(map[string]bool, len(ids))
	valid := ids[:0]
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if _, err := sfence.LookupExperiment(id); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			pprof.StopCPUProfile()
			os.Exit(2)
		}
		valid = append(valid, id)
	}
	ids = valid

	sc := sfence.Full
	if *quick {
		sc = sfence.Quick
	}

	if *server != "" {
		// Remote mode: every experiment becomes a job on the shared
		// server. Ctrl-C cancels the stream, and the jobs are submitted
		// with CancelOnDisconnect so the disconnect cancels the remote
		// simulations too instead of burning server cycles.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		client := &serve.Client{BaseURL: *server, Tenant: *tenant}
		scaleName := "full"
		if *quick {
			scaleName = "quick"
		}
		for _, id := range ids {
			req := serve.JobRequest{
				Experiment:         id,
				Scale:              scaleName,
				Parallelism:        *parallel,
				CancelOnDisconnect: true,
			}
			var onEvent func(serve.Event) error
			if *progress {
				onEvent = func(ev serve.Event) error {
					switch ev.Type {
					case "progress":
						fmt.Fprintf(os.Stderr, "\r%-24s %3d/%3d  %11.0f simcyc/s  fence-stall %5.1f%%",
							ev.Experiment, ev.Done, ev.Total, ev.SimCyclesPerSec, ev.FenceStallShare*100)
						if ev.Done == ev.Total {
							fmt.Fprintln(os.Stderr)
						}
					case "state":
						fmt.Fprintf(os.Stderr, "%s: %s\n", ev.Job, ev.State)
					}
					return nil
				}
			}
			data, err := client.Run(ctx, req, onEvent)
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(data)
		}
		return
	}
	labOpts := []sfence.LabOption{
		sfence.WithScale(sc),
		sfence.WithParallelism(*parallel),
	}
	if *cacheDir != "" {
		cache, err := sfence.NewRunCache(*cacheDir)
		if err != nil {
			fail(err)
		}
		labOpts = append(labOpts, sfence.WithCache(cache))
	}
	if *progress {
		// Progress lines carry simulator throughput and the fence-stall
		// share of core time, both summed over the finished simulations'
		// results. With a run cache the simulations may not execute at
		// all, so the summing runner is only installed for direct runs
		// and cached sessions keep the plain done/total line.
		if *cacheDir == "" {
			var (
				mu                     sync.Mutex
				simCycles              int64
				coreCycles, fenceStall uint64
			)
			start := time.Now()
			labOpts = append(labOpts,
				sfence.WithRunner(func(ctx context.Context, bench string, opts sfence.BenchmarkOptions, cfg sfence.Config) (sfence.BenchmarkResult, error) {
					res, err := sfence.RunBenchmark(ctx, bench, opts, cfg, nil)
					if err == nil {
						mu.Lock()
						simCycles += res.Cycles
						coreCycles += res.CoreCycles
						fenceStall += res.FenceStall
						mu.Unlock()
					}
					return res, err
				}),
				sfence.WithProgress(func(experiment string, done, total int) {
					mu.Lock()
					rate := float64(simCycles) / time.Since(start).Seconds()
					var share float64
					if coreCycles > 0 {
						share = float64(fenceStall) / float64(coreCycles)
					}
					mu.Unlock()
					fmt.Fprintf(os.Stderr, "\r%-24s %3d/%3d  %11.0f simcyc/s  fence-stall %5.1f%%",
						experiment, done, total, rate, share*100)
					if done == total {
						fmt.Fprintln(os.Stderr)
					}
				}))
		} else {
			labOpts = append(labOpts, sfence.WithProgress(func(experiment string, done, total int) {
				fmt.Fprintf(os.Stderr, "\r%-24s %3d/%3d", experiment, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}))
		}
	}
	lab := sfence.NewLab(labOpts...)

	// Ctrl-C cancels the in-flight simulations mid-cycle-loop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	for _, id := range ids {
		res, err := lab.Run(ctx, id)
		if err != nil {
			fail(err)
		}
		if *asJSON {
			data, err := res.JSON()
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(data)
			continue
		}
		fmt.Println(res.Render())
	}
}
