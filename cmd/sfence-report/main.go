// Command sfence-report runs the full evaluation suite and regenerates
// the repository's paper-vs-measured record in one shot: EXPERIMENTS.md
// plus the machine-readable BENCH_*.json envelopes.
//
// The suite runs in a sfence.Lab session whose simulations are memoized
// in a content-addressed run cache (disabled with -no-cache), so
// experiments sharing baseline configurations are simulated once, and a
// second invocation against a warm cache re-runs nothing at all — the
// final "cache:" line reports exactly how many simulations were executed
// vs. served from the cache. Interrupting the run (Ctrl-C) cancels the
// in-flight simulations cleanly and writes no artifacts.
//
// Examples:
//
//	sfence-report                 # full scale, cache under .sfence-cache
//	sfence-report -quick          # CI-sized workloads
//	sfence-report -out docs -cache /tmp/sfc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"sfence"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "reduced workload sizes")
		out        = flag.String("out", ".", "directory for EXPERIMENTS.md and BENCH_*.json")
		cacheDir   = flag.String("cache", ".sfence-cache", "run-cache directory")
		noCache    = flag.Bool("no-cache", false, "disable the run cache")
		progress   = flag.Bool("progress", true, "report per-experiment progress on stderr")
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

	// Ctrl-C cancels the in-flight simulations mid-cycle-loop; nothing is
	// written on a cancelled run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sc := sfence.Full
	if *quick {
		sc = sfence.Quick
	}
	labOpts := []sfence.LabOption{
		sfence.WithScale(sc),
		sfence.WithParallelism(*parallel),
	}
	if !*noCache {
		cache, err := sfence.NewRunCache(*cacheDir)
		if err != nil {
			fail(err)
		}
		labOpts = append(labOpts, sfence.WithCache(cache))
	}
	if *progress {
		labOpts = append(labOpts, sfence.WithProgress(func(experiment string, done, total int) {
			fmt.Fprintf(os.Stderr, "\r%-24s %3d/%3d", experiment, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}
	lab := sfence.NewLab(labOpts...)

	suite, err := lab.RunSuite(ctx)
	if err != nil {
		fail(err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	// Before overwriting, report what this run changes relative to the
	// artifacts already in the output directory — the committed baseline
	// when -out is the repo root.
	changes, err := suite.DiffBaseline(*out)
	if err != nil {
		fail(err)
	}
	printBaselineChanges(changes)
	paths, err := suite.WriteArtifacts(*out)
	if err != nil {
		fail(err)
	}
	mdPath := filepath.Join(*out, "EXPERIMENTS.md")
	if err := os.WriteFile(mdPath, []byte(suite.ExperimentsMD()), 0o644); err != nil {
		fail(err)
	}

	fmt.Printf("wrote %s and %d JSON artifacts to %s\n", mdPath, len(paths), *out)
	if suite.CacheStats != nil {
		st := suite.CacheStats
		fmt.Printf("cache: %d simulations run, %d hits (%d memory, %d disk)\n",
			st.Misses, st.Hits, st.MemHits, st.DiskHits)
		if st.WriteErrors > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d run records could not be persisted (results kept in memory)\n", st.WriteErrors)
		}
	} else {
		fmt.Println("cache: disabled")
	}
}

// printBaselineChanges summarizes what this run changed relative to the
// artifacts and EXPERIMENTS.md already on disk. Changed artifacts list
// their first few leaf-level value deltas (full paths into the JSON
// document), a changed EXPERIMENTS.md its count of differing lines; a
// clean regeneration prints a single "all N files unchanged" line — the
// byte-stability the warm-cache CI smoke relies on, now legible per run.
func printBaselineChanges(changes []sfence.BaselineChange) {
	const maxDeltas = 4
	var unchanged, fresh int
	for _, c := range changes {
		switch c.Status {
		case "unchanged":
			unchanged++
			continue
		case "new":
			fresh++
			fmt.Printf("baseline: %s new (no committed artifact)\n", c.Artifact)
			continue
		}
		if c.Lines > 0 {
			noun := "lines"
			if c.Lines == 1 {
				noun = "line"
			}
			fmt.Printf("baseline: %s changed (%d %s)\n", c.Artifact, c.Lines, noun)
			continue
		}
		fmt.Printf("baseline: %s changed (%d values)\n", c.Artifact, len(c.Deltas))
		for i, d := range c.Deltas {
			if i == maxDeltas {
				fmt.Printf("baseline:   ... %d more\n", len(c.Deltas)-maxDeltas)
				break
			}
			fmt.Printf("baseline:   %s\n", d)
		}
	}
	if unchanged == len(changes) {
		fmt.Printf("baseline: all %d files unchanged\n", unchanged)
	} else {
		fmt.Printf("baseline: %d unchanged, %d changed, %d new of %d files\n",
			unchanged, len(changes)-unchanged-fresh, fresh, len(changes))
	}
}
