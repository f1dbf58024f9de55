// Command sfence-sim runs a single benchmark on the simulated machine and
// prints its result and statistics.
//
// Examples:
//
//	sfence-sim -bench wsq -mode scoped -workload 3
//	sfence-sim -bench pst -mode traditional -ops 400 -threads 8
//	sfence-sim -bench barnes -mode scoped -spec -memlat 500
//	sfence-sim -bench pst -timeout 2s   # time-box the simulation
//	sfence-sim -bench wsq -stats        # full hierarchical stats snapshot
//	sfence-sim -bench wsq -stats-json   # the same snapshot as JSON
//	sfence-sim -gen 149                 # replay fuzz scenario 149 differentially
//	sfence-sim -gen 149 -gen-dump set   # print its set-scoped disassembly
//	sfence-sim -bench wsq -mode inferred  # run with statically inferred scopes
//	sfence-sim -scopecheck              # static scope gate: kernels, litmus, corpus
//	sfence-sim -infer harris            # per-pc scope-inference drill-down
//	sfence-sim -list
//
// The run is cancellable: Ctrl-C (or the -timeout deadline) stops the
// simulation mid-cycle-loop with a clean context error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"sfence"
	"sfence/internal/results"
)

func main() {
	var (
		bench     = flag.String("bench", "wsq", "benchmark name (see -list)")
		mode      = flag.String("mode", "scoped", "fence mode: traditional | scoped | inferred")
		scope     = flag.String("scope", "", "override scope for scoped mode: class | set")
		threads   = flag.Int("threads", 0, "thread count (0 = benchmark default)")
		cores     = flag.Int("cores", 0, "machine core count (0 = Table III default, grown to fit -threads)")
		ops       = flag.Int("ops", 0, "operation count (0 = benchmark default)")
		workload  = flag.Int("workload", 0, "workload units between operations")
		seed      = flag.Int64("seed", 1, "deterministic input seed")
		spec      = flag.Bool("spec", false, "enable in-window speculation (T+/S+)")
		memlat    = flag.Int("memlat", 0, "memory latency override in cycles")
		depth     = flag.Int("depth", 0, "memory-hierarchy depth (2-4; 0 = the 2-level Table III default)")
		robsize   = flag.Int("rob", 0, "ROB size override")
		fifo      = flag.Bool("fifosb", false, "FIFO (TSO-like) store buffer")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		traceCyc  = flag.Int64("trace", 0, "write a pipeline trace of the first N cycles to stderr")
		profile   = flag.Bool("profile", false, "print the per-fence stall profile")
		stats     = flag.Bool("stats", false, "print the full hierarchical stats snapshot (every registered counter)")
		statsJSON = flag.Bool("stats-json", false, "emit the stats snapshot as JSON on stdout (implies quiet summary)")
		timeout   = flag.Duration("timeout", 0, "abort the simulation after this wall-clock duration (0 = no limit)")
		genSeed   = flag.Int64("gen", 0, "replay the generated fuzz scenario with this seed through the full differential check (ignores -bench)")
		genDump   = flag.String("gen-dump", "", "with -gen: print the named fence variant's disassembly (traditional | class | set) instead of checking")
		scopeGate = flag.Bool("scopecheck", false, "statically verify fence scopes: all kernels, all litmus families, and the committed fuzz corpus (ignores -bench)")
		corpus    = flag.String("corpus", "internal/ref/testdata/fuzz/FuzzConcDifferential", "with -scopecheck: directory of committed fuzz seeds to verify")
		infer     = flag.String("infer", "", "infer minimal fence scopes for this benchmark's unannotated build and print the report (ignores -bench)")
	)
	flag.Parse()

	if *list {
		fmt.Print(sfence.RenderTableIV())
		return
	}
	if *scopeGate {
		runScopeGate(*corpus)
		return
	}
	if *infer != "" {
		runInfer(*infer)
		return
	}

	genSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "gen" {
			genSet = true
		}
	})
	if genSet {
		runGenerated(*genSeed, *genDump, *depth)
		return
	}

	opts := sfence.BenchmarkOptions{
		Threads: *threads, Ops: *ops, Workload: *workload, Seed: *seed,
	}
	switch *mode {
	case "traditional":
		opts.Mode = sfence.Traditional
	case "scoped":
		opts.Mode = sfence.Scoped
	case "inferred":
		opts.Mode = sfence.Inferred
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	switch *scope {
	case "":
	case "class":
		opts.Scope = sfence.ForceClass
	case "set":
		opts.Scope = sfence.ForceSet
	default:
		fmt.Fprintf(os.Stderr, "unknown scope %q\n", *scope)
		os.Exit(2)
	}

	cfg := sfence.DefaultConfig()
	if *cores > 0 {
		cfg.Cores = *cores
	} else if *threads > cfg.Cores {
		cfg.Cores = *threads
	}
	cfg.Core.InWindowSpec = *spec
	cfg.Core.FIFOStoreBuffer = *fifo
	if *depth > 0 {
		if *depth < 2 || *depth > 4 {
			fmt.Fprintf(os.Stderr, "depth %d out of range [2,4]\n", *depth)
			os.Exit(2)
		}
		cfg.Mem = sfence.DepthMemConfig(*depth)
	}
	if *memlat > 0 {
		cfg.Mem.MemLatency = *memlat
	}
	if *robsize > 0 {
		cfg.Core.ROBSize = *robsize
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var tracer sfence.Tracer
	if *traceCyc > 0 {
		tracer = sfence.NewTextTracer(os.Stderr, *traceCyc)
	}
	res, err := sfence.RunBenchmark(ctx, *bench, opts, cfg, tracer)
	// A run that fails Verify still carries its Result: print it, so the
	// cycles and stats explain the failure, then exit 1.
	if err != nil && res.Cycles == 0 {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()
	verdict := "PASSED"
	if err != nil {
		verdict = "FAILED"
	}
	if *statsJSON {
		data, err := results.Marshal(res.Snapshot)
		if err == nil {
			_, err = os.Stdout.Write(data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("benchmark:          %s (%s fences)\n", *bench, *mode)
	fmt.Printf("cycles:             %d\n", res.Cycles)
	fmt.Printf("committed insts:    %d\n", res.Stats.Committed)
	fmt.Printf("committed fences:   %d\n", res.Stats.CommittedFences)
	fmt.Printf("fence stall cycles: %d (%.1f%% of core time)\n", res.FenceStall, 100*res.FenceStallFraction())
	fmt.Printf("mispredictions:     %d\n", res.Stats.Mispredicts)
	// One miss line per configured cache level (the last level's misses
	// are the memory fetches), read from the stats snapshot.
	for k := 1; ; k++ {
		smp, ok := res.Snapshot.Lookup(fmt.Sprintf("machine.mem.l%d_misses", k))
		if !ok {
			break
		}
		fmt.Printf("%-20s%d\n", fmt.Sprintf("L%d misses:", k), smp.Value)
	}
	fmt.Println("verification:       " + verdict)
	if *profile {
		fmt.Println("\nFence profile (stalls by static fence site):")
		fmt.Printf("  %-6s %-20s %10s %12s %12s\n", "pc", "fence", "execs", "stall-cyc", "idle-cyc")
		for _, s := range res.Profile {
			fmt.Printf("  %-6d %-20s %10d %12d %12d\n", s.PC, s.Scope, s.Executions, s.StallCycles, s.IdleCycles)
		}
	}
	if *stats {
		fmt.Println("\nStats snapshot (every registered stat, schema", res.Snapshot.Schema, "):")
		for _, s := range res.Snapshot.Samples {
			switch s.Kind {
			case "formula":
				fmt.Printf("  %-42s %14.4f  %s\n", s.Name, s.Float, s.Desc)
			default:
				fmt.Printf("  %-42s %14d  %s\n", s.Name, s.Value, s.Desc)
			}
		}
	}
}

// corpusSeeds extracts the int64 seeds from a committed go-fuzz corpus
// directory ("go test fuzz v1" files with one int64 argument).
func corpusSeeds(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seeds []int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			var s int64
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "int64(%d)", &s); err == nil {
				seeds = append(seeds, s)
			}
		}
	}
	return seeds, nil
}

// runScopeGate statically verifies every program the repository ships —
// the CI scope gate behind -scopecheck.
func runScopeGate(corpusDir string) {
	seeds, err := corpusSeeds(corpusDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reading corpus %s: %v\n", corpusDir, err)
		os.Exit(2)
	}
	entries, ok := sfence.ScopeGate(seeds)
	fmt.Printf("%-32s %7s %9s %6s  %s\n", "target", "errors", "warnings", "notes", "verdict")
	for _, e := range entries {
		verdict := "ok"
		if !e.OK {
			verdict = "FAIL"
		}
		fmt.Printf("%-32s %7d %9d %6d  %s\n", e.Target, e.Errors, e.Warnings, e.Notes, verdict)
		if !e.OK && e.Detail != "" {
			fmt.Println(e.Detail)
		}
	}
	if !ok {
		fmt.Println("scope gate:         FAILED")
		os.Exit(1)
	}
	fmt.Printf("scope gate:         PASSED (%d targets, %d corpus seeds)\n", len(entries), len(seeds))
}

// runInfer infers minimal scopes for one benchmark's unannotated build
// and prints what the analysis decided.
func runInfer(bench string) {
	sc, err := sfence.BenchmarkScenario(bench, sfence.BenchmarkOptions{Mode: sfence.Traditional})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prog, info, err := sfence.InferScopes(&sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("benchmark:          %s (unannotated build)\n", bench)
	fmt.Printf("fences rewritten:   %d (all to set scope)\n", info.Fences)
	fmt.Printf("accesses flagged:   %d\n", len(info.Flagged))
	for _, pc := range info.Flagged {
		fmt.Printf("  pc %4d: %v\n", pc, prog.Code[pc])
	}
	inferred := sfence.ScopeScenario{Name: sc.Name, Prog: prog, Threads: sc.Threads, Regions: sc.Regions}
	rep, err := sfence.VerifyScopes(&inferred)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if rep.HasErrors() {
		fmt.Println(rep)
		fmt.Println("inferred scopes:    FAILED VERIFICATION")
		os.Exit(1)
	}
	fmt.Println("inferred scopes:    verify clean")
}

// runGenerated replays one generated fuzz scenario standalone: either
// dumping a variant's disassembly or running the full differential check
// (SC oracle vs machine, three fence variants, naive vs event-driven
// clocks, the requested hierarchy depths). This is the bridge from a
// fuzzer-found seed to a debuggable standalone reproduction.
func runGenerated(seed int64, dump string, depth int) {
	if dump != "" {
		asm, threads, err := sfence.GeneratedScenario(seed, dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("# generated scenario seed=%d variant=%s threads=%d\n", seed, dump, threads)
		fmt.Print(asm)
		return
	}
	var depths []int
	if depth > 0 {
		depths = []int{depth}
	}
	rep, err := sfence.CheckGenerated(seed, depths)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("scenario seed:      %d\n", rep.Seed)
	fmt.Printf("threads:            %d\n", rep.Threads)
	fmt.Printf("instructions:       traditional=%d class=%d set=%d\n", rep.Insts[0], rep.Insts[1], rep.Insts[2])
	fmt.Printf("oracle steps:       %d\n", rep.OracleSteps)
	fmt.Printf("%-14s %6s %10s %12s %14s\n", "variant", "depth", "cycles", "slow-ticks", "skipped-cycles")
	for _, r := range rep.Runs {
		fmt.Printf("%-14s %6d %10d %12d %14d\n", r.Variant, r.Depth, r.Cycles, r.SlowTicks, r.SkippedCycles)
	}
	fmt.Println("differential:       PASSED")
}
