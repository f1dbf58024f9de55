package kernels

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sfence/internal/machine"
	"sfence/internal/memsys"
)

// smallOpts returns fast-but-meaningful options per benchmark for tests.
func smallOpts(bench string) Options {
	switch bench {
	case "dekker":
		return Options{Ops: 15, Workload: 1}
	case "wsq":
		return Options{Ops: 40, Workload: 1, Threads: 4}
	case "msn":
		return Options{Ops: 24, Workload: 1, Threads: 4}
	case "harris":
		return Options{Ops: 30, Workload: 1, Threads: 4}
	case "pst":
		return Options{Ops: 96, Threads: 4}
	case "ptc":
		return Options{Ops: 48, Threads: 4}
	case "barnes", "radiosity":
		return Options{Ops: 10, Threads: 4}
	}
	return Options{}
}

func runBench(t *testing.T, bench string, opts Options, cfg machine.Config) Result {
	t.Helper()
	k, err := Build(bench, opts)
	if err != nil {
		t.Fatalf("%s build: %v", bench, err)
	}
	res, err := Run(context.Background(), k, cfg)
	if err != nil {
		t.Fatalf("%s run: %v", bench, err)
	}
	return res
}

func TestRegistryMatchesTableIV(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("registry has %d benchmarks, want 8", len(all))
	}
	wantOrder := []string{"dekker", "wsq", "msn", "harris", "barnes", "radiosity", "pst", "ptc"}
	wantScope := map[string]string{
		"dekker": "set", "wsq": "class", "msn": "class", "harris": "class",
		"barnes": "set", "radiosity": "set", "pst": "class", "ptc": "class",
	}
	for i, info := range all {
		if info.Name != wantOrder[i] {
			t.Errorf("position %d: %s, want %s", i, info.Name, wantOrder[i])
		}
		if info.ScopeType != wantScope[info.Name] {
			t.Errorf("%s scope type %s, want %s (Table IV)", info.Name, info.ScopeType, wantScope[info.Name])
		}
		if info.Description == "" || info.Group == "" {
			t.Errorf("%s missing metadata", info.Name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Build("nope", Options{}); err == nil {
		t.Error("Build of unknown benchmark succeeded")
	}
}

// Every benchmark must run to completion and pass its own verifier under
// both fence modes — these are simultaneously correctness tests of the
// S-Fence hardware (a scoping bug that under-synchronizes shows up as a
// verification failure).
func TestAllBenchmarksVerifyBothModes(t *testing.T) {
	for _, info := range All() {
		for _, mode := range []FenceMode{Traditional, Scoped} {
			opts := smallOpts(info.Name)
			opts.Mode = mode
			res := runBench(t, info.Name, opts, machine.DefaultConfig())
			if res.Cycles <= 0 || res.Stats.Committed == 0 {
				t.Errorf("%s/%v: empty run (%+v)", info.Name, mode, res)
			}
			if res.Stats.CommittedFences == 0 {
				t.Errorf("%s/%v: no fences executed", info.Name, mode)
			}
		}
	}
}

// Scoped fences must never lose to traditional fences by more than noise.
func TestScopedNotSlower(t *testing.T) {
	for _, info := range All() {
		optsT := smallOpts(info.Name)
		optsT.Mode = Traditional
		optsS := smallOpts(info.Name)
		optsS.Mode = Scoped
		rT := runBench(t, info.Name, optsT, machine.DefaultConfig())
		rS := runBench(t, info.Name, optsS, machine.DefaultConfig())
		// ptc's dynamic stealing schedule gives it the widest noise band.
		limit := 1.05
		if info.Name == "ptc" {
			limit = 1.10
		}
		if float64(rS.Cycles) > float64(rT.Cycles)*limit {
			t.Errorf("%s: scoped (%d) slower than traditional (%d)", info.Name, rS.Cycles, rT.Cycles)
		}
	}
}

// The store-buffer-bound benchmarks must show a real scoped-fence win.
func TestScopedFenceReducesStalls(t *testing.T) {
	for _, bench := range []string{"wsq", "msn", "barnes", "radiosity"} {
		optsT := smallOpts(bench)
		optsT.Mode = Traditional
		optsS := smallOpts(bench)
		optsS.Mode = Scoped
		rT := runBench(t, bench, optsT, machine.DefaultConfig())
		rS := runBench(t, bench, optsS, machine.DefaultConfig())
		if rS.FenceStall >= rT.FenceStall {
			t.Errorf("%s: scoped stalls %d >= traditional %d", bench, rS.FenceStall, rT.FenceStall)
		}
		if rS.Cycles >= rT.Cycles {
			t.Errorf("%s: no speedup (S=%d, T=%d)", bench, rS.Cycles, rT.Cycles)
		}
	}
}

// Figure 14's comparison: the class-scope benchmarks can also run with set
// scope (flagging the shared variables); both must verify.
func TestClassVsSetScope(t *testing.T) {
	for _, bench := range []string{"msn", "harris", "pst", "ptc"} {
		for _, ov := range []ScopeOverride{ForceClass, ForceSet} {
			opts := smallOpts(bench)
			opts.Mode = Scoped
			opts.Scope = ov
			runBench(t, bench, opts, machine.DefaultConfig())
		}
	}
}

// All benchmarks must stay correct under in-window speculation, where the
// speculative-load replay mechanism carries the correctness burden.
func TestBenchmarksUnderInWindowSpeculation(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Core.InWindowSpec = true
	for _, info := range All() {
		for _, mode := range []FenceMode{Traditional, Scoped} {
			opts := smallOpts(info.Name)
			opts.Mode = mode
			runBench(t, info.Name, opts, cfg)
		}
	}
}

// All benchmarks must stay correct under the paper's shadow-FSS recovery.
func TestBenchmarksUnderShadowRecovery(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Core.Recovery = 1 // cpu.RecoveryShadow
	for _, info := range All() {
		opts := smallOpts(info.Name)
		opts.Mode = Scoped
		runBench(t, info.Name, opts, cfg)
	}
}

// Scope-hardware pressure: a single FSB class entry plus tiny FSS/mapping
// table forces entry sharing and overflow fallback, which must stay
// correct (only more conservative).
func TestBenchmarksUnderTinyScopeHardware(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Core.FSBEntries = 2 // one class entry + reserved set entry
	cfg.Core.FSSEntries = 1
	cfg.Core.MapEntries = 1
	for _, bench := range []string{"wsq", "msn", "pst"} {
		opts := smallOpts(bench)
		opts.Mode = Scoped
		runBench(t, bench, opts, cfg)
	}
}

func TestKernelDeterminism(t *testing.T) {
	for _, bench := range []string{"dekker", "wsq", "msn", "harris"} {
		opts := smallOpts(bench)
		opts.Mode = Scoped
		a := runBench(t, bench, opts, machine.DefaultConfig())
		b := runBench(t, bench, opts, machine.DefaultConfig())
		if a.Cycles != b.Cycles {
			t.Errorf("%s: identical runs took %d and %d cycles", bench, a.Cycles, b.Cycles)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Build("dekker", Options{Threads: 3}); err == nil {
		t.Error("dekker with 3 threads accepted")
	}
	if _, err := Build("msn", Options{Threads: 3}); err == nil {
		t.Error("msn with odd threads accepted")
	}
	if _, err := Build("wsq", Options{Threads: 1}); err == nil {
		t.Error("wsq with 1 thread accepted")
	}
	if _, err := Build("barnes", Options{Scope: ForceClass}); err == nil {
		t.Error("barnes with class scope accepted (set-scope-only benchmark)")
	}
	// Running on a machine with fewer cores than threads must error.
	k, err := Build("wsq", Options{Threads: 8, Ops: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	if _, err := Run(context.Background(), k, cfg); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Errorf("thread/core mismatch not rejected: %v", err)
	}
}

// The Figure 12 workload knob must produce the paper's hump: speedup rises
// from low workload, peaks, and falls at high workload.
func TestWorkloadHumpShape(t *testing.T) {
	if testing.Short() {
		t.Skip("hump sweep is slow")
	}
	speedups := make([]float64, 0, 4)
	for _, w := range []int{1, 3, 6, 12} {
		var cyc [2]int64
		for i, mode := range []FenceMode{Traditional, Scoped} {
			res := runBench(t, "wsq", Options{Mode: mode, Ops: 40, Workload: w, Threads: 4}, machine.DefaultConfig())
			cyc[i] = res.Cycles
		}
		speedups = append(speedups, float64(cyc[0])/float64(cyc[1]))
	}
	peak := 0
	for i, s := range speedups {
		if s > speedups[peak] {
			peak = i
		}
	}
	if peak == 0 || peak == len(speedups)-1 {
		t.Errorf("no interior hump: speedups %v", speedups)
	}
	for _, s := range speedups {
		// The paper's claim is "S-Fence always performs better"; allow a
		// 2% noise band at the high-workload end where the fence share
		// of runtime approaches zero.
		if s < 0.98 {
			t.Errorf("speedup below noise floor in sweep: %v", speedups)
		}
	}
}

// FinerFences (store-store put fence) must stay correct on every
// wsq-based kernel under both modes.
func TestFinerFencesCorrectEverywhere(t *testing.T) {
	for _, bench := range []string{"wsq", "pst", "ptc"} {
		for _, mode := range []FenceMode{Traditional, Scoped} {
			opts := smallOpts(bench)
			opts.Mode = mode
			opts.FinerFences = true
			runBench(t, bench, opts, machine.DefaultConfig())
		}
	}
}

// Every benchmark program must pass the CFG scope validator (balanced
// fs_start/fs_end on all paths) in every build variant.
func TestKernelProgramsValidate(t *testing.T) {
	for _, info := range All() {
		for _, mode := range []FenceMode{Traditional, Scoped} {
			opts := smallOpts(info.Name)
			opts.Mode = mode
			k, err := Build(info.Name, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Program.Validate(); err != nil {
				t.Errorf("%s/%v: %v", info.Name, mode, err)
			}
		}
	}
}

// The fence profile of a traditional pst run must identify the
// application's full fence (not the queue fences) as a dominant idle-stall
// site — the diagnosis the paper makes in Section VI-B.
func TestFenceProfileFindsPSTFullFence(t *testing.T) {
	opts := smallOpts("pst")
	opts.Mode = Scoped
	res := runBench(t, "pst", opts, machine.DefaultConfig())
	if len(res.Profile) == 0 {
		t.Fatal("empty fence profile")
	}
	// In scoped mode the only global fence site is the color/parent
	// fence; the profile must attribute idle stalls to it, and class
	// fence sites must also appear (three queue-fence sites).
	var globalSites, classSites int
	var globalIdle uint64
	for _, s := range res.Profile {
		switch s.Scope {
		case "fence.global":
			globalSites++
			globalIdle += s.IdleCycles
		case "fence.class":
			classSites++
		}
	}
	if globalSites != 1 {
		t.Errorf("expected exactly 1 global fence site, got %d", globalSites)
	}
	if classSites < 3 {
		t.Errorf("expected >=3 class fence sites (put/take/steal), got %d", classSites)
	}
	if globalIdle == 0 {
		t.Error("the application full fence recorded no idle stalls")
	}
}

// TestFailedVerifyKeepsResult runs a kernel whose Verify always fails:
// Run must report the failure and still return the finished run's
// Result, so a caller can explain the failure from its cycles and stats.
func TestFailedVerifyKeepsResult(t *testing.T) {
	k, err := Build("dekker", smallOpts("dekker"))
	if err != nil {
		t.Fatal(err)
	}
	errLost := errors.New("lost insert")
	k.Verify = func(*memsys.Image) error { return errLost }
	res, err := Run(context.Background(), k, machine.DefaultConfig())
	if !errors.Is(err, errLost) || !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("Run error = %v, want a verification failure wrapping %v", err, errLost)
	}
	if res.Cycles == 0 || res.Stats.Committed == 0 {
		t.Errorf("failed run returned an empty Result: cycles %d, committed %d", res.Cycles, res.Stats.Committed)
	}
	if got := res.Snapshot.UValue("machine.committed"); got != res.Stats.Committed {
		t.Errorf("snapshot machine.committed = %d, Result says %d", got, res.Stats.Committed)
	}
}

func TestResultFenceStallFraction(t *testing.T) {
	r := Result{FenceStall: 25, CoreCycles: 100}
	if got := r.FenceStallFraction(); got != 0.25 {
		t.Errorf("fraction = %v, want 0.25", got)
	}
	if (Result{}).FenceStallFraction() != 0 {
		t.Error("zero-cycle result should have zero fraction")
	}
}

func TestLCGGoISAEquivalence(t *testing.T) {
	// barnes verification already proves this end to end; this pins the
	// Go-side helper against drift.
	x := int64(42)
	var idx int64
	x, idx = lcgNext(x, 1023)
	if idx < 0 || idx > 1023 {
		t.Errorf("lcgNext index %d out of range", idx)
	}
	x2, idx2 := lcgNext(x, 1023)
	if x2 == x || idx2 == idx && x2 == x {
		t.Error("lcgNext did not advance")
	}
}

// TestHarrisVerifierOwnMark runs a sizing whose final harris list holds a
// live node (key 23) reached through its deleted predecessor's marked next
// pointer: the verifier must judge each node by its own mark, not by the
// mark of the pointer that reached it.
func TestHarrisVerifierOwnMark(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Core.ROBSize = 2
	for _, mode := range []FenceMode{Traditional, Scoped} {
		runBench(t, "harris", Options{Mode: mode, Ops: 8, Threads: 2, Seed: 82}, cfg)
	}
}

// TestKernelSeedSweep runs every kernel, hidden ones included, in T, S and
// inferred modes over a fixed seed range at a small sizing (the many-core
// kernels on 4 threads): each run must pass its verifier.
func TestKernelSeedSweep(t *testing.T) {
	const seeds = 3
	for _, info := range registry {
		opts := Options{Ops: 8}
		if strings.HasPrefix(info.Name, "scale") {
			opts = Options{Ops: 2, Threads: 4}
		}
		for _, mode := range []FenceMode{Traditional, Scoped, Inferred} {
			opts.Mode = mode
			for opts.Seed = 1; opts.Seed <= seeds; opts.Seed++ {
				runBench(t, info.Name, opts, machine.DefaultConfig())
			}
		}
	}
}
