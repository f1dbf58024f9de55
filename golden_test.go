// Golden determinism test: a committed checksum of (final cycles, retired
// instructions, fence idle cycles) for every Table IV kernel at Quick
// scale — on the Table III default machine, a depth-3 hierarchy, and the
// default machine with in-window speculation (the Fig 13 T+/S+ paths:
// loads past unretired fences and their snoop-replay squashes) — plus
// (cycles, outcome) for every litmus test on its default configuration.
// The simulator is fully deterministic, so these numbers must never move
// unless the timing model itself is deliberately changed — any accidental
// perturbation (a reordered scan, a broken fast-forward credit, an
// off-by-one in a latency) fails loudly here. This is the regression net
// the differential fuzzer inherits: a fuzz-found fix that perturbs timing
// shows up here, not just in the fuzzer's own pass/fail.
//
// Regenerate after an intentional timing change with:
//
//	go test -run TestGoldenDeterminism -update-golden
package sfence_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sfence"
	"sfence/internal/isa"
	"sfence/internal/litmus"
	"sfence/internal/machine"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_quick.json from the current simulator")

// goldenRecord is one kernel configuration's determinism checksum.
type goldenRecord struct {
	Cycles     int64  `json:"cycles"`
	Committed  uint64 `json:"committed"`
	FenceIdle  uint64 `json:"fenceIdleCycles"`
	CoreCycles uint64 `json:"coreCycles"`
}

// litmusRecord pins one litmus test's timing and observed outcome on its
// default machine configuration.
type litmusRecord struct {
	Cycles  int64    `json:"cycles"`
	Outcome [4]int64 `json:"outcome"`
}

// goldenFile is the committed golden schema: per-kernel records keyed
// bench -> mode (default machine), bench -> mode@depth3 (three-level
// hierarchy) and bench -> mode+spec (in-window speculation), plus
// per-litmus-test records keyed by test name.
type goldenFile struct {
	Kernels map[string]map[string]goldenRecord `json:"kernels"`
	Litmus  map[string]litmusRecord            `json:"litmus"`
}

const goldenPath = "testdata/golden_quick.json"

func goldenCases() map[string]sfence.BenchmarkOptions {
	ops := map[string]int{
		"dekker": 25, "wsq": 50, "msn": 32, "harris": 40,
		"pst": 160, "ptc": 64, "barnes": 16, "radiosity": 16,
		"nested-scope": 40, "fence-drain": 60,
	}
	cases := map[string]sfence.BenchmarkOptions{}
	for bench, n := range ops {
		for _, mode := range []sfence.FenceMode{sfence.Traditional, sfence.Scoped} {
			key := fmt.Sprintf("%s/%s", bench, mode)
			cases[key] = sfence.BenchmarkOptions{Mode: mode, Ops: n, Workload: 2}
		}
	}
	return cases
}

// goldenLitmusTests returns the litmus set the golden file pins, in a
// deterministic construction.
func goldenLitmusTests() []*litmus.Test {
	return []*litmus.Test{
		litmus.StoreBuffering(false, isa.ScopeGlobal),
		litmus.StoreBuffering(true, isa.ScopeGlobal),
		litmus.StoreBuffering(true, isa.ScopeSet),
		litmus.MessagePassing(false),
		litmus.MessagePassing(true),
		litmus.LoadBuffering(),
		litmus.IRIW(),
		litmus.ClassScopedSB(),
		litmus.ScopedSBLeaky(),
		litmus.SBWithStoreStoreFence(),
		litmus.MessagePassingSS(isa.ScopeGlobal),
		litmus.MessagePassingSS(isa.ScopeClass),
		litmus.CASIncrement(4, 16),
		litmus.CoWW(),
		litmus.MessagePassingFiner(),
	}
}

func measureGolden(t *testing.T) goldenFile {
	t.Helper()
	out := goldenFile{
		Kernels: map[string]map[string]goldenRecord{},
		Litmus:  map[string]litmusRecord{},
	}
	configs := map[string]sfence.Config{
		"":        sfence.DefaultConfig(),
		"@depth3": func() sfence.Config { c := sfence.DefaultConfig(); c.Mem = sfence.DepthMemConfig(3); return c }(),
		"+spec":   func() sfence.Config { c := sfence.DefaultConfig(); c.Core.InWindowSpec = true; return c }(),
	}
	for key, opts := range goldenCases() {
		bench := key[:len(key)-len("/"+opts.Mode.String())]
		for suffix, cfg := range configs {
			res, err := sfence.RunBenchmark(bench, opts, cfg)
			if err != nil {
				t.Fatalf("%s%s: %v", key, suffix, err)
			}
			if out.Kernels[bench] == nil {
				out.Kernels[bench] = map[string]goldenRecord{}
			}
			out.Kernels[bench][opts.Mode.String()+suffix] = goldenRecord{
				Cycles:     res.Cycles,
				Committed:  res.Stats.Committed,
				FenceIdle:  res.FenceStall,
				CoreCycles: res.CoreCycles,
			}
		}
	}
	for _, lt := range goldenLitmusTests() {
		cfg := litmus.DefaultMachineConfig()
		m, err := machine.New(cfg, lt.Program, lt.Threads)
		if err != nil {
			t.Fatalf("litmus %s: %v", lt.Name, err)
		}
		cycles, err := m.Run(nil)
		if err != nil {
			t.Fatalf("litmus %s: %v", lt.Name, err)
		}
		var o litmus.Outcome
		o.R[0] = m.Image().Load(litmus.AddrR1)
		o.R[1] = m.Image().Load(litmus.AddrR2)
		o.R[2] = m.Image().Load(litmus.AddrR3)
		o.R[3] = m.Image().Load(litmus.AddrR4)
		// Golden pins timing and the observed outcome; whether an outcome
		// is *allowed* is the litmus suite's job (the fence-less variants
		// here exist precisely to exhibit the relaxed outcome).
		out.Litmus[lt.Name] = litmusRecord{Cycles: cycles, Outcome: o.R}
	}
	return out
}

func TestGoldenDeterminism(t *testing.T) {
	got := measureGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}

	var benches []string
	for b := range want.Kernels {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	for _, bench := range benches {
		for mode, w := range want.Kernels[bench] {
			g, ok := got.Kernels[bench][mode]
			if !ok {
				t.Errorf("%s/%s: in golden file but not measured", bench, mode)
				continue
			}
			if g != w {
				t.Errorf("%s/%s: timing perturbed:\n  golden   %+v\n  measured %+v\n(if this change is intentional, regenerate with -update-golden)", bench, mode, w, g)
			}
		}
	}
	for name, w := range want.Litmus {
		g, ok := got.Litmus[name]
		if !ok {
			t.Errorf("litmus %s: in golden file but not measured", name)
			continue
		}
		if g != w {
			t.Errorf("litmus %s: perturbed:\n  golden   %+v\n  measured %+v\n(if this change is intentional, regenerate with -update-golden)", name, w, g)
		}
	}
	// Both directions: a case added to the measurement set without
	// regenerating the file must fail as unpinned, not pass silently.
	for bench, modes := range got.Kernels {
		for mode := range modes {
			if _, ok := want.Kernels[bench][mode]; !ok {
				t.Errorf("%s/%s: measured but missing from golden file (regenerate with -update-golden)", bench, mode)
			}
		}
	}
	for name := range got.Litmus {
		if _, ok := want.Litmus[name]; !ok {
			t.Errorf("litmus %s: measured but missing from golden file (regenerate with -update-golden)", name)
		}
	}
}
