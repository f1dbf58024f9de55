package sfence_test

import (
	"context"
	"strings"
	"testing"

	"sfence"
)

// The public facade must be sufficient to write, run, and inspect a scoped
// program end to end.
func TestPublicAPIEndToEnd(t *testing.T) {
	b := sfence.NewBuilder()
	b.Entry("main")
	b.MovI(sfence.R1, 4096)
	b.MovI(sfence.R2, 5)
	b.FsStart(1)
	b.SetFlagged()
	b.Store(sfence.R1, 0, sfence.R2)
	b.Fence(sfence.ScopeClass)
	b.FenceOrdered(sfence.ScopeSet, sfence.OrderSS)
	b.Load(sfence.R3, sfence.R1, 0)
	b.FsEnd(1)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sfence.NewMachine(sfence.DefaultConfig(), prog, []sfence.Thread{{Entry: "main"}})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Error("no cycles elapsed")
	}
	if got := m.Core(0).Reg(sfence.R3); got != 5 {
		t.Errorf("r3 = %d, want 5", got)
	}
	if got := m.Image().Load(4096); got != 5 {
		t.Errorf("mem = %d, want 5", got)
	}
	if m.Core(0).Stats().CommittedFences != 2 {
		t.Errorf("fences = %d, want 2", m.Core(0).Stats().CommittedFences)
	}
}

func TestDefaultConfigIsTableIII(t *testing.T) {
	cfg := sfence.DefaultConfig()
	if cfg.Cores != 8 || cfg.Core.ROBSize != 128 || cfg.Mem.MemLatency != 300 ||
		cfg.Core.FSBEntries != 4 || cfg.Core.FSSEntries != 4 {
		t.Errorf("DefaultConfig diverges from Table III: %+v", cfg)
	}
}

func TestBenchmarksRegistryExposed(t *testing.T) {
	infos := sfence.Benchmarks()
	if len(infos) != 8 {
		t.Fatalf("got %d benchmarks, want 8", len(infos))
	}
	names := map[string]bool{}
	for _, info := range infos {
		names[info.Name] = true
	}
	for _, want := range []string{"dekker", "wsq", "msn", "harris", "barnes", "radiosity", "pst", "ptc"} {
		if !names[want] {
			t.Errorf("missing benchmark %s", want)
		}
	}
}

func TestRunBenchmarkThroughFacade(t *testing.T) {
	res, err := sfence.RunBenchmark(context.Background(), "wsq", sfence.BenchmarkOptions{
		Mode: sfence.Scoped, Threads: 4, Ops: 30, Workload: 1,
	}, sfence.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Stats.CommittedFences == 0 {
		t.Errorf("empty result: %+v", res)
	}
	if _, err := sfence.RunBenchmark(context.Background(), "bogus", sfence.BenchmarkOptions{}, sfence.DefaultConfig(), nil); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestHardwareCostExposed(t *testing.T) {
	rep := sfence.HardwareCost(sfence.DefaultConfig().Core)
	if !rep.PaperClaimOK {
		t.Errorf("cost %.1f bytes exceeds paper claim", rep.TotalBytes)
	}
}

func TestRendersExposed(t *testing.T) {
	if !strings.Contains(sfence.RenderTableIII(sfence.DefaultConfig()), "8 core CMP") {
		t.Error("Table III render broken")
	}
	if !strings.Contains(sfence.RenderTableIV(), "wsq") {
		t.Error("Table IV render broken")
	}
}

func TestBuildBenchmarkExposesVerifier(t *testing.T) {
	k, err := sfence.BuildBenchmark("dekker", sfence.BenchmarkOptions{Ops: 5, Workload: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k.Verify == nil || k.Program == nil || len(k.Threads) != 2 {
		t.Error("kernel incomplete")
	}
}
