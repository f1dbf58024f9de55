package kernels

import (
	"context"
	"runtime"
	"testing"

	"sfence/internal/machine"
	"sfence/internal/memsys"
)

// posRegion returns the position table's address and words in k.
func posRegion(t testing.TB, k *Kernel) (addr, words int64) {
	t.Helper()
	for _, r := range k.Regions {
		if r.Name == "pos" {
			return r.Base, r.Words
		}
	}
	t.Fatalf("%s declares no pos region", k.Name)
	return 0, 0
}

func mustBuild(t testing.TB, bench string, opts Options) *Kernel {
	t.Helper()
	k, err := Build(bench, opts)
	if err != nil {
		t.Fatalf("%s build: %v", bench, err)
	}
	return k
}

// TestPositionTableBuiltOncePerKey builds barnes twice, in T and S with
// different seeds: both must share one base, and loading either must not
// add a table.
func TestPositionTableBuiltOncePerKey(t *testing.T) {
	size := machine.DefaultConfig().ImageSize
	kt := mustBuild(t, "barnes", Options{Mode: Traditional, Seed: 1, Ops: 10, Threads: 4})
	ks := mustBuild(t, "barnes", Options{Mode: Scoped, Seed: 2, Ops: 10, Threads: 4})
	at, wt := posRegion(t, kt)
	as, ws := posRegion(t, ks)
	base := posTable(size, at, wt)
	if posTable(size, as, ws) != base {
		t.Fatal("barnes T and S builds got different position tables")
	}
	posTables.Lock()
	n := len(posTables.m)
	posTables.Unlock()
	for _, k := range []*Kernel{kt, ks} {
		img := memsys.NewImage(size)
		k.LoadImage(img)
		if addr, differ := img.FirstDiff(base); differ {
			t.Fatalf("%s: a loaded image differs from the shared table at %d", k.Name, addr)
		}
	}
	posTables.Lock()
	defer posTables.Unlock()
	if len(posTables.m) != n {
		t.Fatalf("loading barnes added %d position tables", len(posTables.m)-n)
	}
}

// TestPositionTablesUnwrittenByRuns runs barnes and radiosity in T and S
// and then compares each shared table with a freshly built one.
func TestPositionTablesUnwrittenByRuns(t *testing.T) {
	cfg := machine.DefaultConfig()
	for _, bench := range []string{"barnes", "radiosity"} {
		var addr, words int64
		for _, mode := range []FenceMode{Traditional, Scoped} {
			opts := smallOpts(bench)
			opts.Mode = mode
			k := mustBuild(t, bench, opts)
			addr, words = posRegion(t, k)
			if _, err := Run(context.Background(), k, cfg); err != nil {
				t.Fatalf("%s/%v: %v", bench, mode, err)
			}
		}
		fresh := memsys.NewImage(cfg.ImageSize)
		for i := range words {
			fresh.Store(addr+i*8, posVal(i))
		}
		if at, differ := posTable(cfg.ImageSize, addr, words).FirstDiff(fresh); differ {
			t.Fatalf("%s: a run wrote the shared position table at %d", bench, at)
		}
	}
}

// TestWarmLoadImageAllocates bounds what loading barnes into a fresh
// image allocates once its table is built: the shared pages, not a
// 2 MiB copy.
func TestWarmLoadImageAllocates(t *testing.T) {
	const loads, limit = 8, 64 << 10
	k := mustBuild(t, "barnes", smallOpts("barnes"))
	size := machine.DefaultConfig().ImageSize
	k.LoadImage(memsys.NewImage(size)) // builds the table if still missing
	imgs := make([]*memsys.Image, loads)
	for i := range imgs {
		imgs[i] = memsys.NewImage(size)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, img := range imgs {
		k.LoadImage(img)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / loads; per > limit {
		t.Fatalf("a warm barnes LoadImage allocated %d bytes, want at most %d", per, limit)
	}
}

// BenchmarkLoadImage times loading barnes's and radiosity's initial data
// into a fresh default-size image once their tables are built.
func BenchmarkLoadImage(b *testing.B) {
	size := machine.DefaultConfig().ImageSize
	for _, bench := range []string{"barnes", "radiosity"} {
		b.Run(bench, func(b *testing.B) {
			k := mustBuild(b, bench, smallOpts(bench))
			k.LoadImage(memsys.NewImage(size))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				img := memsys.NewImage(size)
				b.StartTimer()
				k.LoadImage(img)
			}
		})
	}
}
