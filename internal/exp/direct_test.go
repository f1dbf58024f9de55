package exp

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/stats"
)

// hardwareDigest renders every stat of s outside machine.clock.*.
func hardwareDigest(s stats.Snapshot) string {
	var b strings.Builder
	for _, smp := range s.Samples {
		if !strings.HasPrefix(smp.Name, "machine.clock.") {
			fmt.Fprintf(&b, "%s=%d/%g\n", smp.Name, smp.Value, smp.Float)
		}
	}
	return b.String()
}

// TestDirectRunSharedTablesConcurrently runs barnes and radiosity in T
// and S on 4 goroutines at once, all sharing each kernel's read-only
// position table: every run must match a serial run of its own. The
// concurrent runs go first, so they also race to build the tables, unless
// another test in the process has built them.
func TestDirectRunSharedTablesConcurrently(t *testing.T) {
	type job struct {
		bench string
		opts  kernels.Options
	}
	var jobs []job
	for _, bench := range []string{"barnes", "radiosity"} {
		for _, mode := range []kernels.FenceMode{kernels.Traditional, kernels.Scoped} {
			jobs = append(jobs, job{bench, kernels.Options{Mode: mode, Ops: 8, Threads: 4}})
		}
	}
	cfg := machine.DefaultConfig()
	ctx := context.Background()
	got := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := DirectRun(ctx, j.bench, j.opts, cfg)
			got[i], errs[i] = hardwareDigest(res.Snapshot), err
		}()
	}
	wg.Wait()
	want := make([]string, len(jobs))
	for i, j := range jobs {
		res, err := DirectRun(ctx, j.bench, j.opts, cfg)
		if err != nil {
			t.Fatalf("%s/%v serial: %v", j.bench, j.opts.Mode, err)
		}
		want[i] = hardwareDigest(res.Snapshot)
	}
	for i, j := range jobs {
		if errs[i] != nil {
			t.Errorf("%s/%v concurrent: %v", j.bench, j.opts.Mode, errs[i])
		} else if got[i] != want[i] {
			t.Errorf("%s/%v: the concurrent run's stats differ from the serial run's", j.bench, j.opts.Mode)
		}
	}
}
