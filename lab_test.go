// Tests of the Lab session API: per-session isolation (two Labs running
// full suites concurrently), cancellation (a cancelled context aborts
// simulations mid-cycle-loop and produces no artifacts), and the typed
// unknown-experiment error.
package sfence_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sfence"
	"sfence/internal/results"
)

// TestTwoLabsConcurrentSuites runs the full Quick suite in two Labs with
// distinct caches at the same time — the ROADMAP's two-independent-
// callers scenario. Nothing is shared between the sessions, so the run
// must be race-free (CI executes this under -race) and both suites must
// produce byte-identical artifacts.
func TestTwoLabsConcurrentSuites(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	type outcome struct {
		arts []sfence.ResultArtifact
		md   string
		err  error
	}
	run := func() outcome {
		lab := sfence.NewLab(
			sfence.WithScale(sfence.Quick),
			sfence.WithCache(sfence.NewMemCache()),
			sfence.WithProgress(func(string, int, int) {}), // exercise the sink concurrently
		)
		suite, err := lab.RunSuite(context.Background())
		if err != nil {
			return outcome{err: err}
		}
		arts, err := suite.Artifacts()
		if err != nil {
			return outcome{err: err}
		}
		return outcome{arts: arts, md: suite.ExperimentsMD()}
	}

	var wg sync.WaitGroup
	results := make([]outcome, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = run()
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("lab %d: %v", i, r.err)
		}
	}
	a, b := results[0], results[1]
	if len(a.arts) != len(b.arts) {
		t.Fatalf("artifact counts differ: %d vs %d", len(a.arts), len(b.arts))
	}
	for i := range a.arts {
		if a.arts[i].Name != b.arts[i].Name || !bytes.Equal(a.arts[i].Data, b.arts[i].Data) {
			t.Errorf("artifact %s differs between concurrent labs", a.arts[i].Name)
		}
	}
	if a.md != b.md {
		t.Error("EXPERIMENTS.md differs between concurrent labs")
	}
}

// TestTwoLabsSharedCacheConcurrent runs one experiment in two Labs that
// share a cache: coalescing must keep the results identical and simulate
// each distinct configuration at most once across both sessions.
func TestTwoLabsSharedCacheConcurrent(t *testing.T) {
	cache := sfence.NewMemCache()
	newLab := func() *sfence.Lab {
		return sfence.NewLab(sfence.WithScale(sfence.Quick), sfence.WithCache(cache))
	}
	var wg sync.WaitGroup
	payloads := make([]any, 2)
	errs := make([]error, 2)
	for i := range payloads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := newLab().Run(context.Background(), "fig12")
			if err != nil {
				errs[i] = err
				return
			}
			payloads[i] = res.Data
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("lab %d: %v", i, err)
		}
	}
	a := payloads[0].([]sfence.SpeedupSeries)
	b := payloads[1].([]sfence.SpeedupSeries)
	if len(a) != len(b) {
		t.Fatalf("series counts differ: %d vs %d", len(a), len(b))
	}
	st := cache.Stats()
	// Figure 12 at quick scale requests 48 simulations; two labs ask for
	// 96, but the shared cache must simulate each distinct configuration
	// exactly once.
	if st.Misses != 48 {
		t.Errorf("shared cache simulated %d configs, want 48", st.Misses)
	}
	if st.Hits != 48 {
		t.Errorf("shared cache served %d hits, want 48", st.Hits)
	}
}

// TestLabRunCancelledProducesNothing cancels a suite run shortly after it
// starts: RunSuite must return the context error (no partial Suite), so
// no artifact can be written — the output directory stays empty.
func TestLabRunCancelledProducesNothing(t *testing.T) {
	lab := sfence.NewLab(sfence.WithScale(sfence.Quick))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	suite, err := lab.RunSuite(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSuite returned %v, want context.Canceled", err)
	}
	if suite != nil {
		t.Fatal("cancelled RunSuite returned a partial suite")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	// The report flow only writes after a successful run; with no suite
	// there is nothing to write.
	dir := t.TempDir()
	if err == nil {
		t.Fatal("unreachable")
	}
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(entries) != 0 {
		t.Errorf("output directory not empty after cancelled run: %v", entries)
	}
}

// TestLabRunFigDepthCancelMidRun cancels the "fig-depth" experiment —
// the depth 2/3/4 hierarchy sweep, so depth-3 simulations are in flight —
// from its own progress callback, i.e. genuinely mid-run. Run must return
// the context error with no result (hence nothing to write as an
// artifact), and the same Lab must afterwards complete the experiment
// cleanly: cancellation may not poison the session.
func TestLabRunFigDepthCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	dir := t.TempDir()
	lab := sfence.NewLab(
		sfence.WithScale(sfence.Quick),
		sfence.WithProgress(func(exp string, done, total int) {
			// First completed simulation of the sweep: cancel with the
			// rest still pending.
			once.Do(cancel)
		}),
	)
	res, err := lab.Run(ctx, "fig-depth")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled Run returned a partial result")
	}
	// No result means no artifact was encoded or written anywhere.
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(entries) != 0 {
		t.Errorf("artifact directory not empty after cancelled run: %v", entries)
	}
	// The session survives: a fresh context on the same Lab runs the
	// experiment to completion and yields an encodable artifact.
	res2, err := lab.Run(context.Background(), "fig-depth")
	if err != nil {
		t.Fatalf("rerun after cancellation: %v", err)
	}
	if _, err := res2.JSON(); err != nil {
		t.Fatalf("rerun artifact failed to encode: %v", err)
	}
}

// TestLabRunUnknownExperiment asserts the typed error path: an unknown ID
// returns an *ErrUnknownExperiment that names every valid ID.
func TestLabRunUnknownExperiment(t *testing.T) {
	lab := sfence.NewLab(sfence.WithScale(sfence.Quick))
	_, err := lab.Run(context.Background(), "fig99")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var unknown *sfence.ErrUnknownExperiment
	if !errors.As(err, &unknown) {
		t.Fatalf("error is %T, want *ErrUnknownExperiment", err)
	}
	if unknown.ID != "fig99" {
		t.Errorf("error carries ID %q", unknown.ID)
	}
	if len(unknown.Valid) != len(sfence.ExperimentIDs()) {
		t.Errorf("error lists %d IDs, registry has %d", len(unknown.Valid), len(sfence.ExperimentIDs()))
	}
	for _, want := range []string{"fig12", "table4", "ablation/fsb-entries", "stats"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error message does not name %q: %v", want, err)
		}
	}
}

// TestExperimentRegistryComplete pins the registry contents: every
// figure, every ablation, the tables, the cost model, and stats, each
// self-describing (runnable, encodable, renderable).
func TestExperimentRegistryComplete(t *testing.T) {
	specs := sfence.Experiments()
	byID := map[string]sfence.ExperimentSpec{}
	for _, s := range specs {
		if s.Run == nil || s.JSON == nil || s.Render == nil {
			t.Errorf("%s: spec not self-describing", s.ID)
		}
		byID[s.ID] = s
	}
	want := []string{
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig-depth",
		"fig-cores", "fig-heatmap", "fig-inferred",
		"ablation/fsb-entries", "ablation/fss-depth", "ablation/store-buffer",
		"ablation/fifo-store-buffer", "ablation/finer-fences",
		"ablation/nested-scopes", "ablation/fss-recovery",
		"table3", "table4", "hwcost", "stats",
	}
	if len(specs) != len(want) {
		t.Errorf("registry has %d specs, want %d", len(specs), len(want))
	}
	for _, id := range want {
		if _, ok := byID[id]; !ok {
			t.Errorf("registry missing %s", id)
		}
	}
	if byID["stats"].InSuite() {
		t.Error("stats must be excluded from the deterministic suite (it is a drill-down artifact, not a paper figure)")
	}
	if !byID["fig12"].InSuite() || byID["fig12"].Artifact != "BENCH_FIG12.json" {
		t.Errorf("fig12 spec malformed: %+v", byID["fig12"])
	}
	if !byID["fig-depth"].InSuite() || byID["fig-depth"].Artifact != "BENCH_DEPTH.json" {
		t.Errorf("fig-depth spec malformed: %+v", byID["fig-depth"])
	}
	if !byID["fig-cores"].InSuite() || byID["fig-cores"].Artifact != "BENCH_CORES.json" {
		t.Errorf("fig-cores spec malformed: %+v", byID["fig-cores"])
	}
	if !byID["fig-heatmap"].InSuite() || byID["fig-heatmap"].Artifact != "BENCH_HEATMAP.json" {
		t.Errorf("fig-heatmap spec malformed: %+v", byID["fig-heatmap"])
	}
}

// TestLabRunArtifactEncoding runs a no-simulation experiment end to end
// through Lab.Run and checks the self-describing encoder and renderer.
func TestLabRunArtifactEncoding(t *testing.T) {
	lab := sfence.NewLab(sfence.WithScale(sfence.Quick))
	res, err := lab.Run(context.Background(), "hwcost")
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.HardwareCostJSON(sfence.HardwareCost(sfence.DefaultConfig().Core), sfence.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Error("Lab.Run JSON differs from the direct encoder")
	}
	if out := res.Render(); !strings.Contains(out, "bytes") {
		t.Errorf("render missing content: %q", out)
	}
}
