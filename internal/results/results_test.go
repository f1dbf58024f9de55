package results

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
)

func roundTrip[T any](t *testing.T, kind string, data T) {
	t.Helper()
	env := NewEnvelope(kind, "title: "+kind, exp.Quick, data)
	raw, err := Marshal(env)
	if err != nil {
		t.Fatalf("%s: marshal: %v", kind, err)
	}
	back, err := Unmarshal[T](raw)
	if err != nil {
		t.Fatalf("%s: unmarshal: %v", kind, err)
	}
	if !reflect.DeepEqual(env, back) {
		t.Errorf("%s: round trip diverged:\n got %+v\nwant %+v", kind, back, env)
	}
	raw2, err := Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Errorf("%s: re-marshal not byte-identical", kind)
	}
}

// Every envelope payload type must survive a JSON round trip exactly.
func TestEnvelopeRoundTrips(t *testing.T) {
	roundTrip(t, KindFigure12, []exp.SpeedupSeries{
		{Bench: "dekker", Workload: []int{1, 2}, Speedup: []float64{1.1, 1.25}},
	})
	roundTrip(t, KindFigure13, []exp.BenchGroup{
		{Bench: "pst", Bars: []exp.Bar{{Label: "T", FenceStall: 0.2, Others: 0.8}}},
	})
	roundTrip(t, KindAblations, []AblationSet{
		{Name: "fsb-entries", Title: "FSB entry count", Rows: []exp.AblationRow{
			{Bench: "wsq", Param: "FSBEntries", Value: 4, Cycles: 1234, Stall: 0.125},
		}},
	})
	roundTrip(t, KindTableIII, exp.TableIII(machine.DefaultConfig()))
	roundTrip(t, KindTableIV, TableIVInfos())
	roundTrip(t, KindHardwareCost, exp.HardwareCost(machine.DefaultConfig().Core))
}

func TestUnmarshalRejectsForeignSchema(t *testing.T) {
	env := NewEnvelope(KindFigure12, "t", exp.Quick, []exp.SpeedupSeries{})
	env.Schema = SchemaVersion + 1
	raw, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal[[]exp.SpeedupSeries](raw); err == nil {
		t.Error("foreign schema version accepted")
	}
}

// A kernels.Result (the cached value) must survive the disk format
// exactly, so cached and uncached runs are indistinguishable.
func TestRunRecordRoundTrip(t *testing.T) {
	opts := kernels.Options{Mode: kernels.Scoped, Threads: 2, Ops: 5, Workload: 1}
	cfg := machine.DefaultConfig()
	res, err := exp.DirectRun(context.Background(), "dekker", opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := NewRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("dekker", opts, cfg)
	if err := c.storeDisk(key, "dekker", opts, cfg, res); err != nil {
		t.Fatal(err)
	}
	back, ok := c.loadDisk(key, "dekker")
	if !ok {
		t.Fatal("stored record not loadable")
	}
	if !reflect.DeepEqual(res, back) {
		t.Errorf("run record diverged:\n got %+v\nwant %+v", back, res)
	}
}

func TestKeyIsContentAddressed(t *testing.T) {
	opts := kernels.Options{Mode: kernels.Scoped, Threads: 2, Ops: 5}
	cfg := machine.DefaultConfig()
	k1 := Key("dekker", opts, cfg)
	if k2 := Key("dekker", opts, cfg); k2 != k1 {
		t.Error("identical inputs hashed differently")
	}
	if k2 := Key("wsq", opts, cfg); k2 == k1 {
		t.Error("different benchmark, same key")
	}
	opts2 := opts
	opts2.Ops = 6
	if k2 := Key("dekker", opts2, cfg); k2 == k1 {
		t.Error("different options, same key")
	}
	cfg2 := cfg
	cfg2.Core.FSBEntries = 8
	if k2 := Key("dekker", opts, cfg2); k2 == k1 {
		t.Error("different config, same key")
	}
}

// The memory tier must serve repeats without re-simulating, and the
// cached result must be identical to the fresh one.
func TestMemCacheHit(t *testing.T) {
	c := NewMemCache()
	opts := kernels.Options{Mode: kernels.Traditional, Threads: 2, Ops: 5, Workload: 1}
	cfg := machine.DefaultConfig()
	first, err := c.Run(context.Background(), "dekker", opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Run(context.Background(), "dekker", opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached result differs from fresh result")
	}
	st := c.Stats()
	if st.Misses != 1 || st.MemHits != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want 1 miss + 1 memory hit", st)
	}
}

// A second cache instance over the same directory must serve from disk
// with zero simulations, byte-identically.
func TestDiskCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	opts := kernels.Options{Mode: kernels.Scoped, Threads: 2, Ops: 5, Workload: 1}
	cfg := machine.DefaultConfig()

	cold, err := NewRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := cold.Run(context.Background(), "dekker", opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Misses != 1 {
		t.Fatalf("cold stats = %+v, want 1 miss", st)
	}

	warm, err := NewRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := warm.Run(context.Background(), "dekker", opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Misses != 0 || st.DiskHits != 1 {
		t.Errorf("warm stats = %+v, want 0 misses + 1 disk hit", st)
	}
	b1, err := Marshal(res1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Marshal(res2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("warm-cache result not byte-identical to cold run")
	}

	// Corrupt the record: the cache must fall back to simulating.
	files, err := filepath.Glob(filepath.Join(dir, "run_*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("glob: %v, files=%v", err, files)
	}
	if err := os.WriteFile(files[0], []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	repaired, err := NewRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := repaired.Run(context.Background(), "dekker", opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := repaired.Stats(); st.Misses != 1 {
		t.Errorf("corrupt record not treated as miss: %+v", st)
	}
	if !reflect.DeepEqual(res1, res3) {
		t.Error("re-simulated result diverged")
	}
}

// A failed simulation is never cached, in memory or on disk, even when
// the runner returns the failed run's populated Result next to the error
// (as a failed kernel Verify does): the next request simulates again.
func TestCacheNeverStoresFailedRun(t *testing.T) {
	c, err := NewRunCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	errVerify := errors.New("verification failed")
	calls := 0
	run := c.Runner(func(context.Context, string, kernels.Options, machine.Config) (kernels.Result, error) {
		calls++
		return kernels.Result{Cycles: 1234}, errVerify
	})
	opts := kernels.Options{Mode: kernels.Traditional, Threads: 2, Ops: 5, Workload: 1}
	for i := 0; i < 2; i++ {
		if _, err := run(context.Background(), "dekker", opts, machine.DefaultConfig()); !errors.Is(err, errVerify) {
			t.Fatalf("run %d: error %v, want %v", i, err, errVerify)
		}
	}
	if calls != 2 {
		t.Errorf("runner called %d times, want 2 (a failed run must not be served from the cache)", calls)
	}
	if files, _ := filepath.Glob(filepath.Join(c.dir, "run_*.json")); len(files) != 0 {
		t.Errorf("failed run persisted: %v", files)
	}
}

// The cache must dedupe concurrent requests for one key: exactly one
// simulation, everyone gets the same result.
func TestCacheCoalescesConcurrentRequests(t *testing.T) {
	c := NewMemCache()
	opts := kernels.Options{Mode: kernels.Scoped, Threads: 2, Ops: 5, Workload: 1}
	cfg := machine.DefaultConfig()
	const n = 8
	resCh := make(chan kernels.Result, n)
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := c.Run(context.Background(), "dekker", opts, cfg)
			resCh <- res
			errCh <- err
		}()
	}
	var first kernels.Result
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		res := <-resCh
		if i == 0 {
			first = res
			continue
		}
		if !reflect.DeepEqual(first, res) {
			t.Error("coalesced results diverged")
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("%d simulations for one key, want 1", st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d", st.Hits, n-1)
	}
}

// A session with the cache's Run installed as its runner must memoize
// every simulation of an experiment (what RunCache.Install did before
// sessions owned their runner).
func TestCacheAsSessionRunner(t *testing.T) {
	c := NewMemCache()
	s := exp.NewSession(c.Run, nil, 0)
	series, err := s.Figure12(context.Background(), exp.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	st := c.Stats()
	if st.Misses == 0 {
		t.Error("session cache saw no simulations")
	}
	// Re-running the same figure must be fully served from memory.
	if _, err := s.Figure12(context.Background(), exp.Quick); err != nil {
		t.Fatal(err)
	}
	st2 := c.Stats()
	if st2.Misses != st.Misses {
		t.Errorf("repeat run simulated %d new configs, want 0", st2.Misses-st.Misses)
	}
}

// End-to-end acceptance: a full suite against a cold disk cache, then a
// second suite against the warm cache, must produce byte-identical
// artifacts and EXPERIMENTS.md with zero duplicate simulations.
func TestSuiteWarmCacheDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	dir := t.TempDir()
	run := func() (*Suite, []Artifact, string) {
		cache, err := NewRunCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := RunSuite(context.Background(), SuiteOptions{Scale: exp.Quick, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		arts, err := suite.Artifacts()
		if err != nil {
			t.Fatal(err)
		}
		return suite, arts, suite.ExperimentsMD()
	}

	cold, coldArts, coldMD := run()
	if cold.CacheStats == nil || cold.CacheStats.Misses == 0 {
		t.Fatal("cold suite ran no simulations")
	}
	// Overlapping baselines (Figures 13/15/16 share the Table III T/S
	// runs) must already be deduplicated within the cold run.
	if cold.CacheStats.Hits == 0 {
		t.Error("cold suite found no overlapping configurations to dedupe")
	}

	warm, warmArts, warmMD := run()
	if warm.CacheStats.Misses != 0 {
		t.Errorf("warm suite simulated %d configs, want 0", warm.CacheStats.Misses)
	}
	if len(coldArts) != len(warmArts) {
		t.Fatalf("artifact counts differ: %d vs %d", len(coldArts), len(warmArts))
	}
	for i := range coldArts {
		if coldArts[i].Name != warmArts[i].Name || !bytes.Equal(coldArts[i].Data, warmArts[i].Data) {
			t.Errorf("artifact %s not byte-identical across cache tiers", coldArts[i].Name)
		}
	}
	if coldMD != warmMD {
		t.Error("EXPERIMENTS.md not byte-identical across cache tiers")
	}

	// The suite holds one result per InSuite registry experiment, in
	// registry order, and every artifact but the combined ablations file
	// is its result's own envelope.
	var want, got []string
	for _, spec := range Experiments() {
		if spec.InSuite() {
			want = append(want, spec.ID)
		}
	}
	byArtifact := map[string]*ExperimentResult{}
	for i := range cold.Results {
		r := &cold.Results[i]
		got = append(got, r.Spec.ID)
		byArtifact[r.Spec.Artifact] = r
	}
	if !slices.Equal(got, want) {
		t.Errorf("suite result IDs %v, want the InSuite registry IDs %v", got, want)
	}
	for _, a := range coldArts {
		if a.Name == "BENCH_ABLATIONS.json" {
			continue
		}
		r, ok := byArtifact[a.Name]
		if !ok {
			t.Errorf("artifact %s has no suite result", a.Name)
			continue
		}
		data, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Data, data) {
			t.Errorf("artifact %s differs from %s's JSON()", a.Name, r.Spec.ID)
		}
	}
	for _, c := range Claims() {
		if _, ok := c.Check(cold); !ok {
			t.Errorf("claim not reproduced at quick scale: %s", c.Text)
		}
	}
}
