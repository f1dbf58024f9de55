package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sfence"
	"sfence/internal/exp"
	"sfence/internal/results"
	"sfence/internal/serve"
)

// stressIDs is the per-tenant job mix: two real simulation sweeps whose
// configurations overlap (both run wsq), plus two registry-only rows, so
// the shared cache sees concurrent misses, coalesced duplicates, and
// pure-metadata jobs at once.
var stressIDs = []string{simExperiment, "ablation/fsb-entries", "table4", "hwcost"}

// expectedEnvelopes computes the ground-truth artifact bytes for ids with
// a direct, private-cache lab run.
func expectedEnvelopes(t *testing.T, ids []string) map[string][]byte {
	t.Helper()
	cache, err := sfence.NewRunCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lab := sfence.NewLab(sfence.WithScale(sfence.Quick), sfence.WithCache(cache))
	want := make(map[string][]byte, len(ids))
	for _, id := range ids {
		res, err := lab.Run(context.Background(), id)
		if err != nil {
			t.Fatalf("direct lab.Run(%s): %v", id, err)
		}
		want[id], err = res.JSON()
		if err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// settleGoroutines polls until the goroutine count drops back to within
// slack of the baseline, failing with a full stack dump if it never does
// (a leaked worker, watcher, or filler).
func settleGoroutines(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines never settled: %d, baseline %d (+%d slack)\n%s",
				runtime.NumGoroutine(), baseline, slack, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkNoPartialArtifacts walks the cache directory and fails on any
// leftover temp file or syntactically invalid record: whatever the
// tenants, disconnects, and evictions did, every surviving disk record
// must be a complete, parseable artifact.
func checkNoPartialArtifacts(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			t.Errorf("partial artifact left behind: %s", name)
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("read %s: %v", name, err)
			continue
		}
		if !json.Valid(data) {
			t.Errorf("cache record %s is not valid JSON (%d bytes)", name, len(data))
		}
	}
}

// TestServeMultiTenantStress runs overlapping jobs from several tenants
// against one server with a deliberately tiny shared cache budget, with
// mid-stream disconnects thrown in, and checks the three invariants that
// make the service safe to share: every completed envelope is
// byte-identical to a direct run, the cache directory holds no partial
// artifacts, and no goroutines leak once the server is closed. Run it
// under -race: the point is the interleavings, not the results.
func TestServeMultiTenantStress(t *testing.T) {
	want := expectedEnvelopes(t, stressIDs)

	baseline := runtime.NumGoroutine()
	cacheDir := t.TempDir()
	// 512 bytes cannot hold the job mix's records, so the LRU evicts
	// continuously while coalesced loads are in flight.
	cache, err := sfence.NewRunCacheLimited(cacheDir, 512)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Options{
		Cache: cache, Scale: exp.Quick, Workers: 4, QueueDepth: 256,
	})
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	httpClient := &http.Client{Transport: tr}

	const tenants = 5
	var wg sync.WaitGroup
	errCh := make(chan error, tenants*8)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			client := &serve.Client{BaseURL: hs.URL, HTTP: httpClient, Tenant: fmt.Sprintf("t%d", tenant)}
			ctx := context.Background()

			// The full mix, each result checked against ground truth.
			for _, id := range stressIDs {
				got, err := client.Run(ctx, serve.JobRequest{Experiment: id}, nil)
				if err != nil {
					errCh <- fmt.Errorf("tenant %d %s: %w", tenant, id, err)
					return
				}
				if string(got) != string(want[id]) {
					errCh <- fmt.Errorf("tenant %d %s: served envelope differs from direct run", tenant, id)
				}
			}

			// A mid-stream disconnect on a job that must survive it:
			// drop the stream after the first event, then fetch the
			// result anyway.
			st, err := client.Submit(ctx, serve.JobRequest{Experiment: simExperiment})
			if err != nil {
				errCh <- fmt.Errorf("tenant %d disconnect submit: %w", tenant, err)
				return
			}
			streamCtx, drop := context.WithCancel(ctx)
			_ = client.Events(streamCtx, st.ID, func(serve.Event) error {
				drop() // disconnect mid-stream
				return nil
			})
			drop()
			deadline := time.Now().Add(30 * time.Second)
			for {
				js, err := client.Status(ctx, st.ID)
				if err != nil {
					errCh <- fmt.Errorf("tenant %d disconnect status: %w", tenant, err)
					return
				}
				if js.State == serve.StateDone {
					break
				}
				if js.State == serve.StateFailed || js.State == serve.StateCanceled {
					errCh <- fmt.Errorf("tenant %d: disconnected job ended %s (%s), want done", tenant, js.State, js.Error)
					return
				}
				if time.Now().After(deadline) {
					errCh <- fmt.Errorf("tenant %d: disconnected job stuck in %s", tenant, js.State)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			if got, err := client.Result(ctx, st.ID); err != nil {
				errCh <- fmt.Errorf("tenant %d result after disconnect: %w", tenant, err)
			} else if string(got) != string(want[simExperiment]) {
				errCh <- fmt.Errorf("tenant %d: envelope after disconnect differs from direct run", tenant)
			}

			// And one job that is supposed to die with its watcher.
			st, err = client.Submit(ctx, serve.JobRequest{Experiment: "ablation/fsb-entries", CancelOnDisconnect: true})
			if err != nil {
				errCh <- fmt.Errorf("tenant %d cancelable submit: %w", tenant, err)
				return
			}
			streamCtx, drop = context.WithCancel(ctx)
			_ = client.Events(streamCtx, st.ID, func(serve.Event) error {
				drop()
				return nil
			})
			drop()
			// Dropping the watcher may race normal completion; both
			// terminal outcomes are legal, hanging is not.
			for {
				js, err := client.Status(ctx, st.ID)
				if err != nil {
					errCh <- fmt.Errorf("tenant %d cancelable status: %w", tenant, err)
					return
				}
				if js.State == serve.StateDone || js.State == serve.StateCanceled {
					break
				}
				if js.State == serve.StateFailed {
					errCh <- fmt.Errorf("tenant %d: cancel-on-disconnect job failed: %s", tenant, js.Error)
					return
				}
				if time.Now().After(deadline) {
					errCh <- fmt.Errorf("tenant %d: cancel-on-disconnect job stuck in %s", tenant, js.State)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := cache.Stats()
	if st.Evictions == 0 {
		t.Errorf("a 512-byte budget produced no evictions: %+v", st)
	}
	if st.DiskBytes > 512 && st.DiskEntries > 1 {
		t.Errorf("disk tier settled over budget with multiple entries: %+v", st)
	}
	checkNoPartialArtifacts(t, cacheDir)

	srv.Close()
	hs.Close()
	tr.CloseIdleConnections()
	settleGoroutines(t, baseline, 3)
}

// TestServeCoalescingDedupe submits the same cold experiment from many
// tenants at once and checks the shared cache coalesced them: the number
// of simulations actually executed equals the experiment's distinct
// configurations (measured on a private warm-up run), and every tenant's
// envelope is byte-identical. A gate holds every simulation until every
// tenant's job is running, past its worker's envelope-memo lookup, so no
// job can finish and fill the memo first: every job reaches the cache.
func TestServeCoalescingDedupe(t *testing.T) {
	// Ground truth: how many distinct simulations does the experiment
	// need, and what are its artifact bytes?
	refCache, err := sfence.NewRunCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refLab := sfence.NewLab(sfence.WithScale(sfence.Quick), sfence.WithCache(refCache))
	refRes, err := refLab.Run(context.Background(), simExperiment)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refRes.JSON()
	if err != nil {
		t.Fatal(err)
	}
	distinct := refCache.Stats().Misses

	baseline := runtime.NumGoroutine()
	cache, err := sfence.NewRunCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	wrap, _ := gatedRunner(gate)
	srv := serve.NewServer(serve.Options{Cache: cache, Scale: exp.Quick, Workers: 8, QueueDepth: 64, WrapRunner: wrap})
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	httpClient := &http.Client{Transport: tr}

	const tenants = 8
	var submitted, wg sync.WaitGroup
	ids := make([]string, tenants)
	got := make([][]byte, tenants)
	errs := make([]error, tenants)
	for i := 0; i < tenants; i++ {
		submitted.Add(1)
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			client := &serve.Client{BaseURL: hs.URL, HTTP: httpClient, Tenant: fmt.Sprintf("t%d", n)}
			ctx := context.Background()
			st, err := client.Submit(ctx, serve.JobRequest{Experiment: simExperiment})
			ids[n] = st.ID
			submitted.Done()
			if err != nil {
				errs[n] = err
				return
			}
			if err := client.Events(ctx, st.ID, func(serve.Event) error { return nil }); err != nil {
				errs[n] = err
				return
			}
			got[n], errs[n] = client.Result(ctx, st.ID)
		}(i)
	}
	submitted.Wait()
	for _, id := range ids {
		if id != "" {
			waitState(t, &serve.Client{BaseURL: hs.URL, HTTP: httpClient}, id, serve.StateRunning)
		}
	}
	close(gate)
	wg.Wait()
	for i := 0; i < tenants; i++ {
		if errs[i] != nil {
			t.Fatalf("tenant %d: %v", i, errs[i])
		}
		if string(got[i]) != string(want) {
			t.Errorf("tenant %d: served envelope differs from direct run", i)
		}
	}

	st := cache.Stats()
	if st.Misses != distinct {
		t.Errorf("executed %d simulations for %d concurrent identical jobs, want %d (coalescing failed)", st.Misses, tenants, distinct)
	}
	if st.Hits == 0 {
		t.Error("no cache hits across coalesced tenants")
	}
	if n := stat(srv, "serve.envelopes.hits"); n != 0 {
		t.Errorf("serve.envelopes.hits = %d, want 0: a tenant skipped the cache", n)
	}

	srv.Close()
	hs.Close()
	tr.CloseIdleConnections()
	settleGoroutines(t, baseline, 3)
}

// TestServeTenantIsolation checks the tenant label is carried through
// job status untouched — jobs are shared-nothing apart from the cache.
func TestServeTenantIsolation(t *testing.T) {
	_, client := startServer(t, serve.Options{Scale: exp.Quick})
	a := &serve.Client{BaseURL: client.BaseURL, Tenant: "alice"}
	b := &serve.Client{BaseURL: client.BaseURL, Tenant: "bob"}
	ctx := context.Background()
	sa, err := a.Submit(ctx, serve.JobRequest{Experiment: "table4"})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Submit(ctx, serve.JobRequest{Experiment: "table3"})
	if err != nil {
		t.Fatal(err)
	}
	if sa.Tenant != "alice" || sb.Tenant != "bob" {
		t.Errorf("tenants %q/%q, want alice/bob", sa.Tenant, sb.Tenant)
	}
	waitState(t, a, sa.ID, serve.StateDone)
	waitState(t, b, sb.ID, serve.StateDone)

	specs := map[string]string{sa.ID: "table4", sb.ID: "table3"}
	for id, expID := range specs {
		data, err := a.Result(ctx, id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		var env struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		spec, err := results.LookupExperiment(expID)
		if err != nil {
			t.Fatal(err)
		}
		if env.Kind != spec.Kind {
			t.Errorf("job %s: envelope kind %q, want %q", id, env.Kind, spec.Kind)
		}
	}
}
