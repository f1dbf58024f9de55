package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfence"
	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/results"
	"sfence/internal/serve"
	"sfence/internal/stats"
)

// simExperiment is the cheapest registry experiment that actually runs
// simulations (6 quick-scale runs), used wherever a test needs a job
// whose runner is really invoked.
const simExperiment = "ablation/fss-depth"

// startServer builds a Server over opts, fronts it with httptest, and
// returns a client pointed at it. Cleanup closes the server first (which
// cancels in-flight jobs and thereby unblocks any open event streams)
// and the listener second.
func startServer(t *testing.T, opts serve.Options) (*serve.Server, *serve.Client) {
	t.Helper()
	srv := serve.NewServer(opts)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		hs.Close()
	})
	return srv, &serve.Client{BaseURL: hs.URL}
}

// gatedRunner returns a WrapRunner whose simulations block until gate is
// closed (or the job's context is cancelled), plus a channel that receives
// one value when the first simulation has actually started.
func gatedRunner(gate <-chan struct{}) (func(exp.Runner) exp.Runner, <-chan struct{}) {
	started := make(chan struct{}, 1024)
	wrap := func(next exp.Runner) exp.Runner {
		return func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-gate:
			case <-ctx.Done():
				return kernels.Result{}, ctx.Err()
			}
			return next(ctx, bench, opts, cfg)
		}
	}
	return wrap, started
}

// waitState polls a job until it reaches want or the deadline passes.
func waitState(t *testing.T, c *serve.Client, id, want string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: state %q, want %q (timed out)", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newCache returns a run cache over a fresh temporary directory.
func newCache(t *testing.T) *results.RunCache {
	t.Helper()
	cache, err := sfence.NewRunCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// stat reads one counter of srv's registry.
func stat(srv *serve.Server, name string) uint64 {
	return srv.StatsRegistry().Snapshot().UValue(name)
}

// TestServedEnvelopeByteIdentity is the core serving contract: for every
// suite experiment ID, the envelope served over HTTP is byte-identical to
// the artifact a direct lab run produces. Three rounds cover the three
// ways a job can be served: cold (the job simulates), warm (a second
// server over the same RunCache starts with an empty envelope memo, so
// its sessions replay the cached runs) and memo (the first server
// answers each repeat from its envelope memo, and the run cache sees
// nothing). -short keeps the simulation-free registry rows plus one real
// sweep; the full sweep covers every suite ID.
func TestServedEnvelopeByteIdentity(t *testing.T) {
	ids := []string{"table3", "table4", "hwcost", simExperiment}
	if !testing.Short() {
		ids = ids[:0]
		for _, spec := range results.Experiments() {
			if spec.InSuite() {
				ids = append(ids, spec.ID)
			}
		}
	}

	lab := sfence.NewLab(sfence.WithScale(sfence.Quick), sfence.WithCache(newCache(t)))
	ctx := context.Background()
	want := make(map[string][]byte, len(ids))
	for _, id := range ids {
		res, err := lab.Run(ctx, id)
		if err != nil {
			t.Fatalf("direct lab.Run(%s): %v", id, err)
		}
		if want[id], err = res.JSON(); err != nil {
			t.Fatalf("direct envelope %s: %v", id, err)
		}
	}
	serveAll := func(round string, client *serve.Client) {
		t.Helper()
		for _, id := range ids {
			got, err := client.Run(ctx, serve.JobRequest{Experiment: id}, nil)
			if err != nil {
				t.Fatalf("served %s %s: %v", round, id, err)
			}
			if !bytes.Equal(got, want[id]) {
				t.Errorf("%s: %s served envelope differs from direct lab.Run artifact", id, round)
			}
		}
	}

	cache := newCache(t)
	srv, client := startServer(t, serve.Options{Cache: cache, Scale: exp.Quick})
	serveAll("cold", client)

	before := cache.Stats()
	warmSrv, warmClient := startServer(t, serve.Options{Cache: cache, Scale: exp.Quick})
	serveAll("warm", warmClient)
	if st := cache.Stats(); st.Hits <= before.Hits || st.Misses != before.Misses {
		t.Errorf("warm round: cache %+v after %+v, want more hits and no new misses", st, before)
	}
	if n := stat(warmSrv, "serve.envelopes.hits"); n != 0 {
		t.Errorf("warm round: serve.envelopes.hits = %d, want 0 on a fresh server", n)
	}

	before = cache.Stats()
	hits := stat(srv, "serve.envelopes.hits")
	serveAll("memo", client)
	if n := stat(srv, "serve.envelopes.hits") - hits; n != uint64(len(ids)) {
		t.Errorf("memo round: serve.envelopes.hits rose by %d, want %d", n, len(ids))
	}
	if st := cache.Stats(); st != before {
		t.Errorf("memo round reached the run cache: %+v after %+v", st, before)
	}
}

// TestServeExperimentsEndpoint checks the registry listing matches the
// in-process registry, including the suite membership flags.
func TestServeExperimentsEndpoint(t *testing.T) {
	_, client := startServer(t, serve.Options{Scale: exp.Quick})
	infos, err := client.Experiments(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	specs := results.Experiments()
	if len(infos) != len(specs) {
		t.Fatalf("got %d experiments, want %d", len(infos), len(specs))
	}
	for i, spec := range specs {
		if infos[i].ID != spec.ID {
			t.Errorf("experiment %d: ID %q, want %q", i, infos[i].ID, spec.ID)
		}
		if infos[i].InSuite != spec.InSuite() {
			t.Errorf("experiment %s: InSuite %v, want %v", spec.ID, infos[i].InSuite, spec.InSuite())
		}
	}
}

// TestServeSubmitValidation exercises the 400 paths: unknown experiment
// IDs, unknown scales and negative parallelism are rejected at submit
// with a real error body.
func TestServeSubmitValidation(t *testing.T) {
	_, client := startServer(t, serve.Options{Scale: exp.Quick})
	ctx := context.Background()
	if _, err := client.Submit(ctx, serve.JobRequest{Experiment: "no-such-figure"}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment: got %v, want unknown-experiment error", err)
	}
	if _, err := client.Submit(ctx, serve.JobRequest{Experiment: "table4", Scale: "huge"}); err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Errorf("unknown scale: got %v, want unknown-scale error", err)
	}
	if _, err := client.Submit(ctx, serve.JobRequest{Experiment: "table4", Parallelism: -3}); err == nil || !strings.Contains(err.Error(), "parallelism ") || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("negative parallelism: got %v, want an HTTP 400 naming the field", err)
	}
	if _, err := client.Status(ctx, "j999"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("unknown job: got %v, want unknown-job error", err)
	}
}

// TestServeSubmitClampsWidths submits a job asking for a wider pool than
// the host has CPUs: the job must run with it clamped to
// runtime.NumCPU().
func TestServeSubmitClampsWidths(t *testing.T) {
	ncpu := runtime.NumCPU()
	var mu sync.Mutex
	inflight, maxInflight := 0, 0
	wrap := func(next exp.Runner) exp.Runner {
		return func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
			mu.Lock()
			inflight++
			maxInflight = max(maxInflight, inflight)
			mu.Unlock()
			defer func() {
				mu.Lock()
				inflight--
				mu.Unlock()
			}()
			return next(ctx, bench, opts, cfg)
		}
	}
	_, client := startServer(t, serve.Options{Scale: exp.Quick, WrapRunner: wrap})
	st, err := client.Submit(context.Background(), serve.JobRequest{
		Experiment: simExperiment, Parallelism: ncpu + 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, client, st.ID, serve.StateDone)
	mu.Lock()
	defer mu.Unlock()
	if maxInflight > ncpu {
		t.Errorf("%d simulations ran at once, want at most NumCPU = %d", maxInflight, ncpu)
	}
}

// TestServeEventStream follows one cold-cache job end to end and checks
// the stream's shape: queued, then running, monotonic progress with live
// simulated-cycle throughput, and a terminal done event. A repeat of the
// job is answered from the envelope memo, whose stream is exactly the
// three state events.
func TestServeEventStream(t *testing.T) {
	_, client := startServer(t, serve.Options{Cache: newCache(t), Scale: exp.Quick})

	var states []string
	var progress []serve.Event
	sawRunningBeforeProgress := true
	running := false
	err := func() error {
		st, err := client.Submit(context.Background(), serve.JobRequest{Experiment: simExperiment})
		if err != nil {
			return err
		}
		return client.Events(context.Background(), st.ID, func(ev serve.Event) error {
			switch ev.Type {
			case "state":
				states = append(states, ev.State)
				running = running || ev.State == serve.StateRunning
			case "progress":
				if !running {
					sawRunningBeforeProgress = false
				}
				progress = append(progress, ev)
			default:
				return fmt.Errorf("unexpected event type %q", ev.Type)
			}
			return nil
		})
	}()
	if err != nil {
		t.Fatal(err)
	}

	if len(states) < 3 || states[0] != serve.StateQueued || states[len(states)-1] != serve.StateDone {
		t.Fatalf("state sequence %v, want queued ... done", states)
	}
	if !sawRunningBeforeProgress {
		t.Error("saw progress before the running state event")
	}
	if len(progress) == 0 {
		t.Fatal("no progress events")
	}
	for i := 1; i < len(progress); i++ {
		if progress[i].Done < progress[i-1].Done {
			t.Errorf("progress Done went backwards: %d after %d", progress[i].Done, progress[i-1].Done)
		}
	}
	last := progress[len(progress)-1]
	if last.Done != last.Total {
		t.Errorf("final progress %d/%d, want complete", last.Done, last.Total)
	}
	if last.SimCycles <= 0 {
		t.Errorf("cold-cache job reported %d simulated cycles, want > 0", last.SimCycles)
	}
	if last.FenceStallShare < 0 || last.FenceStallShare > 1 {
		t.Errorf("fence-stall share %v outside [0,1]", last.FenceStallShare)
	}

	var repeat []serve.Event
	if _, err := client.Run(context.Background(), serve.JobRequest{Experiment: simExperiment}, func(ev serve.Event) error {
		repeat = append(repeat, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range repeat {
		got = append(got, ev.Type+":"+ev.State)
	}
	if want := []string{"state:queued", "state:running", "state:done"}; !slices.Equal(got, want) {
		t.Errorf("memo-hit event stream %v, want %v", got, want)
	}
}

// TestServeJobTimeout submits a job whose simulations block forever and a
// tiny timeout; the job must fail with the timeout error, the result
// endpoint must report it, and the envelope memo must stay empty.
func TestServeJobTimeout(t *testing.T) {
	gate := make(chan struct{}) // never closed: simulations block until timeout
	wrap, _ := gatedRunner(gate)
	srv, client := startServer(t, serve.Options{Cache: newCache(t), Scale: exp.Quick, WrapRunner: wrap})

	st, err := client.Submit(context.Background(), serve.JobRequest{Experiment: simExperiment, TimeoutMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, client, st.ID, serve.StateFailed)
	if !strings.Contains(got.Error, "job timeout exceeded") {
		t.Errorf("failed job error %q, want timeout message", got.Error)
	}
	if _, err := client.Result(context.Background(), st.ID); err == nil || !strings.Contains(err.Error(), "HTTP 500") {
		t.Errorf("result of timed-out job: got %v, want HTTP 500", err)
	}
	if n := stat(srv, "serve.envelopes.entries"); n != 0 {
		t.Errorf("timed-out job left %d memoized envelopes, want 0", n)
	}
}

// TestServeMaxJobTimeoutCap checks the server-side cap applies both to
// requests that ask for too much and to requests that ask for nothing.
func TestServeMaxJobTimeoutCap(t *testing.T) {
	gate := make(chan struct{})
	wrap, _ := gatedRunner(gate)
	_, client := startServer(t, serve.Options{
		Scale: exp.Quick, WrapRunner: wrap, MaxJobTimeout: 50 * time.Millisecond,
	})
	ctx := context.Background()
	for _, req := range []serve.JobRequest{
		{Experiment: simExperiment},                    // no timeout requested: cap supplies one
		{Experiment: simExperiment, TimeoutMs: 600000}, // above the cap: clamped
	} {
		st, err := client.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got := waitState(t, client, st.ID, serve.StateFailed)
		if !strings.Contains(got.Error, "job timeout exceeded") {
			t.Errorf("job %s error %q, want timeout message", st.ID, got.Error)
		}
	}
}

// TestServeCancel cancels a running job via DELETE and checks the
// cancellation propagates into the simulations, the result endpoint
// reports 410, and the envelope memo stays empty.
func TestServeCancel(t *testing.T) {
	gate := make(chan struct{})
	wrap, started := gatedRunner(gate)
	srv, client := startServer(t, serve.Options{Cache: newCache(t), Scale: exp.Quick, WrapRunner: wrap})

	ctx := context.Background()
	st, err := client.Submit(ctx, serve.JobRequest{Experiment: simExperiment})
	if err != nil {
		t.Fatal(err)
	}
	<-started // a simulation is really blocked inside the runner
	if err := client.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, client, st.ID, serve.StateCanceled)
	if _, err := client.Result(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "job canceled") {
		t.Errorf("result of canceled job: got %v, want job-canceled error", err)
	}
	if n := stat(srv, "serve.envelopes.entries"); n != 0 {
		t.Errorf("canceled job left %d memoized envelopes, want 0", n)
	}
}

// TestServeCancelQueuedRepeat cancels a queued repeat the envelope memo
// could answer: its worker must honour the cancellation before it looks
// at the memo, so the job ends canceled, not done.
func TestServeCancelQueuedRepeat(t *testing.T) {
	gate := make(chan struct{})
	wrap, started := gatedRunner(gate)
	srv, client := startServer(t, serve.Options{Cache: newCache(t), Scale: exp.Quick, WrapRunner: wrap, Workers: 1})

	ctx := context.Background()
	// table4 calls no runner, so it finishes through the closed gate and
	// leaves its envelope in the memo.
	if _, err := client.Run(ctx, serve.JobRequest{Experiment: "table4"}, nil); err != nil {
		t.Fatal(err)
	}
	held, err := client.Submit(ctx, serve.JobRequest{Experiment: simExperiment})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the one worker is held, so the repeat stays queued
	repeat, err := client.Submit(ctx, serve.JobRequest{Experiment: "table4"})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Cancel(ctx, repeat.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitState(t, client, held.ID, serve.StateDone)
	waitState(t, client, repeat.ID, serve.StateCanceled)
	if n := stat(srv, "serve.envelopes.hits"); n != 0 {
		t.Errorf("serve.envelopes.hits = %d, want 0 for a canceled repeat", n)
	}
}

// TestServeCancelOnDisconnect submits a CancelOnDisconnect job, attaches
// one event-stream watcher, and drops it mid-run; the disconnect must
// cancel the job through its context.
func TestServeCancelOnDisconnect(t *testing.T) {
	gate := make(chan struct{})
	wrap, started := gatedRunner(gate)
	_, client := startServer(t, serve.Options{Scale: exp.Quick, WrapRunner: wrap})

	st, err := client.Submit(context.Background(), serve.JobRequest{
		Experiment: simExperiment, CancelOnDisconnect: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	streamCtx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	attached := make(chan struct{})
	var once sync.Once
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- client.Events(streamCtx, st.ID, func(serve.Event) error {
			// Receiving any event proves the watcher is attached
			// server-side; only then is a disconnect a real detach.
			once.Do(func() { close(attached) })
			return nil
		})
	}()

	<-attached   // the stream is attached
	<-started    // ... and the job is mid-simulation
	disconnect() // drop the only watcher
	<-streamDone
	waitState(t, client, st.ID, serve.StateCanceled)
}

// TestServeQueueFull saturates a Workers=1, QueueDepth=1 server with
// blocked jobs and checks the third submit is rejected with 503 while
// the first two drain to completion once unblocked. A repeat the
// envelope memo could answer is admitted like any other job, so it is
// rejected too, and is served once the queue has room again.
func TestServeQueueFull(t *testing.T) {
	gate := make(chan struct{})
	wrap, started := gatedRunner(gate)
	srv, client := startServer(t, serve.Options{
		Cache: newCache(t), Scale: exp.Quick, WrapRunner: wrap, Workers: 1, QueueDepth: 1,
	})

	ctx := context.Background()
	// table4 is analytic: it calls no runner, so the closed gate does not
	// hold it, and it leaves its envelope in the memo.
	want, err := client.Run(ctx, serve.JobRequest{Experiment: "table4"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := client.Submit(ctx, serve.JobRequest{Experiment: simExperiment})
	if err != nil {
		t.Fatal(err)
	}
	<-started // job 1 is running (dequeued), so job 2 owns the queue slot
	st2, err := client.Submit(ctx, serve.JobRequest{Experiment: simExperiment})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(ctx, serve.JobRequest{Experiment: simExperiment}); err == nil || !strings.Contains(err.Error(), "job queue full") {
		t.Fatalf("third submit: got %v, want queue-full rejection", err)
	}

	if _, err := client.Submit(ctx, serve.JobRequest{Experiment: "table4"}); err == nil || !strings.Contains(err.Error(), "job queue full") {
		t.Fatalf("memo-hit submit with the queue full: got %v, want queue-full rejection", err)
	}

	close(gate)
	waitState(t, client, st1.ID, serve.StateDone)
	waitState(t, client, st2.ID, serve.StateDone)

	if got, err := client.Run(ctx, serve.JobRequest{Experiment: "table4"}, nil); err != nil || !bytes.Equal(got, want) {
		t.Errorf("memo-hit result: err %v, equal to the first table4 envelope %v", err, bytes.Equal(got, want))
	}
	if rejected := stat(srv, "serve.jobs.rejected"); rejected != 2 {
		t.Errorf("serve.jobs.rejected = %d, want 2", rejected)
	}
	// Job 2 repeats job 1, which filled the memo before job 2 was dequeued.
	if hits := stat(srv, "serve.envelopes.hits"); hits != 2 {
		t.Errorf("serve.envelopes.hits = %d, want 2 (job 2 and the last table4)", hits)
	}
}

// TestServeResultBeforeDone checks the result endpoint answers 409 while
// the job is still running.
func TestServeResultBeforeDone(t *testing.T) {
	gate := make(chan struct{})
	wrap, started := gatedRunner(gate)
	_, client := startServer(t, serve.Options{Scale: exp.Quick, WrapRunner: wrap})

	ctx := context.Background()
	st, err := client.Submit(ctx, serve.JobRequest{Experiment: simExperiment})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := client.Result(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "HTTP 409") {
		t.Errorf("result of running job: got %v, want HTTP 409", err)
	}
	close(gate)
	waitState(t, client, st.ID, serve.StateDone)
	if _, err := client.Result(ctx, st.ID); err != nil {
		t.Errorf("result after done: %v", err)
	}
}

// TestServeDrain checks graceful shutdown: during a drain, health flips
// to 503 and submits are refused, a repeat the envelope memo could answer
// included, while the in-flight job is allowed to finish and Drain
// returns cleanly.
func TestServeDrain(t *testing.T) {
	gate := make(chan struct{})
	wrap, started := gatedRunner(gate)
	srv, client := startServer(t, serve.Options{Cache: newCache(t), Scale: exp.Quick, WrapRunner: wrap, Workers: 1})

	ctx := context.Background()
	// table4 calls no runner, so it finishes through the closed gate and
	// leaves its envelope in the memo.
	if _, err := client.Run(ctx, serve.JobRequest{Experiment: "table4"}, nil); err != nil {
		t.Fatal(err)
	}
	st, err := client.Submit(ctx, serve.JobRequest{Experiment: simExperiment})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()

	// Draining is visible: /healthz turns 503 and submits bounce.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(client.BaseURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := client.Submit(ctx, serve.JobRequest{Experiment: "table4"}); err == nil || !strings.Contains(err.Error(), "server draining") {
		t.Fatalf("submit during drain: got %v, want draining rejection", err)
	}

	close(gate) // let the in-flight job finish
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitState(t, client, st.ID, serve.StateDone)
}

// TestServeDrainDeadline checks the other drain path: when the drain
// context expires first, the in-flight jobs are cancelled through their
// contexts and Drain reports the context error.
func TestServeDrainDeadline(t *testing.T) {
	gate := make(chan struct{}) // never closed: the job can only end by cancellation
	wrap, started := gatedRunner(gate)
	srv, client := startServer(t, serve.Options{Scale: exp.Quick, WrapRunner: wrap, Workers: 1})

	st, err := client.Submit(context.Background(), serve.JobRequest{Experiment: simExperiment})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	drainCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(drainCtx); err != context.DeadlineExceeded {
		t.Fatalf("drain: %v, want deadline exceeded", err)
	}
	waitState(t, client, st.ID, serve.StateCanceled)
}

// TestServeStatsz decodes the /statsz snapshot and checks the queue,
// job, cache and envelope-memo gauges are present and plausible after
// one served job.
func TestServeStatsz(t *testing.T) {
	cache := newCache(t)
	_, client := startServer(t, serve.Options{Cache: cache, Scale: exp.Quick, QueueDepth: 7})

	envelope, err := client.Run(context.Background(), serve.JobRequest{Experiment: simExperiment}, nil)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(client.BaseURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap stats.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, s := range snap.Samples {
		got[s.Name] = s.Value
	}
	for name, want := range map[string]int64{
		"serve.jobs.submitted":    1,
		"serve.jobs.completed":    1,
		"serve.queue.capacity":    7,
		"serve.cache.misses":      int64(cache.Stats().Misses),
		"serve.cache.disk_bytes":  cache.Stats().DiskBytes,
		"serve.envelopes.hits":    0,
		"serve.envelopes.entries": 1,
		"serve.envelopes.bytes":   int64(len(envelope)),
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
	if got["serve.cache.misses"] == 0 {
		t.Error("cold job executed no simulations according to /statsz")
	}
}

// TestServeEnvelopeMemo checks what keys the envelope memo and when it
// exists. Without a cache there is no memo: a repeat job simulates again
// and /statsz has no serve.envelopes stats. With one, quick and full are
// separate keys, and a repeat at either scale is a hit. table4 is
// analytic at every scale, so its full-scale job is cheap.
func TestServeEnvelopeMemo(t *testing.T) {
	ctx := context.Background()
	t.Run("no cache", func(t *testing.T) {
		var calls atomic.Int64
		wrap := func(next exp.Runner) exp.Runner {
			return func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
				calls.Add(1)
				return next(ctx, bench, opts, cfg)
			}
		}
		srv, client := startServer(t, serve.Options{Scale: exp.Quick, WrapRunner: wrap})
		first, err := client.Run(ctx, serve.JobRequest{Experiment: simExperiment}, nil)
		if err != nil {
			t.Fatal(err)
		}
		once := calls.Load()
		second, err := client.Run(ctx, serve.JobRequest{Experiment: simExperiment}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if once == 0 || calls.Load() != 2*once {
			t.Errorf("runner calls: %d for the first job, %d for both, want the repeat to run them all again", once, calls.Load())
		}
		if !bytes.Equal(first, second) {
			t.Error("repeat envelope differs from the first")
		}
		if _, ok := srv.StatsRegistry().Snapshot().Lookup("serve.envelopes.hits"); ok {
			t.Error("serve.envelopes.hits registered without a cache")
		}
	})
	t.Run("scales", func(t *testing.T) {
		srv, client := startServer(t, serve.Options{Cache: newCache(t), Scale: exp.Quick})
		envs := map[string][]byte{}
		for _, scale := range []string{"quick", "full", "quick", "full"} {
			env, err := client.Run(ctx, serve.JobRequest{Experiment: "table4", Scale: scale}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := envs[scale]; ok && !bytes.Equal(prev, env) {
				t.Errorf("%s: memo hit differs from the first envelope", scale)
			}
			envs[scale] = env
		}
		if bytes.Equal(envs["quick"], envs["full"]) {
			t.Error("quick and full table4 envelopes are equal; want the scale in each")
		}
		if hits, entries := stat(srv, "serve.envelopes.hits"), stat(srv, "serve.envelopes.entries"); hits != 2 || entries != 2 {
			t.Errorf("serve.envelopes.hits = %d, entries = %d, want 2 and 2", hits, entries)
		}
	})
}

// TestServeHealthz checks the healthy path answers 200 "ok".
func TestServeHealthz(t *testing.T) {
	_, client := startServer(t, serve.Options{Scale: exp.Quick})
	resp, err := http.Get(client.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestServeFenceStallShareExact checks that the streamed fence-stall
// share is computed from the job's finished results: the final progress
// event must carry exactly ΣFenceStall / ΣCoreCycles (and ΣCycles) of
// every simulation the job ran. Parallelism 1 makes the last event the
// one emitted after the last simulation.
func TestServeFenceStallShareExact(t *testing.T) {
	var mu sync.Mutex
	var recorded []kernels.Result
	wrap := func(next exp.Runner) exp.Runner {
		return func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
			res, err := next(ctx, bench, opts, cfg)
			if err == nil {
				mu.Lock()
				recorded = append(recorded, res)
				mu.Unlock()
			}
			return res, err
		}
	}
	_, client := startServer(t, serve.Options{Scale: exp.Quick, WrapRunner: wrap})

	var last serve.Event
	_, err := client.Run(context.Background(), serve.JobRequest{Experiment: "ablation/fss-recovery", Parallelism: 1},
		func(ev serve.Event) error {
			if ev.Type == "progress" {
				last = ev
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(recorded) == 0 || last.Done != last.Total {
		t.Fatalf("%d simulations recorded, final progress %d/%d", len(recorded), last.Done, last.Total)
	}
	var cycles int64
	var fenceStall, coreCycles uint64
	for _, r := range recorded {
		cycles += r.Cycles
		fenceStall += r.FenceStall
		coreCycles += r.CoreCycles
	}
	want := float64(fenceStall) / float64(coreCycles)
	if last.FenceStallShare != want {
		t.Errorf("streamed fence-stall share %v, want ΣFenceStall/ΣCoreCycles = %d/%d = %v",
			last.FenceStallShare, fenceStall, coreCycles, want)
	}
	if last.FenceStallShare < 0 || last.FenceStallShare > 1 {
		t.Errorf("fence-stall share %v outside [0,1]", last.FenceStallShare)
	}
	if last.SimCycles != cycles {
		t.Errorf("streamed simulated cycles %d, want %d", last.SimCycles, cycles)
	}
}

// submitRejected posts body to a fresh server and checks that it is
// refused with the wanted status and an error message containing want,
// and that no job was registered.
func submitRejected(t *testing.T, body string, status int, want string) {
	t.Helper()
	srv, client := startServer(t, serve.Options{Scale: exp.Quick})
	resp, err := http.Post(client.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status || !strings.Contains(msg["error"], want) {
		t.Fatalf("submit: HTTP %d %v, want %d with an error naming %q", resp.StatusCode, msg, status, want)
	}
	if n := srv.StatsRegistry().Snapshot().UValue("serve.jobs.submitted"); n != 0 {
		t.Errorf("serve.jobs.submitted = %d after a rejected submit, want 0", n)
	}
	if _, err := client.Status(context.Background(), "j1"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("rejected submit registered a job: status err %v", err)
	}
}

// TestServeOversizedSubmit posts a body over the 64 KiB submit limit: the
// server must answer 413 with a message and register no job.
func TestServeOversizedSubmit(t *testing.T) {
	body := `{"experiment":"table4","scale":"` + strings.Repeat("x", 80<<10) + `"}`
	submitRejected(t, body, http.StatusRequestEntityTooLarge, "exceeds")
}

// TestServeUnknownFieldSubmit posts the removed "workers" field: the
// server must answer 400 naming the field, not run the job without it.
func TestServeUnknownFieldSubmit(t *testing.T) {
	submitRejected(t, `{"experiment":"table4","workers":2}`, http.StatusBadRequest, `"workers"`)
}

// TestServeRetiredExperimentSubmit submits the retired simperf
// experiment (wall-clock timing moved to the bench/ module): the server
// must answer 400 with the unknown-experiment error, not run anything.
func TestServeRetiredExperimentSubmit(t *testing.T) {
	submitRejected(t, `{"experiment":"simperf"}`, http.StatusBadRequest, `unknown experiment "simperf"`)
}

// FuzzSubmit feeds arbitrary bodies to POST /v1/jobs. Whatever the body,
// the handler must not panic and must answer 202, 400, 413 or 503. Each
// input gets a fresh server whose runner blocks until the server closes,
// so no simulation runs.
func FuzzSubmit(f *testing.F) {
	f.Add([]byte(`{"experiment":"table4","scale":"quick"}`))
	f.Add([]byte(`{"experiment":"table4","workers":2}`))
	f.Add([]byte(`{"experiment":"table4","scale":"` + strings.Repeat("x", 80<<10) + `"}`))
	f.Add([]byte(`{"experiment":"table4","parallelism":-1}`))
	f.Add([]byte(`{"experiment":`))
	wrap, _ := gatedRunner(nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := serve.NewServer(serve.Options{Scale: exp.Quick, Workers: 1, QueueDepth: 1, WrapRunner: wrap})
		defer srv.Close()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("submit %q: HTTP %d %s", body, rec.Code, rec.Body)
		}
	})
}

// TestServePanicIsolation injects a panic into a job's runner, which runs
// on the session's pool goroutines: the job must fail with the panic as
// its error, count in serve.jobs.failed, leave the envelope memo empty,
// and the server must go on to run the next job, which fills it.
func TestServePanicIsolation(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	wrap := func(next exp.Runner) exp.Runner {
		return func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
			if armed.Load() {
				panic("injected runner panic")
			}
			return next(ctx, bench, opts, cfg)
		}
	}
	srv, client := startServer(t, serve.Options{Cache: newCache(t), Scale: exp.Quick, WrapRunner: wrap, Workers: 1})
	ctx := context.Background()

	st, err := client.Submit(ctx, serve.JobRequest{Experiment: simExperiment})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, client, st.ID, serve.StateFailed)
	if !strings.Contains(failed.Error, "injected runner panic") {
		t.Errorf("failed job error %q, want the panic value", failed.Error)
	}
	if n := stat(srv, "serve.jobs.failed"); n != 1 {
		t.Errorf("serve.jobs.failed = %d, want 1", n)
	}
	if n := stat(srv, "serve.envelopes.entries"); n != 0 {
		t.Errorf("failed job left %d memoized envelopes, want 0", n)
	}

	armed.Store(false)
	st, err = client.Submit(ctx, serve.JobRequest{Experiment: simExperiment})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, client, st.ID, serve.StateDone)
	if n := stat(srv, "serve.envelopes.entries"); n != 1 {
		t.Errorf("successful job left %d memoized envelopes, want 1", n)
	}
}
