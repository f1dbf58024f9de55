// Package serve turns the S-Fence reproduction into a long-running
// simulation service: an HTTP/JSON API over the experiment registry.
// Clients POST jobs (an experiment ID plus sizing/parallelism knobs) into
// a bounded worker pool, stream NDJSON progress events — per-experiment
// completion plus simulated-cycles/s and the fence-stall share, both
// summed over the job's finished simulations, so observing a job adds
// nothing to its cycle loops — and fetch the finished schema-versioned
// BENCH envelope, byte-identical to what a direct Lab run produces (the
// simulator is deterministic; the serving layer adds no entropy to
// results). A panic while running a job fails that job, not the process.
//
// Per-job sessions share one results.RunCache, so identical jobs across
// tenants coalesce to a single simulation and repeats are served from
// cache; a bounded cache (NewRunCacheLimited) evicts least-recently-used
// disk records under byte pressure without ever touching an in-flight
// coalesced load. With a cache, the server also keeps the envelope of
// each (experiment, scale) pair's first successful job, and a repeat
// job's worker answers from it without running a session.
//
// Endpoints:
//
//	POST   /v1/jobs              submit  (202 + JobStatus; 400 for an unknown field or bad value; 413 for a body over 64 KiB; 503 when the queue is full or draining)
//	GET    /v1/jobs/{id}         status
//	DELETE /v1/jobs/{id}         cancel (propagates into the cycle loop)
//	GET    /v1/jobs/{id}/events  NDJSON event stream until the job is terminal
//	GET    /v1/jobs/{id}/result  the BENCH envelope (409 until done)
//	GET    /v1/experiments       the registry specs
//	GET    /healthz              "ok", or 503 while draining
//	GET    /statsz               stats-registry snapshot: queue depth, job, cache and envelope-memo counters
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sfence/internal/exp"
	"sfence/internal/results"
	"sfence/internal/stats"
)

// Options configure a Server.
type Options struct {
	// Cache is the shared run cache every job's session memoizes
	// through; nil serves every job by direct simulation. A cache also
	// turns on the envelope memo: the first job of each (experiment,
	// scale) pair to finish done leaves its envelope there, and a later
	// job of the same pair is answered from it when a worker takes it
	// off the queue, with the state events queued, running, done and no
	// progress events.
	Cache *results.RunCache
	// Scale is the default experiment sizing for jobs that do not name
	// one (exp.Quick or exp.Full).
	Scale exp.Scale
	// Workers is the number of concurrently running jobs (the worker
	// pool width); 0 defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// 0 defaults to 16. Submits beyond it are rejected with 503.
	QueueDepth int
	// MaxJobTimeout caps (and, for requests that set none, supplies)
	// the per-job timeout. 0 = no cap and no default timeout.
	MaxJobTimeout time.Duration
	// WrapRunner, when non-nil, wraps every job's fully composed runner
	// (simulation + cache). It exists for tests — fault injection and
	// deterministic pool-saturation — and for extra instrumentation. A
	// wrapper may time, count or fail runs but must not alter a result:
	// with a Cache, a successful job's envelope is memoized and served to
	// every later job of the same experiment and scale.
	WrapRunner func(exp.Runner) exp.Runner
}

// Server is the simulation service: a bounded job queue, a worker pool
// of per-job experiment sessions over one shared cache, and the HTTP
// handler exposing them. Create with NewServer, serve via Handler, stop
// with Drain (graceful) or Close (immediate).
type Server struct {
	opts  Options
	cache *results.RunCache
	memo  *envelopeMemo // nil without a cache
	mux   *http.ServeMux
	reg   *stats.Registry

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// submitMu orders submits against drain: submits hold the read
	// lock to check draining and send on queue; Drain holds the write
	// lock to flip draining and close the queue, so no send can race
	// the close.
	submitMu sync.RWMutex
	draining bool
	queue    chan *job
	wg       sync.WaitGroup

	jobsMu sync.Mutex
	jobs   map[string]*job
	nextID atomic.Uint64

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	rejected  atomic.Uint64
	running   atomic.Int64
}

// NewServer builds the service and starts its worker pool.
func NewServer(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		cache:      opts.Cache,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, opts.QueueDepth),
		jobs:       make(map[string]*job),
	}
	if opts.Cache != nil {
		s.memo = &envelopeMemo{entries: make(map[envelopeKey][]byte)}
	}
	s.reg = s.buildRegistry()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// StatsRegistry returns the server's observability registry (queue,
// job, and cache counters); snapshot it for /statsz-equivalent data
// in-process.
func (s *Server) StatsRegistry() *stats.Registry { return s.reg }

// Workers returns the resolved worker-pool width (max concurrent jobs).
func (s *Server) Workers() int { return s.opts.Workers }

// buildRegistry registers the service counters. Everything is a Derived
// closure over atomics (or the cache's own counters, or the envelope
// memo's under its lock), so snapshots are safe against the worker
// pool's concurrent increments.
func (s *Server) buildRegistry() *stats.Registry {
	reg := stats.NewRegistry()
	root := reg.Root().Sub("serve")

	jobs := root.Sub("jobs")
	jobs.Derived("submitted", "jobs accepted into the queue", s.submitted.Load)
	jobs.Derived("completed", "jobs finished successfully", s.completed.Load)
	jobs.Derived("failed", "jobs that returned an error (timeouts and panics included)", s.failed.Load)
	jobs.Derived("canceled", "jobs cancelled by DELETE, disconnect, or shutdown", s.canceled.Load)
	jobs.Derived("rejected", "submits refused because the queue was full or draining", s.rejected.Load)
	jobs.Derived("running", "jobs currently executing", func() uint64 { return uint64(s.running.Load()) })

	queue := root.Sub("queue")
	queue.Derived("depth", "jobs waiting in the bounded queue", func() uint64 { return uint64(len(s.queue)) })
	queue.Derived("capacity", "bounded queue capacity", func() uint64 { return uint64(cap(s.queue)) })
	queue.Derived("workers", "worker pool width (max concurrent jobs)", func() uint64 { return uint64(s.opts.Workers) })

	if s.cache != nil {
		cache := root.Sub("cache")
		stat := func(f func(results.CacheStats) uint64) func() uint64 {
			return func() uint64 { return f(s.cache.Stats()) }
		}
		cache.Derived("hits", "run-cache hits (memory + disk)", stat(func(st results.CacheStats) uint64 { return st.Hits }))
		cache.Derived("mem_hits", "run-cache memory-tier hits (coalesced waits included)", stat(func(st results.CacheStats) uint64 { return st.MemHits }))
		cache.Derived("disk_hits", "run-cache disk-tier hits", stat(func(st results.CacheStats) uint64 { return st.DiskHits }))
		cache.Derived("misses", "simulations actually executed", stat(func(st results.CacheStats) uint64 { return st.Misses }))
		cache.Derived("evictions", "disk records evicted by the LRU byte budget", stat(func(st results.CacheStats) uint64 { return st.Evictions }))
		cache.Derived("write_errors", "run records that could not be persisted", stat(func(st results.CacheStats) uint64 { return st.WriteErrors }))
		cache.Derived("disk_bytes", "current disk-tier occupancy in bytes", stat(func(st results.CacheStats) uint64 { return uint64(st.DiskBytes) }))
		cache.Derived("disk_entries", "current disk-tier record count", stat(func(st results.CacheStats) uint64 { return uint64(st.DiskEntries) }))
		cache.Derived("max_disk_bytes", "disk-tier byte budget (0 = unbounded)", func() uint64 { return uint64(s.cache.MaxDiskBytes()) })

		envelopes := root.Sub("envelopes")
		envelopes.Derived("hits", "jobs answered from the envelope memo", s.memo.hits.Load)
		envelopes.Derived("entries", "memoized envelopes, one per (experiment, scale)", func() uint64 {
			n, _ := s.memo.size()
			return uint64(n)
		})
		envelopes.Derived("bytes", "total size of the memoized envelopes", func() uint64 {
			_, b := s.memo.size()
			return uint64(b)
		})
	}
	return reg
}

// worker drains the job queue until it is closed by Drain/Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// effectiveTimeoutMs applies the server's cap to a requested timeout.
func (s *Server) effectiveTimeoutMs(requested int64) int64 {
	maxMs := s.opts.MaxJobTimeout.Milliseconds()
	if maxMs <= 0 {
		return requested
	}
	if requested <= 0 || requested > maxMs {
		return maxMs
	}
	return requested
}

// Drain gracefully stops the service: new submits are rejected with 503
// (and /healthz turns 503), queued and running jobs are allowed to
// finish. If ctx expires first, the remaining jobs are cancelled through
// their contexts — the cycle loops observe it mid-run — and Drain
// returns ctx.Err() after they unwind. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.submitMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.submitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close stops the service immediately: running jobs are cancelled.
func (s *Server) Close() {
	s.baseCancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx) //nolint:errcheck // the expired ctx only forces the cancel path
}

// ExperimentInfo is one /v1/experiments entry.
type ExperimentInfo struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	Kind     string `json:"kind"`
	Artifact string `json:"artifact,omitempty"`
	InSuite  bool   `json:"inSuite"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := results.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, code, data)
}

// writeBody sends a JSON body with its Content-Length, so the client
// can read it into a buffer of the right size.
func writeBody(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(code)
	w.Write(data)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.jobsMu.Lock()
	j := s.jobs[id]
	s.jobsMu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
	}
	return j
}

// maxSubmitBytes bounds a POST /v1/jobs body. A JobRequest is a few
// short fields, so anything near this size is not a job.
const maxSubmitBytes = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	// Reject fields the server does not know, so a client that asks for
	// an option the server lacks (such as "workers") is told so instead
	// of getting a job that silently ignores it.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	spec, err := results.LookupExperiment(req.Experiment)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Parallelism < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parallelism %d is negative", req.Parallelism))
		return
	}
	req.Parallelism = min(req.Parallelism, runtime.NumCPU())
	scale := s.opts.Scale
	switch req.Scale {
	case "":
	case "quick":
		scale = exp.Quick
	case "full":
		scale = exp.Full
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown scale %q (want \"quick\" or \"full\")", req.Scale))
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}

	id := fmt.Sprintf("j%d", s.nextID.Add(1))
	j := newJob(id, tenant, req, spec, scale, s.baseCtx)

	// Register before enqueueing so a worker can never pick up a job
	// that handlers cannot yet resolve.
	s.jobsMu.Lock()
	s.jobs[id] = j
	s.jobsMu.Unlock()

	s.submitMu.RLock()
	accepted, full := false, false
	if !s.draining {
		select {
		case s.queue <- j:
			accepted = true
		default:
			full = true
		}
	}
	s.submitMu.RUnlock()

	if !accepted {
		s.jobsMu.Lock()
		delete(s.jobs, id)
		s.jobsMu.Unlock()
		j.cancel()
		s.rejected.Add(1)
		if full {
			writeError(w, http.StatusServiceUnavailable, "job queue full")
		} else {
			writeError(w, http.StatusServiceUnavailable, "server draining")
		}
		return
	}
	s.submitted.Add(1)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's events as NDJSON: full history first,
// then live until the job is terminal or the client disconnects. A
// disconnect detaches the watcher; for CancelOnDisconnect jobs the last
// detach cancels the job.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	j.attachWatcher()
	defer j.detachWatcher()

	enc := json.NewEncoder(w)
	idx := 0
	for {
		j.mu.Lock()
		batch := j.events[idx:]
		idx = len(j.events)
		notify := j.notify
		terminal := terminalState(j.state)
		j.mu.Unlock()

		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if len(batch) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, errMsg, result := j.state, j.errMsg, j.result
	j.mu.Unlock()
	switch state {
	case StateDone:
		writeBody(w, http.StatusOK, result)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, errMsg)
	case StateCanceled:
		writeError(w, http.StatusGone, "job canceled: "+errMsg)
	default:
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is %s; stream /v1/jobs/%s/events and retry when done", j.id, state, j.id))
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	specs := results.Experiments()
	infos := make([]ExperimentInfo, len(specs))
	for i, spec := range specs {
		infos[i] = ExperimentInfo{
			ID:       spec.ID,
			Title:    spec.Title,
			Kind:     spec.Kind,
			Artifact: spec.Artifact,
			InSuite:  spec.InSuite(),
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.submitMu.RLock()
	draining := s.draining
	s.submitMu.RUnlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}
