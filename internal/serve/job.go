package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/results"
)

// Job states, as reported by JobStatus.State and "state" events. A job is
// terminal in StateDone, StateFailed, and StateCanceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobRequest is the POST /v1/jobs body: which experiment to run and how.
type JobRequest struct {
	// Experiment is a registry experiment ID ("fig12", "table4",
	// "ablation/fsb-entries", ...). Unknown IDs are rejected at submit.
	Experiment string `json:"experiment"`
	// Scale is "quick" or "full"; empty uses the server default.
	Scale string `json:"scale,omitempty"`
	// Parallelism bounds the job's simulation worker pool
	// (0 = GOMAXPROCS). Negative values are rejected and values above the
	// server's CPU count are clamped to it.
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMs time-boxes the job's simulations; the server caps it at
	// its configured maximum.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// CancelOnDisconnect cancels the job when its last events-stream
	// watcher disconnects before completion, propagating the client's
	// disconnect through context into the cycle loop.
	CancelOnDisconnect bool `json:"cancelOnDisconnect,omitempty"`
}

// JobStatus describes one job's identity and current state.
type JobStatus struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Tenant     string `json:"tenant"`
	Scale      string `json:"scale"`
	State      string `json:"state"`
	Error      string `json:"error,omitempty"`
}

// Event is one NDJSON line of a job's event stream: state transitions
// ("queued", "running", terminal states) and per-experiment progress
// carrying simulator throughput summed over the job's finished
// simulations. Progress rates are wall-clock and therefore
// nondeterministic; the result envelope bytes never are. A job answered
// from the server's envelope memo runs no session, so its stream is the
// three state events queued, running, done and no progress events.
type Event struct {
	Type       string `json:"type"` // "state" or "progress"
	Job        string `json:"job"`
	State      string `json:"state,omitempty"`
	Error      string `json:"error,omitempty"`
	Experiment string `json:"experiment,omitempty"`
	Done       int    `json:"done"`
	Total      int    `json:"total,omitempty"`
	// SimCycles is the total simulated cycles of the job's finished
	// simulations (cache hits contribute nothing — they simulate
	// nothing).
	SimCycles       int64   `json:"simCycles,omitempty"`
	SimCyclesPerSec float64 `json:"simCyclesPerSec,omitempty"`
	// FenceStallShare is ΣFenceStall / ΣCoreCycles over the same
	// finished simulations: the fence-idle share of core time that the
	// figures plot (kernels.Result.FenceStallFraction, pooled across
	// runs), always in [0, 1].
	FenceStallShare float64 `json:"fenceStallShare,omitempty"`
	ElapsedMs       int64   `json:"elapsedMs,omitempty"`
}

// job is one submitted experiment run: its request, its cancellable
// context, its event history, and its terminal result.
type job struct {
	id     string
	tenant string
	req    JobRequest
	spec   results.ExperimentSpec
	scale  exp.Scale

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	errMsg   string
	result   []byte // the schema-versioned envelope, set in StateDone
	events   []Event
	notify   chan struct{} // closed and replaced on every append
	watchers int
}

func newJob(id, tenant string, req JobRequest, spec results.ExperimentSpec, scale exp.Scale, parent context.Context) *job {
	ctx, cancel := context.WithCancel(parent)
	j := &job{
		id: id, tenant: tenant, req: req, spec: spec, scale: scale,
		ctx: ctx, cancel: cancel,
		state:  StateQueued,
		notify: make(chan struct{}),
	}
	j.events = append(j.events, Event{Type: "state", Job: id, State: StateQueued, Experiment: req.Experiment})
	return j
}

// status snapshots the job's public state.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:         j.id,
		Experiment: j.req.Experiment,
		Tenant:     j.tenant,
		Scale:      results.ScaleName(j.scale),
		State:      j.state,
		Error:      j.errMsg,
	}
}

// key names the job's envelope in the server's memo.
func (j *job) key() envelopeKey { return envelopeKey{j.spec.ID, j.scale} }

// finish stores the job's envelope and moves it to StateDone.
func (j *job) finish(envelope []byte) {
	j.mu.Lock()
	j.result = envelope
	j.mu.Unlock()
	j.setState(StateDone, "")
}

// emit appends an event and wakes every watcher.
func (j *job) emit(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// setState transitions the job and emits the matching state event.
// Transitions out of a terminal state are ignored (a cancel racing a
// completed job changes nothing).
func (j *job) setState(state, errMsg string) {
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.events = append(j.events, Event{Type: "state", Job: j.id, State: state, Error: errMsg, Experiment: j.req.Experiment})
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// attachWatcher registers an events-stream client.
func (j *job) attachWatcher() {
	j.mu.Lock()
	j.watchers++
	j.mu.Unlock()
}

// detachWatcher unregisters an events-stream client; when the job was
// submitted with CancelOnDisconnect and the last watcher left before the
// job finished, the job's context is cancelled — the disconnect
// propagates into the cycle loop.
func (j *job) detachWatcher() {
	j.mu.Lock()
	j.watchers--
	cancel := j.req.CancelOnDisconnect && j.watchers == 0 && !terminalState(j.state)
	j.mu.Unlock()
	if cancel {
		j.cancel()
	}
}

// runJob executes one dequeued job on a fresh session sharing the
// server's cache, streaming progress events as simulations complete.
func (s *Server) runJob(j *job) {
	if j.ctx.Err() != nil {
		// Cancelled while still queued (DELETE, watcher disconnect, or
		// server shutdown): never run, never partial.
		j.setState(StateCanceled, context.Cause(j.ctx).Error())
		s.canceled.Add(1)
		return
	}
	if s.memo != nil {
		if envelope, ok := s.memo.lookup(j.key()); ok {
			// A repeat of a finished job: its envelope is already known,
			// so no session runs and no progress events are emitted.
			j.setState(StateRunning, "")
			s.completed.Add(1)
			j.finish(envelope)
			return
		}
	}
	ctx := j.ctx
	if ms := s.effectiveTimeoutMs(j.req.TimeoutMs); ms > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	s.running.Add(1)
	defer s.running.Add(-1)
	defer func() {
		// A panic in the experiment itself (outside any runner) fails
		// this job; the worker goes on to the next one.
		if p := recover(); p != nil {
			s.failed.Add(1)
			j.setState(StateFailed, fmt.Sprintf("panic: %v", p))
		}
	}()
	j.setState(StateRunning, "")

	// Live observability is read off finished results: the innermost
	// runner sums the cycle counts of every simulation this job actually
	// executes. With a shared cache, hits and coalesced waits contribute
	// nothing — the stream reports real simulation work, not cache
	// traffic. Panics are recovered on both sides of the cache, so an
	// in-flight cache entry always completes and a panic anywhere in the
	// runner fails the job rather than the process.
	var sums simSums
	runner := recoverRunner(func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
		res, err := exp.DirectRun(ctx, bench, opts, cfg)
		if err == nil {
			sums.add(res)
		}
		return res, err
	})
	if s.cache != nil {
		runner = s.cache.Runner(runner)
	}
	if s.opts.WrapRunner != nil {
		runner = s.opts.WrapRunner(runner)
	}
	runner = recoverRunner(runner)

	start := time.Now()
	progress := func(experiment string, done, total int) {
		elapsed := time.Since(start)
		ev := Event{
			Type: "progress", Job: j.id, Experiment: experiment,
			Done: done, Total: total,
			ElapsedMs: elapsed.Milliseconds(),
		}
		ev.SimCycles, ev.FenceStallShare = sums.read()
		if secs := elapsed.Seconds(); secs > 0 {
			ev.SimCyclesPerSec = float64(ev.SimCycles) / secs
		}
		j.emit(ev)
	}

	session := exp.NewSession(runner, progress, j.req.Parallelism)
	data, err := j.spec.Run(ctx, session, j.scale)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.failed.Add(1)
			j.setState(StateFailed, "job timeout exceeded: "+err.Error())
		case errors.Is(err, context.Canceled):
			s.canceled.Add(1)
			j.setState(StateCanceled, err.Error())
		default:
			s.failed.Add(1)
			j.setState(StateFailed, err.Error())
		}
		return
	}
	envelope, err := j.spec.JSON(data, j.scale)
	if err != nil {
		s.failed.Add(1)
		j.setState(StateFailed, "encode envelope: "+err.Error())
		return
	}
	if s.memo != nil {
		envelope = s.memo.store(j.key(), envelope)
	}
	s.completed.Add(1)
	j.finish(envelope)
}

// envelopeKey names one memoized envelope. The determinism contract
// makes an envelope a pure function of the experiment and the scale, so
// nothing else of the request (parallelism, timeout, tenant) enters it.
type envelopeKey struct {
	experiment string
	scale      exp.Scale
}

// envelopeMemo holds the envelope of the first successful job of each
// key. The keys are the registry's experiments at two scales, a fixed
// set, so the memo needs no eviction.
type envelopeMemo struct {
	hits atomic.Uint64

	mu      sync.Mutex
	entries map[envelopeKey][]byte
	bytes   int
}

// lookup returns the memoized envelope of k, counting a hit.
func (m *envelopeMemo) lookup(k envelopeKey) ([]byte, bool) {
	m.mu.Lock()
	env, ok := m.entries[k]
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	}
	return env, ok
}

// store memoizes env under k unless k already holds an envelope, and
// returns the one the memo keeps, so that every job of a key shares one
// backing array.
func (m *envelopeMemo) store(k envelopeKey, env []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if kept, ok := m.entries[k]; ok {
		return kept
	}
	m.entries[k] = env
	m.bytes += len(env)
	return env
}

// size returns the number of memoized envelopes and their total bytes.
func (m *envelopeMemo) size() (entries, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), m.bytes
}

// simSums accumulates the cycle counts of a job's finished simulations.
// One lock covers all three sums, so a progress event never pairs the
// fence-stall cycles of one set of runs with the core cycles of another.
type simSums struct {
	mu                     sync.Mutex
	cycles                 int64
	coreCycles, fenceStall uint64
}

func (s *simSums) add(res kernels.Result) {
	s.mu.Lock()
	s.cycles += res.Cycles
	s.coreCycles += res.CoreCycles
	s.fenceStall += res.FenceStall
	s.mu.Unlock()
}

// read returns the simulated cycles so far and the fence-stall share of
// core time across the finished simulations: the same quantity as
// kernels.Result.FenceStallFraction, pooled over runs.
func (s *simSums) read() (cycles int64, share float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coreCycles > 0 {
		share = float64(s.fenceStall) / float64(s.coreCycles)
	}
	return s.cycles, share
}

// recoverRunner turns a panic inside next into that simulation's error.
// Runners execute on the session's pool goroutines, where nothing above
// them could recover the panic.
func recoverRunner(next exp.Runner) exp.Runner {
	return func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (res kernels.Result, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic in %s simulation: %v", bench, p)
			}
		}()
		return next(ctx, bench, opts, cfg)
	}
}
