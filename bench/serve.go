package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/results"
	"sfence/internal/serve"
	"sfence/internal/stats"
)

// serveMixIDs are the experiments of the serve-mix. They run in registry
// order. The stats envelope (about 1.3 MB) is the largest by far, so it
// sets the warm tail.
var serveMixIDs = []string{
	"fig14",
	"ablation/fsb-entries", "ablation/fss-depth", "ablation/store-buffer",
	"ablation/fifo-store-buffer", "ablation/finer-fences", "ablation/fss-recovery",
	"table4", "hwcost", "stats",
}

const (
	// warmJobs is the length of a round's warm phase.
	warmJobs = 300
	// warmClients is the number of closed-loop clients in the warm
	// phase: one per CPU of the 2-CPU host the baseline was taken on.
	warmClients = 2
)

// mixExp is one experiment of the mix with the envelope a direct,
// server-less run produced for it in set-up.
type mixExp struct {
	spec     results.ExperimentSpec
	envelope []byte
	payload  any
}

func mixSpecs() []results.ExperimentSpec {
	var out []results.ExperimentSpec
	for _, s := range results.Experiments() {
		if slices.Contains(serveMixIDs, s.ID) {
			out = append(out, s)
		}
	}
	return out
}

// directMix runs the mix at quick scale without the server, through one
// memory run cache, as the cold phase does through the server's cache. It
// returns the envelopes, the committed instructions the simulations it ran
// executed, and the filled cache.
func directMix(ctx context.Context, specs []results.ExperimentSpec) ([]mixExp, float64, *results.RunCache, error) {
	cache := results.NewMemCache()
	var committed atomic.Uint64
	miss := func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
		res, err := exp.DirectRun(ctx, bench, opts, cfg)
		committed.Add(res.Stats.Committed)
		return res, err
	}
	session := exp.NewSession(cache.Runner(miss), nil, 0)
	out := make([]mixExp, len(specs))
	for i, spec := range specs {
		data, err := spec.Run(ctx, session, exp.Quick)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("%s: %w", spec.ID, err)
		}
		env, err := spec.JSON(data, exp.Quick)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("%s: encode: %w", spec.ID, err)
		}
		out[i] = mixExp{spec: spec, envelope: env, payload: data}
	}
	return out, float64(committed.Load()), cache, nil
}

// serveRound is one fresh server and cache, driven through a cold phase
// and a warm phase.
type serveRound struct {
	pass   int
	traced bool
	coldS  float64
	warmS  float64
	coldMs []float64   // each cold job's submit-to-last-byte time, in mix order
	warmMs [][]float64 // the warm jobs' times, by mix index
	jobs   int
	failed int
	stats  stats.Snapshot // the server's registry after the warm phase
	mem    memDelta
}

// phase is what the runner spans of the current phase attach to.
type phase struct {
	name string // "cold" or "warm"
	span int
	op   int
}

func serveMix(ctx context.Context, cfg config) (*report, error) {
	specs := mixSpecs()
	if len(specs) != len(serveMixIDs) {
		return nil, fmt.Errorf("serve-mix: registry has %d of the %d mix experiments", len(specs), len(serveMixIDs))
	}
	rep := newReport()

	// Set-up: the direct envelopes every served job is checked against.
	var mix []mixExp
	var instrs float64
	var warmCache *results.RunCache
	setup := make([]float64, cfg.setupReps)
	for i := range setup {
		t0 := time.Now()
		m, n, cache, err := directMix(ctx, specs)
		setup[i] = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for j := range mix {
			if !bytes.Equal(mix[j].envelope, m[j].envelope) {
				return nil, fmt.Errorf("set-up: %s envelope differs between direct runs", m[j].spec.ID)
			}
		}
		mix, instrs, warmCache = m, n, cache
	}
	tmp := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		rep.tr = tr
	}
	var plain, traced []serveRound
	start := time.Now()
	for i := 0; len(plain) == 0 || (cfg.trace && len(traced) == 0) || time.Since(start) < cfg.measure; i++ {
		var rtr *tracer
		if cfg.trace && i%2 == 1 {
			rtr = tr
		}
		before := readMem()
		r, err := runRound(ctx, tmp, cfg.seed, i, mix, rtr)
		if err != nil {
			return nil, err
		}
		r.mem = memSince(before)
		rep.attempted += r.jobs
		rep.failed += r.failed
		if r.traced {
			if err := traceDirect(ctx, tr, i, mix, warmCache); err != nil {
				return nil, err
			}
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	rep.info["rounds"] = len(plain)
	rep.info["tracedRounds"] = len(traced)
	rep.info["coldJobsPerRound"] = len(mix)
	rep.info["warmJobsPerRound"] = warmJobs
	rep.info["warmClients"] = warmClients
	rep.info["coldKinstrPerRound"] = instrs / 1e3

	// Each job kind counts at its fastest over the timed rounds, as on
	// the sim-* workloads: interference only ever adds time.
	bestCold := make([]float64, len(mix))
	bestWarm := make([]float64, len(mix))
	for j := range mix {
		bestCold[j] = minOf(plain, func(r serveRound) float64 { return r.coldMs[j] })
		var warm []float64
		for _, r := range plain {
			warm = append(warm, r.warmMs[j]...)
		}
		bestWarm[j] = quantile(warm, 0)
	}
	rep.e2e["setup_s"] = median(setup)
	rep.e2e["sim_kips"] = instrs / sum(bestCold)
	rep.e2e["op_ms_geomean"] = geomean(bestWarm)
	rep.e2e["op_ms_max"] = quantile(bestWarm, 1)

	if cfg.trace {
		serveLayerMetrics(rep.layers, tr.byPass(), traced)
		if err := setRuntimeLayers(rep.layers, plain, func(r serveRound) memDelta { return r.mem }); err != nil {
			return nil, err
		}
		wall := func(r serveRound) float64 { return r.coldS + r.warmS }
		rep.layers["trace.overhead"] = minOf(traced, wall)/minOf(plain, wall) - 1
	}
	return rep, nil
}

// runRound starts a fresh server over a fresh disk run cache, submits
// every experiment of the mix once from one client (cold), then lets two
// closed-loop clients send warmJobs jobs drawn from the mix (warm). With
// tr, it records client-side spans for every job and a span around every
// runner call the server makes.
func runRound(ctx context.Context, tmp string, seed int64, pass int, mix []mixExp, tr *tracer) (r serveRound, err error) {
	r = serveRound{pass: pass, traced: tr != nil, warmMs: make([][]float64, len(mix))}
	dir, err := os.MkdirTemp(tmp, "serve-cache-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	cache, err := results.NewRunCache(dir)
	if err != nil {
		return r, err
	}

	// The sfence-serve defaults: quick scale, GOMAXPROCS workers, a
	// 16-deep queue and a 10-minute job timeout.
	opts := serve.Options{Cache: cache, Scale: exp.Quick, QueueDepth: 16, MaxJobTimeout: 10 * time.Minute}
	var cur atomic.Pointer[phase]
	if tr != nil {
		opts.WrapRunner = func(next exp.Runner) exp.Runner {
			return func(ctx context.Context, bench string, o kernels.Options, c machine.Config) (kernels.Result, error) {
				start := time.Now()
				res, err := next(ctx, bench, o, c)
				ph := cur.Load()
				tr.interval("results."+ph.name+".runner", ph.span, ph.op, start, time.Now())
				return res, err
			}
		}
	}
	srv := serve.NewServer(opts)
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		if derr := srv.Drain(ctx); err == nil {
			err = derr
		}
	}()
	client := &serve.Client{BaseURL: hs.URL, HTTP: hs.Client()}

	begin := func(name string) *phase {
		ph := &phase{name: name, span: -1, op: -1}
		if tr != nil {
			ph.op = tr.newOp(pass)
			ph.span = tr.open("serve."+name, -1, ph.op)
		}
		cur.Store(ph)
		return ph
	}
	end := func(ph *phase) {
		if tr != nil {
			tr.close(ph.span)
		}
	}
	record := func(err error) {
		r.jobs++
		if err != nil {
			r.failed++
			fmt.Println("job:", err)
		}
	}

	ph := begin("cold")
	t0 := time.Now()
	for _, m := range mix {
		d, err := runJob(ctx, client, m, tr, ph, pass)
		r.coldMs = append(r.coldMs, float64(d.Nanoseconds())/1e6)
		record(err)
	}
	r.coldS = time.Since(t0).Seconds()
	end(ph)

	rng := rand.New(rand.NewPCG(uint64(seed), uint64(pass)))
	picks := make([]int, warmJobs)
	for i := range picks {
		picks[i] = rng.IntN(len(mix))
	}
	ph = begin("warm")
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 = time.Now()
	for range warmClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(picks)) || ctx.Err() != nil {
					return
				}
				j := picks[i]
				d, err := runJob(ctx, client, mix[j], tr, ph, pass)
				mu.Lock()
				r.warmMs[j] = append(r.warmMs[j], float64(d.Nanoseconds())/1e6)
				record(err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.warmS = time.Since(t0).Seconds()
	end(ph)
	r.stats = srv.StatsRegistry().Snapshot()
	return r, ctx.Err()
}

// runJob sends one job through the service, closed-loop: submit, follow
// the NDJSON event stream to a terminal state, fetch the envelope. It
// returns the submit-to-last-byte time, and an error unless the job ended
// done with the envelope the direct run produced.
func runJob(ctx context.Context, c *serve.Client, m mixExp, tr *tracer, ph *phase, pass int) (time.Duration, error) {
	t0 := time.Now()
	st, err := c.Submit(ctx, serve.JobRequest{Experiment: m.spec.ID})
	if err != nil {
		return time.Since(t0), fmt.Errorf("%s: submit: %w", m.spec.ID, err)
	}
	tSubmit := time.Now()
	var tRunning, tTerminal time.Time
	state := ""
	err = c.Events(ctx, st.ID, func(ev serve.Event) error {
		if ev.Type != "state" {
			return nil
		}
		switch ev.State {
		case serve.StateQueued:
		case serve.StateRunning:
			tRunning = time.Now()
		default:
			tTerminal, state = time.Now(), ev.State
		}
		return nil
	})
	if err != nil {
		return time.Since(t0), fmt.Errorf("%s: events: %w", m.spec.ID, err)
	}
	if state != serve.StateDone {
		return time.Since(t0), fmt.Errorf("%s: job ended %q", m.spec.ID, state)
	}
	body, err := c.Result(ctx, st.ID)
	tEnd := time.Now()
	if err != nil {
		return tEnd.Sub(t0), fmt.Errorf("%s: result: %w", m.spec.ID, err)
	}
	if !bytes.Equal(body, m.envelope) {
		return tEnd.Sub(t0), fmt.Errorf("%s: served envelope differs from the direct run", m.spec.ID)
	}
	if tr != nil {
		op := tr.newOp(pass)
		prefix := "serve." + ph.name + "."
		job := tr.interval(prefix+"job", ph.span, op, t0, tEnd)
		tr.interval(prefix+"submit", job, op, t0, tSubmit)
		tr.interval(prefix+"queue_wait", job, op, tSubmit, tRunning)
		tr.interval(prefix+"run", job, op, tRunning, tTerminal)
		tr.interval(prefix+"result", job, op, tTerminal, tEnd)
	}
	return tEnd.Sub(t0), nil
}

// traceDirect times, outside the server, the two calls a warm job
// reduces to: spec.Run on a session whose cache already holds every
// simulation, and spec.JSON on the payload.
func traceDirect(ctx context.Context, tr *tracer, pass int, mix []mixExp, warm *results.RunCache) error {
	session := exp.NewSession(warm.Runner(exp.DirectRun), nil, 0)
	for _, m := range mix {
		op := tr.newOp(pass)
		t0 := time.Now()
		if _, err := m.spec.Run(ctx, session, exp.Quick); err != nil {
			return fmt.Errorf("%s: warm run: %w", m.spec.ID, err)
		}
		t1 := time.Now()
		if _, err := m.spec.JSON(m.payload, exp.Quick); err != nil {
			return fmt.Errorf("%s: encode: %w", m.spec.ID, err)
		}
		tr.interval("exp.warm_run", -1, op, t0, t1)
		tr.interval("results.encode", -1, op, t1, time.Now())
	}
	return nil
}

// serveLayerMetrics derives the service layers' metrics from the traced
// rounds: times from the fastest round, counts from the median one.
func serveLayerMetrics(layers map[string]float64, spans map[int]layerTimes, traced []serveRound) {
	perJob := func(name, ph string) func(serveRound) float64 {
		return func(r serveRound) float64 {
			lt := spans[r.pass]
			return ratio(sum(lt.durMs[name]), lt.count("serve."+ph+".job"))
		}
	}
	for _, ph := range []string{"cold", "warm"} {
		for _, part := range []string{"submit", "queue_wait", "run", "result"} {
			layers["serve."+ph+"."+part+"_ms"] = minOf(traced, perJob("serve."+ph+"."+part, ph))
		}
	}
	layers["results.cold.runner_ms"] = minOf(traced, perJob("results.cold.runner", "cold"))
	layers["results.warm.runner_us_per_call"] = minOf(traced, func(r serveRound) float64 {
		lt := spans[r.pass]
		return ratio(sum(lt.durMs["results.warm.runner"])*1e3, lt.count("results.warm.runner"))
	})
	layers["results.runner_calls_per_job"] = medianOf(traced, func(r serveRound) float64 {
		lt := spans[r.pass]
		return ratio(lt.count("results.cold.runner")+lt.count("results.warm.runner"),
			lt.count("serve.cold.job")+lt.count("serve.warm.job"))
	})
	layers["results.encode_ms"] = minOf(traced, func(r serveRound) float64 { return mean(spans[r.pass].durMs["results.encode"]) })
	layers["results.encode_ms_max"] = minOf(traced, func(r serveRound) float64 { return quantile(spans[r.pass].durMs["results.encode"], 1) })
	layers["exp.warm_run_ms"] = minOf(traced, func(r serveRound) float64 { return mean(spans[r.pass].durMs["exp.warm_run"]) })

	stat := func(name string) func(serveRound) float64 {
		return func(r serveRound) float64 { return float64(r.stats.UValue(name)) }
	}
	layers["serve.cache.hit_ratio"] = medianOf(traced, func(r serveRound) float64 {
		hits, misses := stat("serve.cache.hits")(r), stat("serve.cache.misses")(r)
		return ratio(hits, hits+misses)
	})
	layers["serve.cache.misses"] = medianOf(traced, stat("serve.cache.misses"))
	layers["serve.cache.disk_bytes"] = medianOf(traced, stat("serve.cache.disk_bytes"))
	layers["serve.jobs.failed"] = medianOf(traced, stat("serve.jobs.failed"))
	layers["serve.jobs.rejected"] = medianOf(traced, stat("serve.jobs.rejected"))
}
