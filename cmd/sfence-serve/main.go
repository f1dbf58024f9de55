// Command sfence-serve exposes the S-Fence reproduction as a long-running
// simulation service: an HTTP/JSON API over the experiment registry.
// Clients POST jobs into a bounded worker pool, stream NDJSON progress
// events with simulated-cycles/s and fence-stall share, and fetch
// the finished schema-versioned BENCH envelope — byte-identical to what a
// direct sfence-report run writes, because the simulator is deterministic
// and the serving layer adds no entropy to results.
//
// All jobs share one content-addressed run cache, so identical requests
// across tenants coalesce to a single simulation; -cache-max-bytes bounds
// the disk tier with LRU eviction. With the cache, a repeat of a finished
// (experiment, scale) job is answered from the first job's envelope
// without running a session. SIGINT/SIGTERM drains gracefully:
// submits are refused with 503 while queued and running jobs finish
// (up to -drain-timeout, after which they are cancelled mid-cycle-loop).
//
// Examples:
//
//	sfence-serve                          # :8080, quick scale, cache under .sfence-cache
//	sfence-serve -addr :9000 -scale full
//	sfence-serve -cache-max-bytes 1048576 # 1 MiB disk budget, LRU-evicted
//
//	curl -s localhost:8080/v1/experiments
//	curl -s -XPOST localhost:8080/v1/jobs -d '{"experiment":"table4"}'
//	curl -sN localhost:8080/v1/jobs/j1/events
//	curl -s localhost:8080/v1/jobs/j1/result
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sfence"
	"sfence/internal/exp"
	"sfence/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		scaleName     = flag.String("scale", "quick", `default experiment scale for jobs that name none ("quick" or "full")`)
		cacheDir      = flag.String("cache", ".sfence-cache", "shared run-cache directory")
		noCache       = flag.Bool("no-cache", false, "disable the shared run cache and the envelope memo: every job simulates")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 0, "disk-tier byte budget, LRU-evicted (0 = unbounded)")
		jobs          = flag.Int("jobs", 0, "worker-pool width: max concurrently running jobs (0 = GOMAXPROCS)")
		queueDepth    = flag.Int("queue", 16, "bounded queue depth for accepted-but-not-running jobs")
		jobTimeout    = flag.Duration("job-timeout", 10*time.Minute, "per-job timeout cap (0 = none)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before in-flight jobs are cancelled")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	var scale exp.Scale
	switch *scaleName {
	case "quick":
		scale = exp.Quick
	case "full":
		scale = exp.Full
	default:
		fail(fmt.Errorf("unknown scale %q (want \"quick\" or \"full\")", *scaleName))
	}

	var cache *sfence.RunCache
	if !*noCache {
		var err error
		cache, err = sfence.NewRunCacheLimited(*cacheDir, *cacheMaxBytes)
		if err != nil {
			fail(err)
		}
	}

	srv := serve.NewServer(serve.Options{
		Cache:         cache,
		Scale:         scale,
		Workers:       *jobs,
		QueueDepth:    *queueDepth,
		MaxJobTimeout: *jobTimeout,
	})

	// Event streams stay open for a whole job, so there is no write
	// timeout; slow or idle clients are bounded on the read side.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	log.Printf("sfence-serve: listening on %s (scale=%s, jobs=%d, queue=%d)",
		ln.Addr(), *scaleName, srv.Workers(), *queueDepth)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("sfence-serve: %v: draining (budget %s)", sig, *drainTimeout)
	case err := <-serveErr:
		fail(err)
	}

	// Drain first so /healthz flips to 503 and in-flight jobs finish,
	// then shut the listener down; a second signal aborts immediately.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigCh
		log.Printf("sfence-serve: second signal: aborting")
		cancel()
	}()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("sfence-serve: drain incomplete: %v (in-flight jobs cancelled)", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		log.Printf("sfence-serve: shutdown: %v", err)
	}
	<-serveErr // http.ErrServerClosed once Serve unwinds
	log.Printf("sfence-serve: stopped")
}
