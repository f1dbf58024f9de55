package exp

import (
	"context"
	"sync"
)

// runParallel executes the jobs on at most limit workers and returns the
// first error (all started jobs are always waited for). Jobs run under a
// context derived from ctx that is cancelled as soon as one job fails,
// so its siblings stop early instead of simulating on for a result that
// will be thrown away, and jobs not yet started are never run. The error
// returned is the failing job's own, not the cancellation it caused.
// A cancelled ctx likewise stops dispatch; jobs already running observe
// it through their own ctx plumbing and surface ctx.Err() as their error.
func runParallel(ctx context.Context, limit int, jobs []func(context.Context) error) error {
	if limit < 1 {
		limit = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for _, job := range jobs {
		wg.Add(1)
		go func(job func(context.Context) error) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			if err := job(ctx); err != nil {
				fail(err)
			}
		}(job)
	}
	wg.Wait()
	return firstErr
}
