package exp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunParallelCancelsSiblings fails one job at once while its sibling
// runs until its context is cancelled: runParallel must cancel the
// sibling and return the failing job's own error, not the cancellation.
func TestRunParallelCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		done <- runParallel(context.Background(), 2, []func(context.Context) error{
			func(ctx context.Context) error {
				<-ctx.Done()
				return ctx.Err()
			},
			func(context.Context) error { return boom },
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("runParallel returned %v, want %v", err, boom)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runParallel did not return after a job failed")
	}
}
