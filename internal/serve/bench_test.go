package serve_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"sfence/internal/exp"
	"sfence/internal/results"
	"sfence/internal/serve"
)

// BenchmarkWarmJob times one warm job end to end: submit, follow the
// event stream to the end, fetch the envelope, all through httptest
// against a server whose envelope memo already holds the job. It is the
// per-request cost of a warm serve-mix job, without the run cache or a
// simulation.
func BenchmarkWarmJob(b *testing.B) {
	srv := serve.NewServer(serve.Options{Cache: results.NewMemCache(), Scale: exp.Quick, Workers: 1})
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		srv.Close()
		hs.Close()
	})
	client := &serve.Client{BaseURL: hs.URL}
	ctx := context.Background()
	req := serve.JobRequest{Experiment: "table4"}
	if _, err := client.Run(ctx, req, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := client.Run(ctx, req, nil); err != nil {
			b.Fatal(err)
		}
	}
}
