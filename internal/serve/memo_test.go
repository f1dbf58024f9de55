package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"sfence/internal/exp"
	"sfence/internal/results"
)

// TestServeEnvelopeMemoSharesBytes is the retention soak for repeat jobs:
// 200 memo hits on the 1.3 MB stats envelope must all hold one backing
// array, and the live heap must grow by little more than the job records
// themselves. If each job kept its own copy, the copies alone would be
// about 260 MiB.
func TestServeEnvelopeMemoSharesBytes(t *testing.T) {
	s := NewServer(Options{Cache: results.NewMemCache(), Scale: exp.Quick, Workers: 1})
	defer s.Close()
	submit := func() *job {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"experiment":"stats"}`)))
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusAccepted || err != nil {
			t.Fatalf("submit: HTTP %d %s (%v)", rec.Code, rec.Body, err)
		}
		s.jobsMu.Lock()
		defer s.jobsMu.Unlock()
		return s.jobs[st.ID]
	}
	result := func(j *job) []byte {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.result
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	wait := func(what string, j *job) {
		t.Helper()
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
			st := j.status()
			if st.State == StateDone {
				return
			}
			if terminalState(st.State) || time.Now().After(deadline) {
				t.Fatalf("%s stats job: %+v, want done", what, st)
			}
		}
	}

	first := submit()
	wait("cold", first)
	want := result(first)
	if len(want) < 1<<20 {
		t.Fatalf("stats envelope is %d bytes, want over 1 MiB", len(want))
	}

	const repeats = 200
	before := liveHeap()
	for i := 0; i < repeats; i++ {
		j := submit()
		wait("repeat", j)
		if got := result(j); len(got) != len(want) || &got[0] != &want[0] {
			t.Fatalf("repeat %d holds its own %d-byte envelope, want the memo's shared bytes", i, len(got))
		}
	}
	if grown := liveHeap() - before; grown > 4<<20 {
		t.Errorf("live heap grew %.1f MiB over %d memo hits, want at most 4 MiB", float64(grown)/(1<<20), repeats)
	}
	if n := s.memo.hits.Load(); n != repeats {
		t.Errorf("memo hits %d, want %d", n, repeats)
	}
}
