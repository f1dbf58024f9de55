package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"sfence"
	"sfence/internal/exp"
	"sfence/internal/serve"
)

// directEnvelope returns the envelope of a direct quick-scale lab run of
// experiment id.
func directEnvelope(t *testing.T, id string) []byte {
	t.Helper()
	res, err := sfence.NewLab(sfence.WithScale(sfence.Quick)).Run(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// get fetches url and returns the response with its body read.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServeRepliesCarryContentLength checks that a finished job's
// envelope and a JSON reply both declare their exact length, and that
// the bytes are what they were before the length was sent: the direct
// run's envelope, and the reference encoder's indented reply. Both
// bodies exceed the 2 KiB net/http buffers to work out a length itself,
// so without the handler's header they would go out chunked.
func TestServeRepliesCarryContentLength(t *testing.T) {
	_, client := startServer(t, serve.Options{Scale: exp.Quick})
	ctx := context.Background()
	st, err := client.Submit(ctx, serve.JobRequest{Experiment: "fig13"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, client, st.ID, serve.StateDone)

	resp, body := get(t, client.BaseURL+"/v1/jobs/"+st.ID+"/result")
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("result Content-Length %q, body %d bytes", got, len(body))
	}
	if want := directEnvelope(t, "fig13"); !bytes.Equal(body, want) {
		t.Error("served fig13 envelope differs from the direct run")
	}

	resp, body = get(t, client.BaseURL+"/v1/experiments")
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("experiments Content-Length %q, body %d bytes", got, len(body))
	}
	var infos []serve.ExperimentInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(infos); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("experiments reply differs from the reference encoder's bytes")
	}
}

// resultServer serves handler as the result endpoint of job "j" and
// returns a client for it.
func resultServer(t *testing.T, handler http.HandlerFunc) *serve.Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j/result", handler)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return &serve.Client{BaseURL: hs.URL}
}

// TestClientResultChunked checks that a body sent without a length
// (flushed mid-body, so chunked) still arrives whole.
func TestClientResultChunked(t *testing.T) {
	want := directEnvelope(t, "table4")
	client := resultServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Write(want[:len(want)/2])
		w.(http.Flusher).Flush()
		w.Write(want[len(want)/2:])
	})
	resp, _ := get(t, client.BaseURL+"/v1/jobs/j/result")
	if resp.ContentLength != -1 {
		t.Fatalf("test handler sent Content-Length %d; the chunked path is not exercised", resp.ContentLength)
	}
	got, err := client.Result(context.Background(), "j")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("chunked result: got %d bytes, want the %d-byte envelope", len(got), len(want))
	}
}

// TestClientResultShortBody checks that a body cut short of its
// Content-Length is an error, not a partial envelope.
func TestClientResultShortBody(t *testing.T) {
	want := directEnvelope(t, "table4")
	client := resultServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(want)))
		w.Write(want[:len(want)-100])
	})
	got, err := client.Result(context.Background(), "j")
	if err == nil {
		t.Fatalf("short body returned %d bytes and no error", len(got))
	}
	if got != nil {
		t.Errorf("short body returned %d bytes with the error %v", len(got), err)
	}
}
