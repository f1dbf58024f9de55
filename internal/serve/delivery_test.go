package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

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

// jobServer serves handler at GET /v1/jobs/j/<endpoint> and returns a
// client for it.
func jobServer(t *testing.T, endpoint string, handler http.HandlerFunc) *serve.Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j/"+endpoint, handler)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return &serve.Client{BaseURL: hs.URL}
}

// TestClientResultChunked checks that a body sent without a length
// (flushed mid-body, so chunked) still arrives whole.
func TestClientResultChunked(t *testing.T) {
	want := directEnvelope(t, "table4")
	client := jobServer(t, "result", func(w http.ResponseWriter, _ *http.Request) {
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
	client := jobServer(t, "result", func(w http.ResponseWriter, _ *http.Request) {
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

// eventServer serves body as the event stream of job "j" and returns a
// client for it.
func eventServer(t *testing.T, body []byte) *serve.Client {
	t.Helper()
	return jobServer(t, "events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(body)
	})
}

// eventLine is one NDJSON event line whose error text pads it to at
// least n bytes.
func eventLine(t *testing.T, state string, n int) ([]byte, serve.Event) {
	t.Helper()
	ev := serve.Event{Type: "state", Job: "j", State: state, Error: strings.Repeat("x", n)}
	line, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n'), ev
}

// TestClientEventsLongLine checks that an event line far longer than the
// scanner's starting buffer decodes intact, between two short lines.
func TestClientEventsLongLine(t *testing.T) {
	first, _ := eventLine(t, serve.StateQueued, 0)
	long, want := eventLine(t, serve.StateFailed, 256<<10)
	client := eventServer(t, slices.Concat(first, long))
	var got []serve.Event
	err := client.Events(context.Background(), "j", func(ev serve.Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != want {
		t.Fatalf("got %d events, want 2 with the long one intact", len(got))
	}
}

// TestClientEventsLineTooLong checks that a line above the 1 MiB cap
// ends the stream with an error instead of growing without bound or
// hanging.
func TestClientEventsLineTooLong(t *testing.T) {
	long, _ := eventLine(t, serve.StateFailed, 1<<20)
	client := eventServer(t, long)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := client.Events(ctx, "j", func(serve.Event) error {
		t.Error("a line above the cap reached the callback")
		return nil
	})
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("Events returned %v, want %v", err, bufio.ErrTooLong)
	}
}
