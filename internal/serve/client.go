package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client talks to a running sfence-serve instance. It is the one client
// implementation shared by the end-to-end tests and sfence-bench
// (-server), so every consumer exercises the same wire protocol.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
	// Tenant, when non-empty, is sent as the X-Tenant header on every
	// request.
	Tenant string
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	return c.http().Do(req)
}

// apiError decodes the server's {"error": ...} body into a Go error.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("serve: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("serve: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Experiments lists the server's experiment registry.
func (c *Client) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	var infos []ExperimentInfo
	if err := c.getJSON(ctx, "/v1/experiments", &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Submit enqueues a job and returns its accepted status.
func (c *Client) Submit(ctx context.Context, req JobRequest) (JobStatus, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", req)
	if err != nil {
		return JobStatus{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return JobStatus{}, apiError(resp)
	}
	defer resp.Body.Close()
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.getJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// Cancel cancels a job; the cancellation propagates into the simulation
// cycle loop.
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	resp.Body.Close()
	return nil
}

// Events streams the job's NDJSON events, invoking fn per event, until
// the job reaches a terminal state, fn returns an error (which Events
// returns), or ctx is cancelled (which disconnects the stream — for
// CancelOnDisconnect jobs that cancels the job). The terminal state
// event is delivered to fn like any other.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	// The buffer starts at bufio's default size and grows to the cap
	// only for a long line; a reply is a few short lines.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxEventLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("serve: decode event: %w", err)
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// Result fetches a finished job's schema-versioned BENCH envelope bytes.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	// A known length reads into one buffer of that size instead of
	// growing one from 512 bytes; a length above the cap is not trusted
	// to size an allocation.
	var data []byte
	if n := resp.ContentLength; n >= 0 && n <= maxPresize {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read result: %w", err)
	}
	return data, nil
}

// maxEventLine caps the length of one NDJSON event line Events accepts.
const maxEventLine = 1 << 20

// maxPresize caps the buffer Result allocates up front from a response's
// Content-Length.
const maxPresize = 64 << 20

// Run is the convenience round trip: submit the job, follow its event
// stream (fn may be nil) until it terminates, and fetch the envelope.
// A failed or cancelled job returns the server's error.
func (c *Client) Run(ctx context.Context, req JobRequest, fn func(Event) error) ([]byte, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := c.Events(ctx, st.ID, fn); err != nil {
		return nil, err
	}
	return c.Result(ctx, st.ID)
}
