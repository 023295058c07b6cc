package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/fleet"
)

// Client talks to a citroend server.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8171".
	BaseURL string
	// HTTP overrides the transport; nil uses a client without timeouts
	// (event streams are long-lived).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

// HTTPError is a non-2xx server response: the status code plus the decoded
// error body (or, when the body is not the JSON error shape — a proxy's
// HTML page, a truncated response — its trimmed raw text). Callers can
// branch on Status with errors.As.
type HTTPError struct {
	Status  int
	Message string
}

func (e *HTTPError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("serve: HTTP %d", e.Status)
	}
	return fmt.Sprintf("serve: %s (HTTP %d)", e.Message, e.Status)
}

// maxErrorBody caps how much of an error response is read: enough for any
// real server error, small enough that a misdirected request to something
// streaming garbage can't balloon memory.
const maxErrorBody = 64 << 10

// rawMessageCap keeps non-JSON error bodies to a readable one-liner.
const rawMessageCap = 200

// decodeOrError maps non-2xx responses onto an *HTTPError and decodes 2xx
// bodies into v.
func decodeOrError(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		he := &HTTPError{Status: resp.StatusCode}
		var e errorBody
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			he.Message = e.Error
		} else if msg := strings.TrimSpace(string(body)); msg != "" {
			if len(msg) > rawMessageCap {
				msg = msg[:rawMessageCap] + "..."
			}
			he.Message = msg
		}
		return he
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Submit enqueues a tuning job.
func (c *Client) Submit(spec JobSpec) (JobStatus, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.http().Post(c.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	return st, decodeOrError(resp, &st)
}

// Job fetches one job's status.
func (c *Client) Job(id string) (JobStatus, error) {
	resp, err := c.http().Get(c.BaseURL + "/v1/jobs/" + id)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	return st, decodeOrError(resp, &st)
}

// Jobs lists every job.
func (c *Client) Jobs() ([]JobStatus, error) {
	resp, err := c.http().Get(c.BaseURL + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	var out []JobStatus
	return out, decodeOrError(resp, &out)
}

// Result fetches a completed job's summary.
func (c *Client) Result(id string) (JobResult, error) {
	resp, err := c.http().Get(c.BaseURL + "/v1/jobs/" + id + "/result")
	if err != nil {
		return JobResult{}, err
	}
	var res JobResult
	return res, decodeOrError(resp, &res)
}

// Summary fetches the live journal analysis for a job (running or done).
func (c *Client) Summary(id string) (JobSummary, error) {
	resp, err := c.http().Get(c.BaseURL + "/v1/jobs/" + id + "/summary")
	if err != nil {
		return JobSummary{}, err
	}
	var sum JobSummary
	return sum, decodeOrError(resp, &sum)
}

// Cancel stops a job and returns its post-cancellation status.
func (c *Client) Cancel(id string) (JobStatus, error) {
	req, err := http.NewRequest(http.MethodDelete, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	return st, decodeOrError(resp, &st)
}

// Events copies the job's JSONL event journal to w. With follow true the
// stream tails the run live until the job finishes.
func (c *Client) Events(ctx context.Context, id string, follow bool, w io.Writer) error {
	url := c.BaseURL + "/v1/jobs/" + id + "/events"
	if !follow {
		url += "?follow=0"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeOrError(resp, nil)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// Runners lists the fleet coordinator's registered runners (404 unless the
// server runs with -fleet).
func (c *Client) Runners() ([]fleet.RunnerInfo, error) {
	resp, err := c.http().Get(c.BaseURL + "/v1/runners")
	if err != nil {
		return nil, err
	}
	var out []fleet.RunnerInfo
	return out, decodeOrError(resp, &out)
}

// Wait polls until the job reaches a terminal state or ctx expires. poll
// seeds the first interval (default 200ms); each subsequent interval
// doubles up to a 3s ceiling and gets ±10% jitter, so long waits stop
// hammering the server and a crowd of waiting clients drifts apart instead
// of polling in lockstep.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	maxPoll := 3 * time.Second
	if poll > maxPoll {
		maxPoll = poll
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	interval := poll
	for {
		st, err := c.Job(id)
		if err != nil {
			return st, err
		}
		if st.State.terminal() {
			return st, nil
		}
		sleep := time.Duration(float64(interval) * (0.9 + 0.2*rng.Float64()))
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(sleep):
		}
		if interval *= 2; interval > maxPoll {
			interval = maxPoll
		}
	}
}
