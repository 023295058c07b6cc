package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

func fakeResponse(code int, body string) *http.Response {
	return &http.Response{StatusCode: code, Body: io.NopCloser(strings.NewReader(body))}
}

// decodeOrError must preserve the HTTP status, survive non-JSON error
// bodies (proxies, panic pages), and never read an unbounded body.
func TestDecodeOrErrorBodies(t *testing.T) {
	cases := []struct {
		name     string
		code     int
		body     string
		wantMsg  string
		exactMsg bool
	}{
		{"json error body", 503, `{"error":"queue full"}`, "queue full", true},
		{"non-json html body", 502, "<html>bad gateway</html>", "<html>bad gateway</html>", true},
		{"empty body", 500, "", "", true},
		{"whitespace body", 404, "  \n ", "", true},
		{"truncated json", 400, `{"error":"half`, `{"error":"half`, true},
		{"oversized body", 500, strings.Repeat("x", 1<<20), "xxx", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeOrError(fakeResponse(tc.code, tc.body), nil)
			var he *HTTPError
			if !errors.As(err, &he) {
				t.Fatalf("error %T is not *HTTPError", err)
			}
			if he.Status != tc.code {
				t.Fatalf("status = %d, want %d", he.Status, tc.code)
			}
			if tc.exactMsg && he.Message != tc.wantMsg {
				t.Fatalf("message = %q, want %q", he.Message, tc.wantMsg)
			}
			if !tc.exactMsg {
				if !strings.HasPrefix(he.Message, tc.wantMsg) || len(he.Message) > rawMessageCap+3 {
					t.Fatalf("oversized body not capped: %d bytes", len(he.Message))
				}
			}
			if !strings.Contains(he.Error(), fmt.Sprintf("HTTP %d", tc.code)) {
				t.Fatalf("error string lost the status: %q", he.Error())
			}
		})
	}
	// 2xx decodes into v as before.
	var got map[string]int
	if err := decodeOrError(fakeResponse(200, `{"n":3}`), &got); err != nil || got["n"] != 3 {
		t.Fatalf("2xx decode: %v %v", got, err)
	}
}

// Without -fleet, the runner registry endpoints answer 404 so agents keep
// retrying rather than treating the server as broken.
func TestRunnerEndpointsDisabled(t *testing.T) {
	s, _, c := newTestServer(t, t.TempDir())
	defer s.Drain(context.Background())
	_, err := c.Runners()
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusNotFound {
		t.Fatalf("Runners without fleet = %v, want HTTP 404", err)
	}
}

func TestRunnerEndpointsLifecycle(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Fleet: fleet.New(fleet.Options{HeartbeatTimeout: time.Minute})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	if got, err := c.Runners(); err != nil || len(got) != 0 {
		t.Fatalf("empty registry: %v %v", got, err)
	}
	// A runner URL the coordinator could not append /v1/batch to is a 400.
	for _, bad := range []string{"", "runner-a:8080", "ftp://runner-a", "http://runner-a/v1", "http://runner-a?x=1"} {
		body, _ := json.Marshal(fleet.RegisterRequest{URL: bad, Workers: 2})
		resp, err := http.Post(ts.URL+"/v1/runners", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register %q = HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
	body, _ := json.Marshal(fleet.RegisterRequest{URL: "http://runner-a/", Workers: 2})
	resp, err := http.Post(ts.URL+"/v1/runners", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info fleet.RunnerInfo
	if err := decodeOrError(resp, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.State != "healthy" || info.URL != "http://runner-a" {
		t.Fatalf("register = %+v", info)
	}

	runners, err := c.Runners()
	if err != nil || len(runners) != 1 || runners[0].ID != info.ID {
		t.Fatalf("runners = %+v, %v", runners, err)
	}

	resp, err = http.Post(ts.URL+"/v1/runners/"+info.ID+"/heartbeat", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("heartbeat = HTTP %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/runners/nope/heartbeat", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown heartbeat = HTTP %d, want 404", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runners/"+info.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("deregister = HTTP %d", resp.StatusCode)
	}
	if got, _ := c.Runners(); len(got) != 0 {
		t.Fatalf("registry not empty after deregister: %+v", got)
	}
}

// The serve-level determinism contract: the same job spec produces a
// canonically identical journal whether the server dispatches to a fleet
// of two runners or compiles everything in-process.
func TestFleetJobJournalMatchesLocal(t *testing.T) {
	spec := JobSpec{Bench: "telecom_gsm", Budget: 4, Workers: 2, Seed: 3}

	runJob := func(cfg Config) []obs.Event {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain(context.Background())
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for {
			cur, err := s.Job(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cur.State == StateDone {
				break
			}
			if cur.State.terminal() {
				t.Fatalf("job ended %s: %s", cur.State, cur.Error)
			}
			if time.Now().After(deadline) {
				t.Fatal("job did not finish")
			}
			time.Sleep(20 * time.Millisecond)
		}
		path, err := s.JournalPath(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return events
	}

	local := runJob(Config{Dir: t.TempDir()})

	rsA := &fleet.RunnerServer{Workers: 2}
	rsB := &fleet.RunnerServer{Workers: 2}
	tsA := httptest.NewServer(rsA.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(rsB.Handler())
	defer tsB.Close()
	coord := fleet.New(fleet.Options{HeartbeatTimeout: time.Minute})
	for _, u := range []string{tsA.URL, tsB.URL} {
		if _, err := coord.Register(u, 2); err != nil {
			t.Fatal(err)
		}
	}
	fleetEvents := runJob(Config{Dir: t.TempDir(), Fleet: coord})

	if mm := analyze.Diff(local, fleetEvents); mm != nil {
		t.Fatalf("fleet journal diverged from local journal: %+v", mm)
	}
	for _, e := range fleetEvents {
		if e.Type == "fleet-incident" {
			t.Fatalf("healthy fleet journaled an incident: %+v", e.Fields)
		}
	}
}
