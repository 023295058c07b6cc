package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/fleet"
)

// cancelWait bounds how long DELETE blocks for the job to actually stop;
// the tuner checks its context between steps, so this is generous.
const cancelWait = 2 * time.Second

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a JobSpec, returns the queued JobStatus
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        one job's status
//	GET    /v1/jobs/{id}/result the completed job's result.json
//	GET    /v1/jobs/{id}/events stream the JSONL event journal (live tail;
//	                            ?follow=0 dumps the current contents)
//	GET    /v1/jobs/{id}/summary full journal analysis (works on running
//	                            jobs; its report carries the phase attribution)
//	DELETE /v1/jobs/{id}        cancel, waits up to 2s for the job to stop
//	GET    /healthz             liveness + backlog
//
// With a fleet coordinator configured (citroend -fleet), the runner
// registry is exposed too:
//
//	POST   /v1/runners                register a runner {url, workers}
//	GET    /v1/runners                list runners and their health
//	POST   /v1/runners/{id}/heartbeat refresh liveness (404 → re-register)
//	DELETE /v1/runners/{id}           deregister
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/summary", s.handleSummary)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/runners", s.handleRunnerRegister)
	mux.HandleFunc("GET /v1/runners", s.handleRunnerList)
	mux.HandleFunc("POST /v1/runners/{id}/heartbeat", s.handleRunnerHeartbeat)
	mux.HandleFunc("DELETE /v1/runners/{id}", s.handleRunnerDeregister)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return fleet.BoundBodies(mux, maxBodyBytes, bodyReadTimeout)
}

// maxBodyBytes caps a request body; a job spec or a runner registration is
// a few hundred bytes.
const maxBodyBytes = 1 << 20

// bodyReadTimeout bounds how long a handler waits for its request body
// (fleet.BoundBodies); a variable so tests can shorten it.
var bodyReadTimeout = 30 * time.Second

func writeJSONResponse(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeJSONResponse(w, http.StatusNotFound, errorBody{err.Error()})
	case errors.Is(err, fleet.ErrUnknownRunner), errors.Is(err, ErrFleetDisabled):
		writeJSONResponse(w, http.StatusNotFound, errorBody{err.Error()})
	case errors.Is(err, ErrQueueFull):
		writeJSONResponse(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSONResponse(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	default:
		writeJSONResponse(w, http.StatusBadRequest, errorBody{err.Error()})
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, err)
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSONResponse(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSONResponse(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSONResponse(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	path, err := s.ResultPath(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var res JobResult
	if err := readJSON(path, &res); err != nil {
		writeJSONResponse(w, http.StatusNotFound, errorBody{"no result yet"})
		return
	}
	writeJSONResponse(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	_, done, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	select {
	case <-done:
	case <-time.After(cancelWait):
	case <-r.Context().Done():
	}
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSONResponse(w, http.StatusOK, st)
}

// handleEvents streams the job's JSONL journal. In follow mode (default) it
// tails the file — polling for appended events — until the job reaches a
// terminal state and the tail is fully flushed, or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path, err := s.JournalPath(id)
	if err != nil {
		writeError(w, err)
		return
	}
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")

	j := s.lookup(id)
	flusher, _ := w.(http.Flusher)
	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	// copyNew streams bytes appended since the last call.
	copyNew := func() bool {
		if f == nil {
			f, err = os.Open(path)
			if err != nil {
				return false // journal not created yet
			}
		}
		n, _ := io.Copy(w, f)
		if n > 0 && flusher != nil {
			flusher.Flush()
		}
		return n > 0
	}

	copyNew()
	if !follow {
		return
	}
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		terminal := j.snapshot().State.terminal()
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
		wrote := copyNew()
		// Stop only after a quiet read past the terminal transition, so the
		// final run-end event is not cut off.
		if terminal && !wrote {
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	n, backlog := len(s.jobs), len(s.queue)
	s.mu.Unlock()
	writeJSONResponse(w, http.StatusOK, map[string]any{
		"ok":       !draining,
		"draining": draining,
		"jobs":     n,
		"backlog":  backlog,
	})
}
