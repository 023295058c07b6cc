package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/fleet"
)

// ErrFleetDisabled is returned by the runner endpoints when the server was
// started without a fleet coordinator (citroend -fleet).
var ErrFleetDisabled = errors.New("serve: fleet dispatch not enabled")

func (s *Server) handleRunnerRegister(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Fleet == nil {
		writeError(w, ErrFleetDisabled)
		return
	}
	var req fleet.RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, err)
		return
	}
	info, err := s.cfg.Fleet.Register(req.URL, req.Workers)
	if err != nil {
		writeError(w, err) // a malformed runner url: 400
		return
	}
	writeJSONResponse(w, http.StatusOK, info)
}

func (s *Server) handleRunnerList(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Fleet == nil {
		writeError(w, ErrFleetDisabled)
		return
	}
	runners := s.cfg.Fleet.Runners()
	if runners == nil {
		runners = []fleet.RunnerInfo{}
	}
	writeJSONResponse(w, http.StatusOK, runners)
}

func (s *Server) handleRunnerHeartbeat(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Fleet == nil {
		writeError(w, ErrFleetDisabled)
		return
	}
	if err := s.cfg.Fleet.Heartbeat(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRunnerDeregister(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Fleet == nil {
		writeError(w, ErrFleetDisabled)
		return
	}
	if !s.cfg.Fleet.Deregister(r.PathValue("id")) {
		writeError(w, fleet.ErrUnknownRunner)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
