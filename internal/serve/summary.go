package serve

import (
	"net/http"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// JobSummary pairs a job's lifecycle status with the live analysis of its
// journal: phase wall-time attribution, cache effectiveness and the
// convergence curve, for running jobs as well as finished ones.
type JobSummary struct {
	Status JobStatus       `json:"status"`
	Report *analyze.Report `json:"report"`
}

// Summary analyzes the job's journal as it stands right now. For a running
// job the journal tail may be torn mid-write; the lenient reader drops an
// unterminated final line, so the analysis is always over complete events.
func (s *Server) Summary(id string) (JobSummary, error) {
	j := s.lookup(id)
	if j == nil {
		return JobSummary{}, ErrUnknownJob
	}
	events, err := obs.ReadJournalFile(filepath.Join(j.dir, journalFile))
	if err != nil {
		return JobSummary{}, err
	}
	return JobSummary{Status: j.snapshot(), Report: analyze.Analyze(events)}, nil
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	sum, err := s.Summary(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSONResponse(w, http.StatusOK, sum)
}
