package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
)

// JobSpec is a tuning request: which benchmark to tune and the search
// parameters. Zero values take server-side defaults (see normalize), so the
// minimal request is {"bench": "telecom_gsm"}.
type JobSpec struct {
	Bench    string `json:"bench"`
	Platform string `json:"platform,omitempty"` // see bench.PlatformByName
	Budget   int    `json:"budget,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Lambda   int    `json:"lambda,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	Feature  string `json:"feature,omitempty"` // see core.FeatureKindFromString
	Adaptive *bool  `json:"adaptive,omitempty"`
}

// maxLambda and maxBudget bound what one request may ask of the server:
// every iteration compiles about Lambda candidates per hot module, and the
// model-guided loop runs up to 6×Budget iterations. The paper's λ sweep is
// 3–15 and its largest budget 600.
const (
	maxLambda = 1024
	maxBudget = 100000
)

// normalize fills defaults and rejects requests the server cannot run, so
// every persisted spec is complete and re-runnable after a restart.
func (s *JobSpec) normalize() error {
	if s.Bench == "" {
		return fmt.Errorf("serve: spec needs a bench name")
	}
	if bench.ByName(s.Bench) == nil {
		return fmt.Errorf("serve: unknown benchmark %q", s.Bench)
	}
	plat, err := bench.PlatformByName(s.Platform)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.Platform = plat.Name
	kind, ok := core.FeatureKindFromString(s.Feature)
	if !ok {
		return fmt.Errorf("serve: unknown feature kind %q", s.Feature)
	}
	s.Feature = kind.String()
	if s.Budget == 0 {
		s.Budget = 50
	}
	if s.Budget < 0 || s.Budget > maxBudget {
		return fmt.Errorf("serve: budget %d outside 1..%d", s.Budget, maxBudget)
	}
	if s.Lambda < 0 || s.Lambda > maxLambda {
		return fmt.Errorf("serve: lambda %d outside 0..%d (0 takes the default)", s.Lambda, maxLambda)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return nil
}

// options maps the spec onto core tuner options.
func (s *JobSpec) options() core.Options {
	opts := core.DefaultOptions()
	opts.Budget = s.Budget
	if s.Lambda > 0 {
		opts.Lambda = s.Lambda
	}
	opts.Workers = s.Workers
	if s.Adaptive != nil {
		opts.Adaptive = *s.Adaptive
	}
	opts.Feature, _ = core.FeatureKindFromString(s.Feature) // validated by normalize
	return opts
}

// State is a job lifecycle state.
type State string

const (
	// StateQueued: accepted, waiting for a runner.
	StateQueued State = "queued"
	// StateRunning: a runner is executing the tuning run.
	StateRunning State = "running"
	// StateDone: finished within budget; result.json is written.
	StateDone State = "done"
	// StateFailed: the run returned a non-cancellation error.
	StateFailed State = "failed"
	// StateCancelled: stopped by a client DELETE.
	StateCancelled State = "cancelled"
	// StateInterrupted: stopped by a server drain; resumed on restart from
	// its journal.
	StateInterrupted State = "interrupted"
)

// terminal reports whether the state can no longer change (interrupted jobs
// come back as queued on restart, so interrupted is not terminal for the
// job's lifetime — but it is terminal for this server process).
func (s State) terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateInterrupted:
		return true
	}
	return false
}

// JobStatus is the wire and on-disk (state.json) representation of a job.
type JobStatus struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`
	Error string  `json:"error,omitempty"`
	// Resumes counts how many times the job was warm-started from its
	// journal after a server restart or drain.
	Resumes    int   `json:"resumes,omitempty"`
	CreatedNS  int64 `json:"created_ns,omitempty"`
	StartedNS  int64 `json:"started_ns,omitempty"`
	FinishedNS int64 `json:"finished_ns,omitempty"`
	// Progress: the last budget-consuming measurement's number and the
	// incumbent then, followed live from the job's journal events (see
	// progressSink) and persisted with every state transition.
	Measurements int     `json:"measurements,omitempty"`
	BestSpeedup  float64 `json:"best_speedup,omitempty"`
}

// JobResult is the completed-run summary persisted as result.json.
type JobResult struct {
	BestSpeedup  float64             `json:"best_speedup"`
	BestTime     float64             `json:"best_time_cycles"`
	BestSeqs     map[string][]string `json:"best_seqs"`
	HotModules   []string            `json:"hot_modules,omitempty"`
	Measurements int                 `json:"measurements"`
	Interrupted  bool                `json:"interrupted,omitempty"`
}

// job is the server-side runtime state around a JobStatus.
type job struct {
	mu     sync.Mutex
	status JobStatus
	dir    string
	// cancel aborts the running tuner; nil unless running.
	cancel context.CancelFunc
	// userCancel marks a client DELETE (vs a server drain), deciding whether
	// a context.Canceled run ends cancelled or interrupted.
	userCancel bool
	// done is closed when the job reaches a state terminal for this process.
	done chan struct{}
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// finish transitions to a terminal state, persists it and signals waiters.
// Caller must hold j.mu.
func (j *job) finishLocked(st State, errMsg string, nowNS int64) {
	j.status.State = st
	j.status.Error = errMsg
	j.status.FinishedNS = nowNS
	j.cancel = nil
	writeJSONAtomic(filepath.Join(j.dir, stateFile), &j.status)
	j.releaseLocked()
}

// releaseLocked closes done unless it is closed already. Caller must hold
// j.mu.
func (j *job) releaseLocked() {
	select {
	case <-j.done:
	default:
		close(j.done)
	}
}

const (
	stateFile   = "state.json"
	journalFile = "journal.jsonl"
	resultFile  = "result.json"
)

// writeJSONAtomic persists v as path via a same-directory temp file and
// rename, so a crash mid-write never leaves a torn JSON document behind.
func writeJSONAtomic(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
