// Package fleet is the distributed evaluation layer: a coordinator that
// partitions each tuner iteration's candidate pool into per-module batches
// and dispatches them to remote runner processes, plus the runner-side
// server that executes batches against a bench.Evaluator.
//
// Dispatch is sticky: every batch for a module goes to the runner selected
// by hashing the module name over the healthy runner set, so each runner's
// compile cache evolves exactly like the single shared cache's restriction
// to its modules. Runtime measurements never leave the coordinator — before
// each one the selected candidate is warm-compiled locally (uncounted) so
// the measure path's compile hits exactly as it does single-process. With a
// healthy fixed fleet this makes the canonical run journal byte-identical
// to a single-process run at any -workers count; see DESIGN.md
// "Distributed evaluation" for the full argument.
//
// Failure handling: each batch is posted to one runner at a time, each
// attempt under a deadline. An attempt that fails or runs past its deadline
// is retried on the next runner with capped exponential backoff; runners
// failing repeatedly are quarantined and runners whose heartbeats stop are
// marked lost — both are excluded from dispatch. When the attempts are used
// up, or no runner is usable, the coordinator executes the batch itself.
// Every such anomaly is journalled as a fleet-incident event of the fan-out
// that caused it.
package fleet

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// JobConfig identifies the evaluation environment a batch must run in. A
// runner lazily builds (and caches) one bench.Evaluator per distinct
// (bench, platform, seed) — everything that changes compile/measure
// behaviour — so batches from the same job always hit the same caches.
// Feature only selects what the runner extracts per request.
type JobConfig struct {
	Bench    string `json:"bench"`
	Platform string `json:"platform"` // see bench.PlatformByName
	Seed     int64  `json:"seed"`
	Feature  string `json:"feature"` // see core.FeatureKindFromString
}

// BatchRequest is one dispatched batch: one module's specs of a fan-out, in
// the fan-out's order. The runner compiles them in parallel.
type BatchRequest struct {
	ID     string             `json:"id"`
	Config JobConfig          `json:"config"`
	Specs  []core.CompileSpec `json:"specs"`
}

// BatchResult is a runner's response: per-spec outcomes in request order
// plus the change the batch caused in the runner evaluator's own counter
// rows (Counters().Owned(): canonical, the cache's Env rows and cow_*, not
// the process-global ones; cache_bytes is a net byte change, so
// eviction inside a batch subtracts). The coordinator folds exactly one
// accepted delta per batch into the job's aggregated counters.
type BatchResult struct {
	ID    string                `json:"id"`
	Items []core.CompileOutcome `json:"items"`
	Delta obs.CounterSet        `json:"delta"`
}

// RunnerInfo is the registry view of one runner, served by the
// coordinator's /v1/runners listing.
type RunnerInfo struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	Workers int    `json:"workers,omitempty"`
	// State is "healthy", "lost" (heartbeat timeout) or "quarantined"
	// (repeated batch failures). Only healthy runners receive batches.
	State        string `json:"state"`
	Batches      int64  `json:"batches"`
	Failures     int64  `json:"failures,omitempty"`
	RegisteredNS int64  `json:"registered_ns"`
	LastBeatNS   int64  `json:"last_beat_ns"`
}

// RegisterRequest is the body of POST /v1/runners.
type RegisterRequest struct {
	URL     string `json:"url"`
	Workers int    `json:"workers,omitempty"`
}
