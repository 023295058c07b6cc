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
// Failure handling: batches on runners that fail or vanish are retried on
// the next runner with capped exponential backoff; straggler batches past a
// deadline are stolen (duplicated onto another runner, first completion
// wins, the loser's result is discarded exactly once); runners failing
// repeatedly are quarantined and runners whose heartbeats stop are marked
// lost — both are excluded from dispatch. When no runner is usable the
// coordinator executes the batch itself. Every such anomaly is journalled
// as a fleet-incident event.
package fleet

import (
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/passes"
)

// JobConfig identifies the evaluation environment a batch must run in. A
// runner lazily builds (and caches) one bench.Evaluator per distinct
// config, so batches from the same job always hit the same caches.
type JobConfig struct {
	Bench    string `json:"bench"`
	Platform string `json:"platform"` // "arm" (default) or "x86"
	Seed     int64  `json:"seed"`
	Feature  string `json:"feature"` // stats|autophase|tokenmix|rawseq ("" = stats)
}

// key is the evaluator identity: everything that changes compile/measure
// behaviour. Feature is per-request (it only selects what the runner
// extracts), so it is not part of the identity.
func (c JobConfig) key() string {
	p := c.Platform
	if p == "" {
		p = "arm"
	}
	return c.Bench + "|" + p + "|" + itoa64(c.Seed)
}

func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// platform resolves the JobConfig's platform name.
func (c JobConfig) platform() bench.Platform {
	if c.Platform == "x86" {
		return bench.X86()
	}
	return bench.ARM()
}

// BatchRequest is one dispatched batch: an ordered spec list plus the group
// structure the runner must honour (serial within a group, parallel across).
type BatchRequest struct {
	ID     string           `json:"id"`
	Config JobConfig        `json:"config"`
	Specs  []bench.TaskSpec `json:"specs"`
	Groups [][]int          `json:"groups"`
}

// WireOutcome is one spec's result on the wire. Feature values are float64
// and survive JSON round-trips bit-for-bit, which is what lets the
// coordinator's journal stay byte-identical to a single-process run.
type WireOutcome struct {
	Ok      bool               `json:"ok"`
	Err     string             `json:"err,omitempty"`
	Feature map[string]float64 `json:"feature,omitempty"`
	Stats   passes.Stats       `json:"stats,omitempty"`
	WallNS  int64              `json:"wall_ns"`
}

// BatchResult is a runner's response: per-spec outcomes in request order
// plus the counter delta the batch caused on the runner's evaluator (see
// bench.Evaluator.RunBatch). The coordinator folds exactly one accepted delta
// per batch into the job's aggregated counters.
type BatchResult struct {
	ID    string         `json:"id"`
	Items []WireOutcome  `json:"items"`
	Delta obs.CounterSet `json:"delta"`
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
