package core

import (
	"errors"
	"fmt"
)

// CheckpointVersion is the current checkpoint format version. Loaders reject
// other versions instead of silently misinterpreting state.
const CheckpointVersion = 1

// Observation is one budget-consuming runtime measurement: the module that
// was rebuilt, the pass sequence applied to it, and the measured relative
// time y = time/baseline (lower is better). The sequence is stored by pass
// name so a checkpoint survives vocabulary reordering between binaries.
type Observation struct {
	Module string   `json:"module"`
	Seq    []string `json:"seq"`
	Y      float64  `json:"y"`
}

// Checkpoint is a durable snapshot of tuner state, written by the
// Options.Checkpoint hook and re-ingested via Options.ResumeFrom. The
// observed (sequence, y) pairs are replayed as warm-start observations —
// each is recompiled (cheap, and usually a compiled-module cache hit) to
// rebuild its statistics features, then taken in with its recorded y
// instead of being re-measured — so a restarted run reconstructs its
// incumbent, its generators' state and its GP training set without spending
// any of the remaining measurement budget.
type Checkpoint struct {
	Version int `json:"version"`
	// Seed is the RNG seed of the run that wrote the checkpoint. A resume
	// must run under the same seed, so that the replayed warm start and what
	// follows it are those of the interrupted run.
	Seed int64 `json:"seed"`
	// Measurements is the budget consumed so far (== len(Observations)).
	Measurements int `json:"measurements"`
	// Iteration is the model-guided iteration count at checkpoint time; a
	// resumed run's model-guided loop continues from it.
	Iteration int `json:"iteration"`
	// BestSpeedup is the incumbent program speedup over -O3.
	BestSpeedup float64 `json:"best_speedup"`
	// Observations is the full measurement history in measurement order.
	Observations []Observation `json:"observations"`
}

// Validate rejects checkpoints this binary cannot resume from.
func (c *Checkpoint) Validate() error {
	if c == nil {
		return errors.New("core: nil checkpoint")
	}
	if c.Version != CheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want %d", c.Version, CheckpointVersion)
	}
	for i, o := range c.Observations {
		if o.Module == "" {
			return fmt.Errorf("core: checkpoint observation %d has no module", i)
		}
		if o.Y <= 0 {
			return fmt.Errorf("core: checkpoint observation %d has non-positive y %v", i, o.Y)
		}
	}
	return nil
}

// snapshotCheckpoint captures the tuner's current durable state. Called on
// the tuner goroutine only.
func (t *Tuner) snapshotCheckpoint(iter int) *Checkpoint {
	return &Checkpoint{
		Version:      CheckpointVersion,
		Seed:         t.seed,
		Measurements: len(t.obsLog),
		Iteration:    iter,
		BestSpeedup:  1 / t.bestObservedY(),
		Observations: append([]Observation(nil), t.obsLog...),
	}
}

// maybeCheckpoint invokes the checkpoint hook when the measurement count
// crossed the CheckpointEvery boundary since the last snapshot. final forces
// a snapshot (end of run, cancellation) if anything changed since the last
// one. A hook error aborts the run: a service that cannot persist state must
// not pretend the run is durable.
func (t *Tuner) maybeCheckpoint(iter int, final bool) error {
	if t.opts.Checkpoint == nil {
		return nil
	}
	n := len(t.obsLog)
	if n == t.lastCkpt && !(final && t.lastCkpt == 0) {
		return nil
	}
	every := t.opts.CheckpointEvery
	if !final && (every <= 0 || n%every != 0) {
		return nil
	}
	c := t.snapshotCheckpoint(iter)
	if err := t.opts.Checkpoint(c); err != nil {
		return fmt.Errorf("core: checkpoint hook: %w", err)
	}
	t.lastCkpt = n
	t.rec.Checkpoint(t.runSpan, c.Measurements, c.BestSpeedup)
	return nil
}

// replayCheckpoint warm-starts the tuner from c: every recorded observation
// is recompiled to rebuild its feature vector and taken in by observe with
// its recorded y, as a live measurement would be. It sets t.replayed, the
// number of budget units already consumed. Replayed observations do not
// touch the measurement counters — no program execution happens.
func (t *Tuner) replayCheckpoint(c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Seed != t.seed {
		return fmt.Errorf("core: checkpoint written under seed %d, resumed under seed %d", c.Seed, t.seed)
	}
	for i, o := range c.Observations {
		ms := t.modIdx[o.Module]
		if ms == nil {
			return fmt.Errorf("core: checkpoint observation %d: module %q not in the hot set", i, o.Module)
		}
		idx, err := t.seqIndices(o.Seq)
		if err != nil {
			return fmt.Errorf("core: checkpoint observation %d: %w", i, err)
		}
		fv, ok := t.compileCandidate(ms, idx)
		if !ok {
			return fmt.Errorf("core: checkpoint observation %d: compile of %s failed on replay", i, o.Module)
		}
		t.observe(ms, idx, t.programFeatures(map[string]sparseVec{ms.name: fv}), o.Y)
	}
	t.replayed = len(c.Observations)
	t.lastCkpt = len(t.obsLog)
	t.rec.Resume(t.runSpan, t.replayed, 1/t.bestObservedY())
	return nil
}
