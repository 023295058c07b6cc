package bench

import (
	"context"
	"time"

	"repro/internal/evalpool"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/passes"
)

// TaskSpec is the serializable unit of batched evaluation work: one module
// rebuilt under one pass sequence (nil = the -O3 baseline pipeline). The
// fleet coordinator ships slices of these to remote runners as JSON.
type TaskSpec struct {
	Module string   `json:"module"`
	Seq    []string `json:"seq,omitempty"`
}

// BatchItem is the in-process result of one TaskSpec: the compiled module
// (for feature extraction next to the compile), its statistics, and the
// compile outcome. Mod never crosses the wire — remote runners reduce it to
// a feature map before responding.
type BatchItem struct {
	Ok    bool
	Err   string
	Stats passes.Stats
	Wall  time.Duration
	Mod   *ir.Module
}

// RunBatch compiles every spec (dataset 0) honouring the group structure —
// indices inside one group run serially in order so prefix-siblings resume
// from each other's snapshots; distinct groups fan out across workers — and
// returns per-spec results plus the change the batch caused in this
// evaluator's own Counters() rows (canonical, prefix_* and cow_*; not the
// process-global ones). A coordinator sums accepted batch deltas onto its own
// evaluator's counters for the fleet-wide totals (prefix_snapshot_bytes is a
// net byte change, so eviction inside a batch subtracts). Batches are
// serialised per evaluator (batchMu) so the delta is attributable to exactly
// this batch; a cancelled ctx leaves unexecuted items !Ok with the context
// error returned.
func (ev *Evaluator) RunBatch(ctx context.Context, specs []TaskSpec, groups [][]int, workers int) ([]BatchItem, obs.CounterSet, error) {
	ev.batchMu.Lock()
	defer ev.batchMu.Unlock()
	before := ev.Counters().Owned()
	items := make([]BatchItem, len(specs))
	pool := evalpool.New(workers)
	err := pool.MapGroupsCtx(ctx, groups, func(i int) {
		s := specs[i]
		tc := time.Now()
		m, st, cerr := ev.compiledFor(ctx, 0, s.Module, s.Seq)
		items[i].Wall = time.Since(tc)
		if cerr != nil {
			items[i].Err = cerr.Error()
			return
		}
		items[i].Mod, items[i].Stats, items[i].Ok = m, st, true
	})
	ev.publishMetrics()
	return items, ev.Counters().Owned().Sub(before), err
}

// WarmCompile compiles (dataset 0, module, seq) with all work accounting
// suppressed: no hit/miss/compilation/prefix/cow counters move. The
// coordinator uses it to pre-install a remotely-compiled
// candidate into the measuring evaluator's cache, so the measure path's
// dataset-0 compile hits exactly as it would have single-process.
func (ev *Evaluator) WarmCompile(ctx context.Context, module string, seq []string) error {
	_, _, err := ev.compiledForMode(ctx, 0, module, seq, false)
	return err
}
