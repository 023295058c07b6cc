package core

import (
	"fmt"

	"repro/internal/obs"
)

// replayObs is one budget-consuming measurement of an interrupted run: the
// module that was rebuilt, the pass sequence applied to it, and the measured
// relative time y = time/baseline.
type replayObs struct {
	ms  *moduleState
	seq []int
	y   float64
}

// resume warm-starts the tuner from an interrupted run's journal and returns
// the iteration the model-guided loop continues at. The replay is every
// budget-consuming measure event (ok, not reused) in file order, across every
// run-start in the file, numbered 1…k; its y is time_cycles/BaselineTime(),
// the division measureCandidate made, so it is bit for bit the y the run
// observed. The loop continues one past the last iteration event's iter.
//
// The whole journal is read before anything is replayed, and it is refused
// when a run-start names another seed or none, a measurement names a module
// outside the hot set or a pass outside the vocabulary, carries no passes or
// a non-positive time, or the numbering has a gap or a repeat. Each replayed
// observation is recompiled to rebuild its features and taken in by observe
// as a live measurement would be; no program runs, so the measurement
// counters do not move. A journal holding no budget-consuming measurement
// replays nothing, and the run starts afresh.
func (t *Tuner) resume(events []obs.Event) (iters int, err error) {
	var plan []replayObs
	runStarts := 0
	for i := range events {
		e := &events[i]
		switch e.Type {
		case "run-start":
			if _, ok := e.Fields["seed"]; !ok {
				return 0, fmt.Errorf("core: resume: run-start at seq %d records no seed", e.Seq)
			}
			if seed := obs.FieldFloat(e.Fields, "seed"); seed != float64(t.seed) {
				return 0, fmt.Errorf("core: resume: journal written under seed %d, resumed under seed %d", int64(seed), t.seed)
			}
			runStarts++
		case "iteration":
			iters = int(obs.FieldFloat(e.Fields, "iter")) + 1
		case "measure":
			if !obs.FieldBool(e.Fields, "ok") || obs.FieldBool(e.Fields, "reused") {
				continue
			}
			n := len(plan) + 1
			if runStarts == 0 {
				return 0, fmt.Errorf("core: resume: measurement %d precedes every run-start", n)
			}
			if got := int(obs.FieldFloat(e.Fields, "measurement")); got != n {
				return 0, fmt.Errorf("core: resume: measure at seq %d is numbered %d, want %d (a gap or a repeat)", e.Seq, got, n)
			}
			module, _ := e.Fields["module"].(string)
			ms := t.modIdx[module]
			if ms == nil {
				return 0, fmt.Errorf("core: resume: measurement %d: module %q not in the hot set", n, module)
			}
			names, ok := obs.FieldStrings(e.Fields, "passes")
			if !ok {
				return 0, fmt.Errorf("core: resume: measurement %d records no passes (a journal written before measure events carried them)", n)
			}
			seq, err := t.seqIndices(names)
			if err != nil {
				return 0, fmt.Errorf("core: resume: measurement %d: %w", n, err)
			}
			y := obs.FieldFloat(e.Fields, "time_cycles") / t.base
			if !(y > 0) {
				return 0, fmt.Errorf("core: resume: measurement %d has non-positive time %v", n, e.Fields["time_cycles"])
			}
			plan = append(plan, replayObs{ms: ms, seq: seq, y: y})
		}
	}
	if len(plan) == 0 {
		return 0, nil
	}
	for i, o := range plan {
		fv, ok := t.compileCandidate(o.ms, o.seq)
		if !ok {
			return 0, fmt.Errorf("core: resume: measurement %d: compile of %s failed on replay", i+1, o.ms.name)
		}
		t.observe(o.ms, o.seq, t.programFeatures(map[string]sparseVec{o.ms.name: fv}), o.y)
	}
	t.replayed = len(plan)
	t.rec.Resume(t.runSpan, t.replayed, 1/t.bestObservedY())
	return iters, nil
}
