package bench

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/passes"
)

// The compiled-module cache memoises complete builds: the final module and
// statistics of (dataset, module, exact sequence). A miss builds from the
// pristine module; concurrent requests for the same build share one pipeline
// run (singleflight).
//
// The key is the dataset, the module name and an FNV-1a hash over the pass
// names. nil sequences are normalised to the O3 pipeline's names first, so
// -O3 and an explicitly spelled O3 sequence are one entry. Entries are
// immutable apart from their round stamp: readers clone them under no lock,
// eviction merely unlinks.
//
// Retention is one round rule. Every measurement opens a round, and so does
// every batch a fleet runner serves (BeginRound); each entry records the
// round that last built or read it, and opening a round drops every entry
// that none of the last retainRounds rounds touched. Nothing is dropped
// between two round starts, so what a concurrent fan-out finds cached
// depends only on the access history, not on which worker came first.

// retainRounds is how many rounds a cached build outlives its last use:
// almost every hit of a tuning run re-reads a build touched within the last
// four measurements (DESIGN.md "Compilation caching").
const retainRounds = 4

// resetStride is the boundary spacing of build's in-place resets. See build.
const resetStride = 6

// buildKey identifies one build: the named module of a dataset under a pass
// sequence (hash covers the sequence's names).
type buildKey struct {
	dataset int
	module  string
	hash    uint64
}

// cacheEntry is a cached final state. mod, stats and bytes are immutable
// after insertion, and readers clone mod outside the evaluator lock; round,
// the last round that built or read the entry, is guarded by Evaluator.mu.
type cacheEntry struct {
	mod   *ir.Module // compacted, bodies flagged shared
	stats passes.Stats
	bytes int64
	round int
}

// flight is one in-progress build. Concurrent requests for the same build
// wait on done instead of compiling a duplicate; mod/stats/err are set before
// done is closed.
type flight struct {
	done  chan struct{}
	mod   *ir.Module // immutable final state (nil on error)
	stats passes.Stats
	err   error
}

// seqNames normalises a candidate sequence: nil (the -O3 build) becomes the
// O3 pipeline's pass names.
func seqNames(seq []string) []string {
	if seq == nil {
		return passes.O3Sequence()
	}
	return seq
}

// seqHash is 64-bit FNV-1a over the names, each followed by a separator
// byte 1: the value hash/fnv's New64a gives for that byte stream, without
// its per-name string conversion.
func seqHash(names []string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, p := range names {
		for i := 0; i < len(p); i++ {
			h = (h ^ uint64(p[i])) * prime
		}
		h = (h ^ 1) * prime
	}
	return h
}

// resolveSequence maps pass names to passes, mirroring Apply's unknown-pass
// error.
func resolveSequence(names []string) ([]*passes.Pass, error) {
	plist := make([]*passes.Pass, len(names))
	for i, n := range names {
		p := passes.Lookup(n)
		if p == nil {
			return nil, fmt.Errorf("passes: unknown pass %q", n)
		}
		plist[i] = p
	}
	return plist, nil
}

// statsSum totals all counters: a span of passes that bumped none almost
// always changed nothing, so build's reset skips it.
func statsSum(st passes.Stats) int {
	s := 0
	for _, v := range st {
		s += v
	}
	return s
}

// build clones pristine, runs plist over it and verifies the final state once
// — the verification policy of ApplyObserved(..., verifyEach=false). It
// returns the working module (the caller's to keep) and, for the cache, a
// compacted copy whose bodies are flagged shared. A build that panics, or
// whose final state fails verification, returns only the error.
//
// After pass d, for d = 6, 12, … short of the last pass, the working module
// is reset in place (ir.TrimModule) when d is the first such boundary or the
// statistics total moved since the previous one, and only renumbered at the
// other boundaries. The reset leaves the slices a slab clone would leave, and
// that is all it is for: until then a pass's result can depend on whether an
// append reallocates (DESIGN.md "Compilation caching", "Known divergence"),
// and these are the points where an earlier cache cloned the working module.
// Keeping them keeps every compile — and so every tuning trajectory — what it
// was; the re-baseline that fixes those passes deletes the stride.
func (ev *Evaluator) build(pristine *ir.Module, plist []*passes.Pass) (c *ir.Module, st passes.Stats, keep *ir.Module, err error) {
	defer recoverCompile(&err)
	mgr := passes.NewManager()
	if ev.prof != nil {
		mgr.Obs = ev.prof
	}
	c, st = pristine.Clone(), passes.Stats{}
	prevSum := 0
	for i, p := range plist {
		mgr.RunOne(c, p, st)
		d := i + 1
		if d%resetStride != 0 || d == len(plist) {
			continue
		}
		if sum := statsSum(st); d == resetStride || sum != prevSum {
			ir.TrimModule(c)
			prevSum = sum
		} else {
			c.Renumber()
		}
	}
	// The passes' analysis slots go with the build. Verify before compacting:
	// the compaction copies bodies and would trip, as a panic, over a
	// reference the verifier reports as an error.
	ir.DropAnalyses(c)
	if err := ir.Verify(c); err != nil {
		return nil, nil, nil, fmt.Errorf("passes: IR invalid after sequence: %w", err)
	}
	keep = c.Clone()
	ir.MaterializeModule(keep)
	// This Clone only flags keep's fresh bodies shared: they are immutable
	// from here on.
	keep.Clone()
	return c, st, keep, nil
}

// recoverCompile turns a panic inside a pass — a candidate sequence that left
// the IR structurally broken for the next pass — into the error the candidate
// is rejected with, instead of taking the tuning run down.
func recoverCompile(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("bench: compile panicked: %v", r)
	}
}

// insertLocked publishes a final state, stamped with the current round.
// Caller holds ev.mu.
func (ev *Evaluator) insertLocked(key buildKey, mod *ir.Module, st passes.Stats) {
	if _, ok := ev.cache[key]; ok {
		return
	}
	e := &cacheEntry{mod: mod, stats: st, bytes: mod.ApproxBytes(), round: ev.round}
	ev.cache[key] = e
	ev.cacheBytes += e.bytes
}

// BeginRound opens a compile-cache round and drops every cached build that
// none of the last retainRounds rounds built or read. Call it only where no
// compile of this evaluator runs concurrently: timeWithSequences calls it at
// the start of every measurement, and a fleet runner at the start of every
// batch it serves.
func (ev *Evaluator) BeginRound() {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	ev.round++
	for key, e := range ev.cache {
		if ev.round-e.round > retainRounds {
			delete(ev.cache, key)
			ev.cacheBytes -= e.bytes
			ev.evictions++
		}
	}
}

// compiledFor returns the named module of the given dataset compiled under
// seq (nil = O3). The returned module is a private clone the caller may link
// and mutate; the returned stats are a private copy. A cached build skips
// compilation entirely, and concurrent requests for the same build are
// deduplicated so only one pipeline runs (the others wait and clone its
// result).
func (ev *Evaluator) compiledFor(ctx context.Context, ds int, name string, seq []string) (*ir.Module, passes.Stats, error) {
	return ev.compiledForMode(ctx, ds, name, seq, true)
}

// WarmCompile compiles (dataset 0, module, seq) with all work accounting
// suppressed: no hit/miss/compilation/replay/cow counters move. The
// coordinator uses it to pre-install a remotely-compiled
// candidate into the measuring evaluator's cache, so the measure path's
// dataset-0 compile hits exactly as it would have single-process.
func (ev *Evaluator) WarmCompile(ctx context.Context, module string, seq []string) error {
	_, _, err := ev.compiledForMode(ctx, 0, module, seq, false)
	return err
}

// compiledForMode is compiledFor with the work accounting made optional.
// counted=false is the warm-compile mode: the build runs (or hits) exactly
// as usual and caches the same entry, but bumps no hit/miss/compilation/
// replay/cow counters (the same work is counted where the candidate compile
// really ran). Cached bytes always accrue — they are real memory either way.
func (ev *Evaluator) compiledForMode(ctx context.Context, ds int, name string, seq []string, counted bool) (*ir.Module, passes.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var pristine *ir.Module
	for _, m := range ev.pristine[ds] {
		if m.Name == name {
			pristine = m
			break
		}
	}
	if pristine == nil {
		return nil, nil, fmt.Errorf("bench: unknown module %q", name)
	}
	names := seqNames(seq)
	plist, err := resolveSequence(names)
	if err != nil {
		return nil, nil, err
	}
	key := buildKey{dataset: ds, module: name, hash: seqHash(names)}

	for {
		ev.mu.Lock()
		if ce, ok := ev.cache[key]; ok && ev.CacheCap >= 0 {
			ce.round = ev.round
			if counted {
				ev.cacheHits++
			}
			ev.mu.Unlock()
			// The cached instance is immutable; hand out a clone (Link
			// renumbers values in place) and a stats copy.
			return ce.mod.Clone(), ce.stats.Clone(), nil
		}
		if fl, inFlight := ev.flights[key]; inFlight {
			ev.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
			if fl.err == nil {
				if counted {
					ev.mu.Lock()
					ev.cacheHits++
					ev.mu.Unlock()
				}
				return fl.mod.Clone(), fl.stats.Clone(), nil
			}
			if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
				// The leader's run was cancelled, not necessarily ours.
				if err := ctx.Err(); err != nil {
					return nil, nil, err
				}
				continue
			}
			return nil, nil, fl.err // deterministic compile failure: shared
		}
		// Lead: register the flight, then build from pristine.
		fl := &flight{done: make(chan struct{})}
		ev.flights[key] = fl
		if counted {
			ev.Compilations++
			ev.replayed += len(plist)
		}
		ev.mu.Unlock()

		c, st, keep, err := ev.build(pristine, plist)
		var kept passes.Stats
		ev.mu.Lock()
		if err == nil {
			kept = st.Clone()
			if ev.CacheCap >= 0 {
				ev.insertLocked(key, keep, kept)
			}
		}
		delete(ev.flights, key)
		ev.mu.Unlock()
		fl.mod, fl.stats, fl.err = keep, kept, err
		close(fl.done)
		if err != nil {
			return nil, nil, err
		}
		return c, st, nil
	}
}

// CowCounters returns the copy-on-write clone accounting since the evaluator
// was built (the baseline build does not count): clones handed out sharing
// function bodies — a build's working clone and every hit's copy — and the
// subset that went on to materialize private bodies (the working clones).
// Every hit (a follower's handout included) hands out a clone that never
// materializes, and every pipeline run's working clone shares pristine's
// bodies until its first pass materializes it.
func (ev *Evaluator) CowCounters() (shared, materialized int) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.cacheHits + ev.Compilations, ev.Compilations
}

// PrefixCounters returns the cache's work accounting since the evaluator was
// built: passes saved by resuming from an intermediate state (always 0, as
// nothing resumes; the result stays until its last reader, the benchmark
// harness, drops it), passes actually executed, the estimated bytes
// currently retained, and the number of evicted entries.
func (ev *Evaluator) PrefixCounters() (savedPasses, replayedPasses int, snapshotBytes int64, evictions int) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return 0, ev.replayed, ev.cacheBytes, ev.evictions
}
