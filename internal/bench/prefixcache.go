package bench

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/ir"
	"repro/internal/passes"
)

// The compiled-module cache is a prefix-snapshot cache: instead of memoising
// only complete builds keyed by the exact sequence, it memoises intermediate
// module states at stride boundaries along every compiled sequence. A new
// candidate resumes compilation from the deepest cached prefix of its
// sequence — BO/GA candidates are mutations of incumbents, so long shared
// prefixes are the common case (§3.3/§5.2) and most of the pipeline replay
// disappears.
//
// Key scheme: (dataset, module, FNV-1a over the first depth pass names,
// depth). nil sequences are normalised to the O3 pipeline's names first, so
// -O3 and an explicitly spelled O3 sequence share snapshots. Snapshots are
// immutable: readers clone under no lock, eviction merely unlinks (the GC
// keeps a snapshot alive while any in-flight build still resumes from it).
// Eviction is LRU, bounded both by entry count (CacheCap) and by an
// approximate byte budget (SnapshotBudget, measured with Module.ApproxBytes);
// consecutive snapshots that are the same code (ir.StructurallyEqual) share
// one module instance, so runs of no-op passes cost no extra memory.

// DefaultSnapshotEvery is the snapshot stride: an intermediate module state
// is retained after every stride-th pass (plus always the final state).
// Smaller strides resume closer to the divergence point but clone more.
const DefaultSnapshotEvery = 6

// DefaultSnapshotBudget bounds the estimated bytes retained by snapshots.
const DefaultSnapshotBudget int64 = 64 << 20

// snapKey identifies one intermediate compilation state: the named module of
// a dataset after the first depth passes of a sequence (hash covers exactly
// those names).
type snapKey struct {
	dataset int
	module  string
	hash    uint64
	depth   int
}

// snapEntry is an LRU-tracked snapshot. key, mod and stats are immutable
// after insertion; readers clone them outside the evaluator lock.
//
// Interior snapshots are published unverified: resuming from one is correct
// regardless (replay is deterministic from any state, and every build ends
// with its own final verification), so verification is deferred to the one
// case that needs it — the snapshot being served as an exact full-sequence
// hit, where a fresh build would have verified the final state.
type snapEntry struct {
	key      snapKey
	mod      *ir.Module
	stats    passes.Stats
	elem     *list.Element
	verified bool  // final verification ran (eagerly for final states, lazily for interior)
	verr     error // result of that verification
}

// modRef is the per-module byte accounting record behind snapBytes: entries
// that share one module instance (equal consecutive snapshots) share
// one record, so the budget charges each retained module exactly once. bytes
// is computed once at first retain.
type modRef struct {
	bytes int64
	refs  int
}

// retainSnapModLocked charges m against the snapshot budget (first retain
// only) and bumps its refcount. Caller holds ev.mu.
func (ev *Evaluator) retainSnapModLocked(m *ir.Module) {
	r := ev.modBytes[m]
	if r == nil {
		r = &modRef{bytes: m.ApproxBytes()}
		ev.modBytes[m] = r
		ev.snapBytes += r.bytes
	}
	r.refs++
}

// releaseSnapModLocked drops one reference to m, refunding its bytes when the
// last referencing snapshot is evicted. Caller holds ev.mu.
func (ev *Evaluator) releaseSnapModLocked(m *ir.Module) {
	r := ev.modBytes[m]
	if r == nil {
		return
	}
	r.refs--
	if r.refs > 0 {
		return
	}
	ev.snapBytes -= r.bytes
	delete(ev.modBytes, m)
}

// flight is one in-progress compilation of a full (dataset, module, sequence)
// build. Concurrent requests for the same build wait on done instead of
// compiling a duplicate; mod/stats/err are set before done is closed.
type flight struct {
	done  chan struct{}
	mod   *ir.Module // immutable final state (nil on error)
	stats passes.Stats
	err   error
}

// seqNames normalises a candidate sequence: nil (the -O3 build) becomes the
// O3 pipeline's pass names so it shares prefix snapshots with explicit
// sequences.
func seqNames(seq []string) []string {
	if seq == nil {
		return passes.O3Sequence()
	}
	return seq
}

// prefixHashes returns h[d] = FNV-1a over names[:d] for every d in [0, len].
func prefixHashes(names []string) []uint64 {
	h := fnv.New64a()
	out := make([]uint64, len(names)+1)
	out[0] = h.Sum64()
	for i, p := range names {
		io.WriteString(h, p)
		h.Write([]byte{1})
		out[i+1] = h.Sum64()
	}
	return out
}

// snapshotAt reports whether a snapshot is retained after depth passes of
// an L-pass sequence under the given stride.
func snapshotAt(depth, total, stride int) bool {
	if depth == total {
		return true // the final state is always retained (exact-hit entry)
	}
	return stride > 0 && depth%stride == 0
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

// pendingSnap is a snapshot taken during a build, published under the
// evaluator lock once the build finishes.
type pendingSnap struct {
	depth    int
	mod      *ir.Module
	stats    passes.Stats
	verified bool
	// cloned marks snapshots that took a fresh COW clone of the working
	// module (as opposed to sharing the previous snapshot's instance because
	// the two are equal); the COW counters are derived from it.
	cloned bool
}

// statsSum totals all counters — a cheap change pre-filter: a span of passes
// that bumped no counter is almost certainly a no-op span worth the price of
// a structural comparison (which then proves or refutes equality).
func statsSum(st passes.Stats) int {
	s := 0
	for _, v := range st {
		s += v
	}
	return s
}

// runSuffix applies the rest of plist to c, a clone of the base snapshot
// (nil = pristine, nothing applied yet), collecting snapshots at stride
// boundaries, and verifies the final state once — exactly the verification
// policy of a full ApplyObserved(..., verifyEach=false) build. The base's
// module, when there is one, is the first candidate for sharing.
func (ev *Evaluator) runSuffix(c *ir.Module, plist []*passes.Pass, st passes.Stats, base *snapEntry) ([]pendingSnap, error) {
	mgr := passes.NewManager()
	if ev.prof != nil {
		mgr.Obs = ev.prof
	}
	stride := ev.SnapshotEvery
	if stride == 0 {
		stride = DefaultSnapshotEvery
	}
	var snaps []pendingSnap
	var (
		prevMod *ir.Module
		from    int
	)
	if base != nil {
		prevMod, from = base.mod, base.key.depth
	}
	prevSum := statsSum(st)
	total := len(plist)
	for i := from; i < total; i++ {
		mgr.RunOne(c, plist[i], st)
		depth := i + 1
		if !snapshotAt(depth, total, stride) {
			continue
		}
		// Dedup check: a span that bumped no stats counter is almost always a
		// no-op; prove it by comparing the working module with the previous
		// snapshot and share that instance instead of cloning a duplicate.
		// Spans that did change stats skip the module-sized walk and clone
		// directly. Either way c leaves the boundary fully renumbered: a
		// true comparison walked every body, and Clone renumbers.
		curSum := statsSum(st)
		var snap *ir.Module
		if prevMod != nil && curSum == prevSum && ir.StructurallyEqual(prevMod, c) {
			snap = prevMod
		}
		cloned := snap == nil
		if cloned {
			snap = c.Clone()
		}
		snaps = append(snaps, pendingSnap{depth: depth, mod: snap, stats: st.Clone(), verified: depth == total, cloned: cloned})
		prevMod, prevSum = snap, curSum
	}
	if err := ir.Verify(c); err != nil {
		// Drop the final-state snapshot: an exact hit must never turn a
		// failing build into a success. Interior snapshots stay — resuming
		// from them replays exactly what a fresh build would compute, and an
		// exact hit on one verifies lazily.
		if n := len(snaps); n > 0 && snaps[n-1].depth == total {
			snaps = snaps[:n-1]
		}
		return snaps, fmt.Errorf("passes: IR invalid after sequence: %w", err)
	}
	return snaps, nil
}

// deepestPrefixLocked returns the deepest cached snapshot whose depth is a
// snapshot boundary prefix of the sequence (hashes[d] covers names[:d]).
// Caller holds ev.mu.
func (ev *Evaluator) deepestPrefixLocked(ds int, module string, hashes []uint64, total, stride int) *snapEntry {
	for d := total; d > 0; d-- {
		if !snapshotAt(d, total, stride) && d != total {
			continue
		}
		if e, ok := ev.snaps[snapKey{dataset: ds, module: module, hash: hashes[d], depth: d}]; ok {
			ev.lru.MoveToFront(e)
			return e.Value.(*snapEntry)
		}
	}
	return nil
}

// insertSnapLocked publishes a snapshot and evicts past the entry cap and
// byte budget. Caller holds ev.mu.
func (ev *Evaluator) insertSnapLocked(key snapKey, ps pendingSnap) {
	if _, ok := ev.snaps[key]; ok {
		return // a concurrent build of an overlapping sequence won the race
	}
	se := &snapEntry{key: key, mod: ps.mod, stats: ps.stats, verified: ps.verified}
	se.elem = ev.lru.PushFront(se)
	ev.snaps[key] = se.elem
	ev.retainSnapModLocked(se.mod)
	capacity := ev.CacheCap
	if capacity == 0 {
		capacity = DefaultCacheCap
	}
	budget := ev.SnapshotBudget
	if budget == 0 {
		budget = DefaultSnapshotBudget
	}
	for ev.lru.Len() > capacity || (budget > 0 && ev.snapBytes > budget && ev.lru.Len() > 1) {
		back := ev.lru.Back()
		if back == nil {
			break
		}
		old := back.Value.(*snapEntry)
		ev.lru.Remove(back)
		delete(ev.snaps, old.key)
		ev.releaseSnapModLocked(old.mod)
		ev.snapEvict++
	}
}

// compiledFor returns the named module of the given dataset compiled under
// seq (nil = O3). The returned module is a private clone the caller may link
// and mutate; the returned stats are a private copy. Builds resume from the
// deepest cached prefix snapshot; an exact final-state hit skips compilation
// entirely, and concurrent requests for the same build are deduplicated so
// only one pipeline runs (the others wait and clone its result).
func (ev *Evaluator) compiledFor(ctx context.Context, ds int, name string, seq []string) (*ir.Module, passes.Stats, error) {
	return ev.compiledForMode(ctx, ds, name, seq, true)
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

// compiledForMode is compiledFor with the work accounting made optional.
// counted=false is the warm-compile mode: the build runs (or hits) exactly
// as usual and publishes the same snapshots, but bumps no hit/miss/
// compilation/prefix/cow counters (the same work is counted where the
// candidate compile really ran). Snapshot bytes always accrue — they are
// real memory either way.
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

	if ev.CacheCap < 0 {
		// Memoisation disabled entirely (the pre-cache behaviour): compile
		// from pristine, retain nothing.
		if counted {
			ev.mu.Lock()
			ev.Compilations++
			ev.prefixReplayed += len(names)
			ev.cowShared++       // the working clone shares pristine's bodies
			ev.cowMaterialized++ // ...until the first pass materializes it
			ev.mu.Unlock()
		}
		c := pristine.Clone()
		st := passes.Stats{}
		mgr := passes.NewManager()
		if ev.prof != nil {
			mgr.Obs = ev.prof
		}
		err := func() (err error) {
			defer recoverCompile(&err)
			return mgr.Run(c, names, st, false)
		}()
		ev.publishMetrics()
		if err != nil {
			return nil, nil, err
		}
		return c, st, nil
	}

	stride := ev.SnapshotEvery
	if stride == 0 {
		stride = DefaultSnapshotEvery
	}
	hashes := prefixHashes(names)
	total := len(names)
	fullKey := snapKey{dataset: ds, module: name, hash: hashes[total], depth: total}
	flKey := seqKey{dataset: ds, module: name, hash: hashes[total]}

	for {
		ev.mu.Lock()
		if e, ok := ev.snaps[fullKey]; ok {
			ev.lru.MoveToFront(e)
			se := e.Value.(*snapEntry)
			if counted {
				ev.cacheHits++
				ev.cowShared++ // hit handout: a COW clone that never materializes
			}
			mod, st := se.mod, se.stats
			verified, verr := se.verified, se.verr
			ev.mu.Unlock()
			if !verified {
				// An interior snapshot served as a full build: run the final
				// verification a fresh build of this exact sequence would
				// have run, once. Concurrent verifiers of the same immutable
				// module reach the same answer, so the race is benign.
				verr = ir.Verify(mod)
				ev.mu.Lock()
				se.verified, se.verr = true, verr
				ev.mu.Unlock()
			}
			if verr != nil {
				return nil, nil, fmt.Errorf("passes: IR invalid after sequence: %w", verr)
			}
			// The cached instance is immutable; hand out a clone (Link
			// renumbers values in place) and a stats copy.
			return mod.Clone(), st.Clone(), nil
		}
		if fl, inFlight := ev.flights[flKey]; inFlight {
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
					ev.cowShared++ // follower handout, like an exact hit
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
		// Lead: register the flight, then resume from the deepest prefix.
		fl := &flight{done: make(chan struct{})}
		ev.flights[flKey] = fl
		base := ev.deepestPrefixLocked(ds, name, hashes, total, stride)
		depth := 0
		if base != nil {
			depth = base.key.depth
		}
		if counted {
			ev.cacheMiss++
			ev.Compilations++
			ev.prefixSaved += depth
			ev.prefixReplayed += total - depth
			// The lead's working clone shares its base (snapshot or pristine)
			// and materializes on the first suffix pass (depth < total here:
			// a depth == total snapshot would have been an exact hit).
			ev.cowShared++
			ev.cowMaterialized++
		}
		ev.mu.Unlock()

		mod, st, err := ev.leadCompile(fl, flKey, fullKey, pristine, plist, hashes, base, counted)
		ev.publishMetrics()
		return mod, st, err
	}
}

// recoverCompile turns a panic inside a pass or an IR clone — a candidate
// sequence that left the IR structurally broken, e.g. a dangling branch
// target the next materialization trips over — into the error the candidate
// is rejected with, instead of taking the tuning run down.
func recoverCompile(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("bench: compile panicked: %v", r)
	}
}

// buildSuffix clones the base state (a snapshot, else pristine) and runs the
// passes of plist past it, reading only base's immutable fields (no lock
// held). A build that panics yields no snapshots.
func (ev *Evaluator) buildSuffix(pristine *ir.Module, plist []*passes.Pass, base *snapEntry) (c *ir.Module, st passes.Stats, snaps []pendingSnap, err error) {
	defer recoverCompile(&err)
	if base != nil {
		c = base.mod.Clone()
		st = base.stats.Clone()
	} else {
		c = pristine.Clone()
		st = passes.Stats{}
	}
	snaps, err = ev.runSuffix(c, plist, st, base)
	return c, st, snaps, err
}

// leadCompile runs the pipeline suffix for a registered flight, publishes the
// resulting snapshots and completes the flight, handing followers the
// leader's result or error.
func (ev *Evaluator) leadCompile(fl *flight, flKey seqKey, fullKey snapKey, pristine *ir.Module, plist []*passes.Pass, hashes []uint64, base *snapEntry, counted bool) (*ir.Module, passes.Stats, error) {
	c, st, snaps, err := ev.buildSuffix(pristine, plist, base)

	ev.mu.Lock()
	var final *ir.Module
	for _, ps := range snaps {
		if counted && ps.cloned {
			// Each fresh interior snapshot is a COW clone off the working
			// module, which re-materializes on the pass that follows; the
			// final-state clone is never mutated again.
			ev.cowShared++
			if ps.depth != len(plist) {
				ev.cowMaterialized++
			}
		}
		ev.insertSnapLocked(snapKey{dataset: fullKey.dataset, module: fullKey.module, hash: hashes[ps.depth], depth: ps.depth}, ps)
		if ps.depth == len(plist) {
			final = ps.mod
		}
	}
	delete(ev.flights, flKey)
	ev.mu.Unlock()

	if err == nil {
		fl.mod, fl.stats = final, st
	}
	fl.err = err
	close(fl.done)

	if err != nil {
		return nil, nil, err
	}
	// c is the caller's private instance; the cached snapshot is its clone.
	return c, st, nil
}

// CowCounters returns the copy-on-write clone accounting since the evaluator
// was built (the baseline build does not count): clones handed out sharing
// function bodies, and the subset that went on to materialize private
// bodies. They follow the snapshots each build takes, so like the prefix
// counters they depend on scheduling once snapshots are being evicted.
func (ev *Evaluator) CowCounters() (shared, materialized int) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.cowShared, ev.cowMaterialized
}

// PrefixCounters returns the prefix-snapshot cache's work accounting since
// the evaluator was built: passes skipped by resuming from snapshots, passes
// actually executed, the estimated bytes currently retained by snapshots,
// and the number of evicted snapshots.
func (ev *Evaluator) PrefixCounters() (savedPasses, replayedPasses int, snapshotBytes int64, evictions int) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.prefixSaved, ev.prefixReplayed, ev.snapBytes, ev.snapEvict
}
