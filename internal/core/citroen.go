package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/heuristic"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/passes"
)

// Options configure the CITROEN tuner.
type Options struct {
	// Budget is the number of runtime measurements (the paper's search
	// budget unit, §5.4.5).
	Budget int
	// Lambda is the number of candidate sequences compiled per module per
	// iteration (split across the generator portfolio).
	Lambda int
	// Vocab is the pass vocabulary; nil means all 76 registered passes.
	Vocab []string
	// SeqMin/SeqMax bound candidate sequence lengths (paper: up to 120).
	SeqMin, SeqMax int
	// Beta is the UCB exploration weight.
	Beta float64
	// Feature selects the model's input representation (Fig 5.9).
	Feature FeatureKind
	// CoverageAF enables the coverage-aware acquisition terms (§5.3.4).
	CoverageAF bool
	// CoverageGamma and DupPenalty parameterise the coverage terms.
	CoverageGamma float64
	DupPenalty    float64
	// HeuristicInit enables the DES/GA generators; false degenerates to
	// random candidate generation (the ablation of Fig 5.8).
	HeuristicInit bool
	// HotCoverage selects hot modules covering this runtime fraction.
	HotCoverage float64
	// Adaptive enables cross-module adaptive budget allocation; false uses
	// round-robin over hot modules.
	Adaptive bool
	// InitRandom is the number of random configurations measured before the
	// model-guided phase.
	InitRandom int
	// RefitEvery controls GP hyperparameter refits.
	RefitEvery int
	GPOpts     gp.Options
	// Workers bounds the candidate-compilation fan-out: each iteration's
	// Lambda × |hot modules| candidate compilations fan out across this many
	// goroutines. 0 uses GOMAXPROCS; 1 is the documented serial mode. All
	// candidate generation and RNG draws happen outside the parallel region,
	// so results are bit-identical for every worker count — only wall-clock
	// changes. Tasks must support concurrent CompileModule when Workers != 1.
	Workers int
	// Sink receives the run's structured event journal (see internal/obs):
	// run-start, iteration, candidate-generated, compile, gp-fit, acq-max,
	// measure, stats, new-incumbent, resume, fleet-incident and
	// run-end events with monotonic sequence numbers and span parent IDs.
	// All events are emitted from the tuner goroutine in submit order, so
	// journals are identical for every Workers value modulo timing ("_ns")
	// and environment ("env_") fields. nil disables journaling; the disabled
	// path is allocation-free. The journal is the run's only account to
	// /metrics: attach analyze.NewMetricsSink to Sink for the run's series.
	Sink obs.Sink
	// ResumeFrom is the journal of an interrupted run of the same job, in
	// file order (obs.ReadJournal drops a torn last line). The run replays its
	// budget-consuming measurements into the model, generators and incumbent
	// tracking (see Tuner.resume). They count against Budget (the interrupted
	// run paid for them), so a resumed run finishes the original budget
	// instead of starting a fresh one.
	ResumeFrom []obs.Event
}

// DefaultOptions mirror the paper's setup.
func DefaultOptions() Options {
	return Options{
		Budget: 100, Lambda: 9,
		SeqMin: 8, SeqMax: 120,
		Beta:    1.96,
		Feature: FeatStats, CoverageAF: true, CoverageGamma: 0.3, DupPenalty: 100,
		HeuristicInit: true, HotCoverage: 0.9, Adaptive: true,
		InitRandom: 6, RefitEvery: 5, GPOpts: gp.DefaultOptions(),
	}
}

// TracePoint records one runtime measurement.
type TracePoint struct {
	// Measurement numbers the measurement within the whole run: a resumed
	// run's trace holds only its own measurements, numbered after the
	// replayed ones.
	Measurement int
	Module      string
	Time        float64
	Speedup     float64 // baseline/time
	BestSpeedup float64
}

// StatImportance ranks a feature dimension by ARD relevance (Table 5.5).
type StatImportance struct {
	Name      string
	Relevance float64 // 1/length-scale, higher = more impactful
}

// RuntimeBreakdown counts the run's work. Where its time went (Fig 5.12) is
// the journal's to say: analyze.Analyzer partitions a run's wall clock over
// the timed events.
type RuntimeBreakdown struct {
	// Measures is the budget the whole run consumed: a resumed run's
	// replayed measurements plus its own (len(Result.Trace)).
	Measures int
	Compiles int // candidate compiles, the -O3 baselines excluded
	// GPFits/GPAppends count the surrogate updates: full O(n³) (re)fits vs
	// O(n²) incremental appends absorbed on non-refit iterations.
	GPFits    int
	GPAppends int
	// Counters is the run's final counter set: whatever the Task reports
	// (see CounterReporter; empty for a Task that reports none) followed by
	// the tuner's own gp_fits / gp_appends rows.
	Counters obs.CounterSet
}

// Result is the tuning outcome.
type Result struct {
	BestSeqs    map[string][]string
	BestTime    float64
	BestSpeedup float64
	Trace       []TracePoint
	// SavedMeasurements counts duplicate-statistics candidates whose
	// profiling was skipped (Table 5.2).
	SavedMeasurements int
	// NovelSelections counts selected candidates that activated previously
	// unseen statistics dimensions.
	NovelSelections int
	// CandidateDupRate is the fraction of compiled candidates whose feature
	// vector duplicated an already-observed one (Table 5.2).
	CandidateDupRate float64
	ModuleBudget     map[string]int
	Importance       []StatImportance
	Breakdown        RuntimeBreakdown
	HotModules       []string
	// PassProfile attributes compile time and statistics-counter deltas to
	// individual pass invocations, when the Task collects them (see
	// PassProfileReporter); nil otherwise. Ordered deterministically by
	// total counter delta (see passes.Profile.Costs).
	PassProfile []passes.PassCost
}

// moduleState carries per-module tuning state.
type moduleState struct {
	name     string
	gens     []heuristic.SeqOptimizer
	bestSeq  []int
	bestFeat sparseVec
	bestY    float64
	baseFeat sparseVec // -O3 features
}

// Tuner runs CITROEN on a Task.
type Tuner struct {
	task    Task
	opts    Options
	rng     *rand.Rand
	workers int // Options.Workers resolved (0 → GOMAXPROCS)
	seed    int64
	ctx     context.Context // run context; set by RunContext, nil before

	vocab   []string
	vIndex  map[string]int
	space   heuristic.SeqSpace
	fi      *FeatureIndex
	seen    map[string]bool
	modIdx  map[string]*moduleState
	mods    []*moduleState
	X       [][]float64
	Y       []float64
	measCut map[string]float64 // program feature key -> measured y
	model   *gp.GP
	base    float64
	res     *Result

	candsDup int

	// interrupted: the run ended by cancellation. replayed is the number of
	// measurements a resumed run took from its journal; the run's own
	// measurements are numbered after them.
	interrupted bool
	replayed    int

	// Observability. rec is nil when journaling is disabled (every emit is
	// then a single nil check).
	rec     *obs.Recorder
	runSpan int64 // journal span of the whole run
	curSpan int64 // parent span for the current phase's events
}

// NewTuner prepares a tuner.
func NewTuner(task Task, opts Options, seed int64) *Tuner {
	vocab := opts.Vocab
	if vocab == nil {
		vocab = passes.Names()
	}
	vi := map[string]int{}
	for i, v := range vocab {
		vi[v] = i
	}
	t := &Tuner{
		task: task, opts: opts, rng: rand.New(rand.NewSource(seed)), seed: seed,
		workers: numeric.Workers(opts.Workers),
		vocab:   vocab, vIndex: vi,
		space:   heuristic.SeqSpace{Vocab: len(vocab), MinLen: opts.SeqMin, MaxLen: opts.SeqMax},
		fi:      NewFeatureIndex(),
		seen:    map[string]bool{},
		modIdx:  map[string]*moduleState{},
		measCut: map[string]float64{},

		rec: obs.NewRecorder(opts.Sink),
	}
	if t.opts.GPOpts.Workers == 0 {
		// -workers drives the surrogate too: sharded fit kernels and
		// gradients and batched prediction, all bit-identical to serial.
		t.opts.GPOpts.Workers = t.workers
	}
	return t
}

// hashSeq fingerprints a candidate sequence for journal events (inline
// FNV-1a over the vocabulary indices — no hash.Hash allocation, so it is
// safe on the disabled-journal path).
func hashSeq(seq []int) uint64 {
	h := uint64(14695981039346656037)
	for _, g := range seq {
		h ^= uint64(uint32(g))
		h *= 1099511628211
	}
	return h
}

// genLabel names a candidate generator for journal events.
func genLabel(g heuristic.SeqOptimizer) string {
	switch g.(type) {
	case *heuristic.DES:
		return "des"
	case *heuristic.SeqGA:
		return "ga"
	case *heuristic.SeqRandom:
		return "random"
	}
	return fmt.Sprintf("%T", g)
}

func (t *Tuner) seqStrings(seq []int) []string {
	out := make([]string, len(seq))
	for i, g := range seq {
		out[i] = t.vocab[g]
	}
	return out
}

// seqIndices maps pass names to vocabulary indices, rejecting unknown names:
// a journal naming a pass this binary's vocabulary lacks must fail the
// resume instead of silently replaying a different sequence under its y.
func (t *Tuner) seqIndices(seq []string) ([]int, error) {
	out := make([]int, 0, len(seq))
	for _, p := range seq {
		i, ok := t.vIndex[p]
		if !ok {
			return nil, fmt.Errorf("core: unknown pass %q in sequence (not in the %d-pass vocabulary)", p, len(t.vocab))
		}
		out = append(out, i)
	}
	return out, nil
}

// knownIndices keeps only in-vocabulary passes. It is used to seed the
// generators with the -O3 pipeline under restricted vocabularies (e.g. the
// Fig 5.10 LLVM-10 subset), where dropping the missing passes is the point.
func (t *Tuner) knownIndices(seq []string) []int {
	var out []int
	for _, p := range seq {
		if i, ok := t.vIndex[p]; ok {
			out = append(out, i)
		}
	}
	return out
}

// Run executes the tuning loop to completion under a background context.
func (t *Tuner) Run() (*Result, error) { return t.RunContext(context.Background()) }

// runCtx returns the run context, tolerating direct test calls into tuner
// internals before RunContext has set it.
func (t *Tuner) runCtx() context.Context {
	if t.ctx == nil {
		return context.Background()
	}
	return t.ctx
}

// RunContext executes the tuning loop under ctx. Cancellation is graceful:
// the tuner stops between steps (never mid-measurement bookkeeping),
// finalizes the partial Result — best-so-far sequences, trace, breakdown, an
// "interrupted" run-end journal event — and returns it alongside ctx's error.
// Cancellation during setup (baseline compiles, before any observation
// exists) returns a nil Result. A nil ctx behaves like Run.
func (t *Tuner) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t.ctx = ctx
	t.res = &Result{BestSeqs: map[string][]string{}, ModuleBudget: map[string]int{}}
	t.base = t.task.BaselineTime()
	if t.base <= 0 {
		return nil, errors.New("core: baseline time must be positive")
	}

	hot, err := t.task.HotModules(t.opts.HotCoverage)
	if err != nil {
		return nil, err
	}
	if len(hot) == 0 {
		hot = t.task.Modules()
	}
	t.res.HotModules = hot

	// Journal the full run configuration. Worker count is an execution-
	// environment field (env_ prefix): it cannot affect search behaviour,
	// and canonical journal comparison strips it.
	if t.rec.Enabled() {
		t.runSpan = t.rec.RunStart(map[string]any{
			"budget": t.opts.Budget, "lambda": t.opts.Lambda,
			"seq_min": t.opts.SeqMin, "seq_max": t.opts.SeqMax,
			"beta": t.opts.Beta, "feature": t.opts.Feature.String(),
			"coverage_af": t.opts.CoverageAF, "coverage_gamma": t.opts.CoverageGamma,
			"dup_penalty": t.opts.DupPenalty, "heuristic_init": t.opts.HeuristicInit,
			"hot_coverage": t.opts.HotCoverage, "adaptive": t.opts.Adaptive,
			"init_random": t.opts.InitRandom, "refit_every": t.opts.RefitEvery,
			"vocab_size": len(t.vocab), "hot_modules": hot, "seed": t.seed,
			"env_workers": t.opts.Workers,
		})
	}
	t.curSpan = t.runSpan

	// Per-module state: O3 baseline features, generator portfolios. The
	// baseline compiles are independent of each other and of the tuner RNG,
	// so they fan out through the evaluation backend; results are indexed by
	// hot order.
	o3Indices := t.knownIndices(passes.O3Sequence())
	baseSpecs := make([]CompileSpec, len(hot))
	for i, name := range hot {
		baseSpecs[i] = CompileSpec{Module: name} // nil seq = -O3
	}
	baseOuts := make([]CompileOutcome, len(hot))
	t.runSpecs(t.ctx, baseSpecs, baseOuts)
	if err := t.ctx.Err(); err != nil {
		return nil, err
	}
	for i, name := range hot {
		if !baseOuts[i].Ok {
			return nil, fmt.Errorf("core: baseline compile of %s: %s", name, baseOuts[i].Err)
		}
		// Journaled serially in hot order, after the fan-out barrier.
		t.rec.Compile(t.runSpan, name, len(o3Indices), hashSeq(o3Indices), true, baseOuts[i].Wall, baseOuts[i].End)
		ms := &moduleState{
			name:     name,
			bestY:    1.0,
			baseFeat: sparseVec(baseOuts[i].Feature),
		}
		ms.bestFeat = ms.baseFeat
		ms.bestSeq = nil // nil = O3
		seed := t.rng.Int63()
		if t.opts.HeuristicInit {
			des := heuristic.NewDES(t.space, rand.New(rand.NewSource(seed)))
			if len(o3Indices) > 0 {
				des.Seed(t.space.Clamp(o3Indices, t.rng), 1.0)
			}
			ms.gens = []heuristic.SeqOptimizer{
				des,
				heuristic.NewSeqGA(t.space, 24, rand.New(rand.NewSource(seed+1))),
				&heuristic.SeqRandom{Space: t.space, Rng: rand.New(rand.NewSource(seed + 2))},
			}
		} else {
			ms.gens = []heuristic.SeqOptimizer{
				&heuristic.SeqRandom{Space: t.space, Rng: rand.New(rand.NewSource(seed + 2))},
			}
		}
		ms.bestFeat.markSeen(t.seen, name+"|")
		t.modIdx[name] = ms
		t.mods = append(t.mods, ms)
	}

	// Observation 0: the -O3 configuration itself. It is the initial
	// incumbent, so a run that never improves on -O3 still closes with a
	// final new-incumbent event matching Result.BestSpeedup (1.0).
	t.recordObservation(t.programFeatures(nil), 1.0)
	t.rec.NewIncumbent(t.runSpan, "", 0, 1.0)

	// Warm start: replay an interrupted run's journal into the model,
	// generators and incumbents. The replayed measurements already consumed
	// budget, and the run continues where the journal left off: a resumed run
	// does not repeat the random design it already measured, and its
	// measurements and iterations keep the interrupted run's numbering.
	iters, err := t.resume(t.opts.ResumeFrom)
	if err != nil {
		return nil, err
	}
	used := t.replayed

	// Initial random configurations (consume budget).
	for i := used; i < t.opts.InitRandom && used < t.opts.Budget && t.ctx.Err() == nil; i++ {
		ms := t.mods[i%len(t.mods)]
		seq := t.space.Sample(t.rng)
		if t.measureCandidate(ms, seq, nil) {
			used++
		}
	}

	// Model-guided loop.
	maxIters := t.opts.Budget * 6
	for iter := iters; used < t.opts.Budget && iter < maxIters; iter++ {
		if t.ctx.Err() != nil {
			break
		}
		iters = iter + 1
		t.curSpan = t.rec.Iteration(t.runSpan, iter, used)
		var fitErr error
		pprof.Do(t.ctx, pprof.Labels("phase", "gp-fit"), func(context.Context) { fitErr = t.fitModel(iter) })
		if fitErr != nil {
			return nil, fitErr
		}
		sel, selFeat, ok := t.proposeCandidate()
		if !ok {
			if t.ctx.Err() != nil {
				break
			}
			// Nothing compiled successfully this round; fall back to random.
			ms := t.mods[t.rng.Intn(len(t.mods))]
			if t.measureCandidate(ms, t.space.Sample(t.rng), nil) {
				used++
			}
			continue
		}
		if t.measureCandidate(sel.ms, sel.seq, selFeat) {
			used++
		}
	}

	t.interrupted = t.ctx.Err() != nil
	t.finalize()
	if t.interrupted {
		return t.res, t.ctx.Err()
	}
	return t.res, nil
}

// programFeatures concatenates per-module features with override for one
// module (override nil = use each module's current best).
func (t *Tuner) programFeatures(override map[string]sparseVec) map[string]sparseVec {
	out := map[string]sparseVec{}
	for _, ms := range t.mods {
		if override != nil {
			if v, ok := override[ms.name]; ok {
				out[ms.name] = v
				continue
			}
		}
		out[ms.name] = ms.bestFeat
	}
	return out
}

// denseProgram materialises concatenated program features.
func (t *Tuner) denseProgram(fv map[string]sparseVec) []float64 {
	// Register all dims first so every vector has the final width, in sorted
	// key order so the layout is deterministic (see sortedKeys).
	for _, ms := range t.mods {
		for _, k := range fv[ms.name].sortedKeys() {
			t.fi.slotFor(ms.name + "|" + k)
		}
	}
	out := make([]float64, t.fi.Dim())
	for _, ms := range t.mods {
		for k, v := range fv[ms.name] {
			out[t.fi.slot[ms.name+"|"+k]] = v
		}
	}
	return out
}

func (t *Tuner) programKey(fv map[string]sparseVec) string {
	key := ""
	for _, ms := range t.mods {
		key += ms.name + "{" + fv[ms.name].key() + "}"
	}
	return key
}

// recordObservation appends a training point (re-densifying existing rows
// when new dimensions appeared).
func (t *Tuner) recordObservation(fv map[string]sparseVec, y float64) {
	x := t.denseProgram(fv)
	// Pad earlier rows to the new width.
	d := t.fi.Dim()
	for i, row := range t.X {
		if len(row) < d {
			nr := make([]float64, d)
			copy(nr, row)
			t.X[i] = nr
		}
	}
	t.X = append(t.X, x)
	t.Y = append(t.Y, y)
	for _, ms := range t.mods {
		fv[ms.name].markSeen(t.seen, ms.name+"|")
	}
	t.measCut[t.programKey(fv)] = y
}

// fitModel brings the GP up to date for this iteration (gp.Update decides
// between a refit, an Append and keeping the model) and counts and journals
// what it did.
func (t *Tuner) fitModel(iter int) error {
	if len(t.Y) < 2 {
		return nil
	}
	tStart := time.Now()
	m, step, err := gp.Update(t.model, t.X, t.Y, iter, t.opts.RefitEvery, t.opts.GPOpts)
	if err != nil {
		return fmt.Errorf("core: GP fit: %w", err)
	}
	t.model = m
	switch step {
	case gp.Kept:
		// Nothing measured since the last update (failed builds or
		// duplicate reuse): the posterior is already current.
		return nil
	case gp.Appended:
		t.res.Breakdown.GPAppends++
	default:
		t.res.Breakdown.GPFits++
	}
	t.rec.GPFit(t.curSpan, len(t.Y), t.fi.Dim(), step == gp.Appended, time.Since(tStart))
	return nil
}

type candidate struct {
	ms  *moduleState
	seq []int
	af  float64
	fv  sparseVec
	dup bool
}

// candJob is one candidate of a proposal round: its sequence, and the
// feature vector its compile produced (ok is false when the compile failed).
type candJob struct {
	ms  *moduleState
	seq []int
	fv  sparseVec
	ok  bool
}

// proposeCandidate generates, compiles and scores candidates for the target
// modules and returns the acquisition argmax. Candidate compilation — the
// expensive, embarrassingly parallel part — fans out across the evaluation
// pool; generation and scoring bracket it serially so every RNG draw and
// every piece of shared tuner state stays single-threaded, making the result
// independent of Options.Workers.
func (t *Tuner) proposeCandidate() (candidate, map[string]sparseVec, bool) {
	tAcq := time.Now()

	targets := t.mods
	if !t.opts.Adaptive {
		// Round-robin on the measurement count.
		targets = []*moduleState{t.mods[len(t.Y)%len(t.mods)]}
	}

	// Phase 1 (serial): ask the generators for this round's candidates. The
	// generators draw from their own per-module RNGs here, before any
	// goroutine forks.
	var jobs []candJob
	for _, ms := range targets {
		per := t.opts.Lambda / len(ms.gens)
		if per < 1 {
			per = 1
		}
		for _, gen := range ms.gens {
			for _, seq := range gen.Ask(per) {
				if t.rec.Enabled() {
					t.rec.CandidateGenerated(t.curSpan, ms.name, genLabel(gen), len(seq), hashSeq(seq))
				}
				jobs = append(jobs, candJob{ms: ms, seq: seq})
			}
		}
	}

	// Phase 2 (parallel): compile and feature-extract all Lambda × |targets|
	// candidates through the evaluation backend: a build depends on nothing
	// but its own sequence, so every compile fans out — across the local
	// workers, or across fleet runners (sticky per module, so a runner sees
	// the candidate compiles of its modules; its cache counts the same hits
	// as the single shared cache until one side evicts a build the other
	// still serves, see package fleet). Every executor writes only its own
	// submit-order slot, so the results stay independent of Options.Workers
	// and of the fleet size. On cancellation unexecuted jobs stay !ok and
	// are skipped by scoring.
	ctx := t.runCtx()
	specs := make([]CompileSpec, len(jobs))
	for i := range jobs {
		specs[i] = CompileSpec{Module: jobs[i].ms.name, Seq: t.seqStrings(jobs[i].seq)}
	}
	outs := make([]CompileOutcome, len(jobs))
	t.runSpecs(ctx, specs, outs)
	for i := range jobs {
		if outs[i].Ok {
			jobs[i].fv = sparseVec(outs[i].Feature)
			jobs[i].ok = true
		}
	}

	// Phase 3 (serial): account, then score, in submit order. The journal
	// events, counters, the model-free acquisition draw (t.rng.Float64())
	// and the feature-index growth inside denseProgram all live here,
	// outside the parallel region.
	cfg := acq.Config{Kind: acq.UCB, Beta: t.opts.Beta}
	cov := acq.Coverage{Gamma: t.opts.CoverageGamma, DupPenalty: t.opts.DupPenalty}

	progs := make([]map[string]sparseVec, len(jobs))
	dups := make([]bool, len(jobs))
	nDup := 0
	for i := range jobs {
		j := &jobs[i]
		t.res.Breakdown.Compiles++
		if t.rec.Enabled() {
			t.rec.Compile(t.curSpan, j.ms.name, len(j.seq), hashSeq(j.seq), j.ok, outs[i].Wall, outs[i].End)
		}
		if !j.ok {
			continue
		}
		prog := t.programFeatures(map[string]sparseVec{j.ms.name: j.fv})
		progs[i] = prog
		if _, seenBefore := t.measCut[t.programKey(prog)]; seenBefore {
			dups[i] = true
			nDup++
		}
	}
	t.candsDup += nDup

	// One batched posterior evaluation over the surviving candidates: each
	// dense feature vector is padded or truncated to the model's training
	// width (new dims appear mid-run), and the whole pool shares blocked
	// multi-RHS triangular solves instead of one solve per candidate. The
	// results are bit-identical to per-candidate PredictTransformed calls.
	af := make([]float64, len(jobs))
	if t.model != nil {
		d := len(t.model.LS)
		xs := make([][]float64, 0, len(jobs))
		cols := make([]int, 0, len(jobs))
		for i := range jobs {
			if progs[i] == nil {
				continue
			}
			x := t.denseProgram(progs[i])
			if len(x) > d {
				x = x[:d]
			} else if len(x) < d {
				nx := make([]float64, d)
				copy(nx, x)
				x = nx
			}
			xs = append(xs, x)
			cols = append(cols, i)
		}
		mu := make([]float64, len(xs))
		sig := make([]float64, len(xs))
		t.model.PredictBatch(xs, mu, sig)
		for b, i := range cols {
			af[i] = cfg.FromPosterior(mu[b], sig[b])
		}
	}

	best := candidate{af: math.Inf(-1)}
	var bestFV map[string]sparseVec
	for i := range jobs {
		j := &jobs[i]
		if progs[i] == nil {
			continue
		}
		v := af[i]
		if t.model == nil {
			v = t.rng.Float64()
		}
		if t.opts.CoverageAF {
			v = cov.Score(v, j.fv.novelDims(t.seen, j.ms.name+"|"), dups[i])
		}
		if v > best.af {
			best = candidate{ms: j.ms, seq: j.seq, af: v, fv: j.fv, dup: dups[i]}
			bestFV = progs[i]
		}
	}
	if best.ms == nil {
		return candidate{}, nil, false
	}
	novel := best.fv.novelDims(t.seen, best.ms.name+"|")
	if novel > 0 {
		t.res.NovelSelections++
	}
	t.rec.AcqMax(t.curSpan, len(jobs), nDup, best.ms.name, best.af, best.dup, novel, time.Since(tAcq))
	return best, bestFV, true
}

func (t *Tuner) bestObservedY() float64 {
	best := math.Inf(1)
	for _, y := range t.Y {
		if y < best {
			best = y
		}
	}
	return best
}

// compileCandidate compiles seq for ms's module (through the evaluation
// backend) and extracts features.
func (t *Tuner) compileCandidate(ms *moduleState, seq []int) (sparseVec, bool) {
	t.res.Breakdown.Compiles++
	out, err := t.compileOne(ms.name, t.seqStrings(seq))
	if t.rec.Enabled() {
		t.rec.Compile(t.curSpan, ms.name, len(seq), hashSeq(seq), err == nil, out.Wall, out.End)
	}
	if err != nil {
		return nil, false
	}
	return sparseVec(out.Feature), true
}

// measureCandidate profiles the program with ms's module rebuilt under seq.
// It returns true when a real measurement consumed budget (false for
// duplicate reuse or failed builds).
func (t *Tuner) measureCandidate(ms *moduleState, seq []int, knownFV map[string]sparseVec) bool {
	if t.runCtx().Err() != nil {
		return false
	}
	fv := knownFV
	if fv == nil {
		cf, ok := t.compileCandidate(ms, seq)
		if !ok {
			return false
		}
		fv = t.programFeatures(map[string]sparseVec{ms.name: cf})
	}
	key := t.programKey(fv)
	if y, dup := t.measCut[key]; dup {
		// Identical statistics across all modules: the binary is (modelled
		// as) identical; reuse the measurement (§5.2: avoid profiling
		// sequences that cannot change the outcome).
		t.res.SavedMeasurements++
		t.rec.Measure(t.curSpan, ms.name, 0, nil, y*t.base, 1/y, 1/t.bestObservedY(), true, true, 0)
		t.tellGenerators(ms, seq, y)
		return false
	}
	prevBest := t.bestObservedY()
	// A remote backend compiled the candidate elsewhere; warm the measuring
	// evaluator so the measure path's compile hits exactly as single-process
	// (without a backend the Task's own evaluator compiled it in place).
	if b, ok := t.task.(EvalBackend); ok && b.EnsureLocal(t.runCtx(), ms.name, t.seqStrings(seq)) != nil {
		if t.runCtx().Err() != nil {
			return false
		}
		t.rec.Measure(t.curSpan, ms.name, 0, nil, 0, 0, 1/prevBest, false, false, 0)
		t.tellGenerators(ms, seq, 10)
		return false
	}
	seqs := t.currentSequences()
	seqs[ms.name] = t.seqStrings(seq)
	tm := time.Now()
	var timeC float64
	var err error
	pprof.Do(t.runCtx(), pprof.Labels("phase", "measure"), func(ctx context.Context) {
		timeC, err = t.task.Measure(ctx, seqs)
	})
	wall := time.Since(tm)
	if err != nil {
		// Differential-test failure or build error: discard, penalise.
		t.rec.Measure(t.curSpan, ms.name, 0, nil, 0, 0, 1/prevBest, false, false, wall)
		t.tellGenerators(ms, seq, 10)
		return false
	}
	y := timeC / t.base
	t.observe(ms, seq, fv, y)
	t.res.ModuleBudget[ms.name]++
	// 1/y, not base/timeC: finalize computes BestSpeedup as 1/bestY, and the
	// journal's final new-incumbent must match it bit-for-bit.
	sp := 1 / y
	bestSoFar := 1 / t.bestObservedY()
	meas := t.replayed + len(t.res.Trace) + 1
	t.res.Trace = append(t.res.Trace, TracePoint{
		Measurement: meas,
		Module:      ms.name,
		Time:        timeC,
		Speedup:     sp,
		BestSpeedup: bestSoFar,
	})
	t.rec.Measure(t.curSpan, ms.name, meas, seqs[ms.name], timeC, sp, bestSoFar, true, false, wall)
	if y < prevBest {
		t.rec.NewIncumbent(t.curSpan, ms.name, meas, sp)
	}
	if t.rec.Enabled() {
		t.rec.Stats(t.curSpan, t.counters())
	}
	return true
}

// counters is the run's cumulative counter set as of now: the Task's rows
// (if it reports any) plus the tuner's own surrogate accounting.
func (t *Tuner) counters() obs.CounterSet {
	var set obs.CounterSet
	if cr, ok := t.task.(CounterReporter); ok {
		set = cr.Counters()
	}
	return append(set,
		obs.CounterRow{Name: "gp_fits", Value: int64(t.res.Breakdown.GPFits)},
		obs.CounterRow{Name: "gp_appends", Value: int64(t.res.Breakdown.GPAppends)})
}

// observe takes one budget-consuming observation into the tuner: the model's
// training set, the module's generators and its incumbent. A live
// measurement and a replayed one from a resumed journal both enter here.
func (t *Tuner) observe(ms *moduleState, seq []int, prog map[string]sparseVec, y float64) {
	t.recordObservation(prog, y)
	t.tellGenerators(ms, seq, y)
	if y < ms.bestY {
		ms.bestY = y
		ms.bestSeq = append([]int(nil), seq...)
		ms.bestFeat = prog[ms.name]
	}
}

func (t *Tuner) tellGenerators(ms *moduleState, seq []int, y float64) {
	for _, g := range ms.gens {
		g.Tell(seq, y)
	}
}

// currentSequences returns the incumbent per-module sequences.
func (t *Tuner) currentSequences() map[string][]string {
	out := map[string][]string{}
	for _, ms := range t.mods {
		if ms.bestSeq != nil {
			out[ms.name] = t.seqStrings(ms.bestSeq)
		}
	}
	return out
}

// finalize fills the result summary and closes the journal's run span.
func (t *Tuner) finalize() {
	t.res.BestSeqs = t.currentSequences()
	bestY := t.bestObservedY()
	t.res.BestTime = bestY * t.base
	t.res.BestSpeedup = 1 / bestY
	if c := t.res.Breakdown.Compiles; c > 0 {
		t.res.CandidateDupRate = float64(t.candsDup) / float64(c)
	}
	t.res.Breakdown.Measures = t.replayed + len(t.res.Trace)
	t.res.Breakdown.Counters = t.counters()
	if pp, ok := t.task.(PassProfileReporter); ok {
		t.res.PassProfile = pp.PassProfile()
	}
	if t.rec.Enabled() {
		bd := t.res.Breakdown
		summary := map[string]any{
			"best_speedup": t.res.BestSpeedup, "best_time_cycles": t.res.BestTime,
			"measurements": bd.Measures, "compilations": bd.Compiles,
			"saved_measurements": t.res.SavedMeasurements,
			"novel_selections":   t.res.NovelSelections,
			"candidate_dup_rate": t.res.CandidateDupRate,
			"interrupted":        t.interrupted,
		}
		bd.Counters.PutFields(summary)
		if len(t.res.PassProfile) > 0 {
			rows := make([]any, 0, 20)
			for i, c := range t.res.PassProfile {
				if i == 20 {
					break
				}
				rows = append(rows, map[string]any{
					"pass": c.Name, "invocations": c.Invocations, "fired": c.Fired,
					"wall_ns": c.Wall.Nanoseconds(), "delta_total": c.DeltaTotal(),
				})
			}
			summary["pass_profile"] = rows
		}
		t.rec.RunEnd(t.runSpan, summary)
	}
	// ARD relevance ranking (Table 5.5).
	if t.model != nil {
		names := t.fi.Names()
		for i, ls := range t.model.LS {
			if i >= len(names) {
				break
			}
			t.res.Importance = append(t.res.Importance, StatImportance{Name: names[i], Relevance: 1 / ls})
		}
		sort.Slice(t.res.Importance, func(i, j int) bool {
			return t.res.Importance[i].Relevance > t.res.Importance[j].Relevance
		})
	}
}
