package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/acq"
	"repro/internal/evalpool"
	"repro/internal/gp"
	"repro/internal/heuristic"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/planner"
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
	// SeedSequences inject known-good pass sequences (e.g. the winners of a
	// previous program's tuning run) into every module's heuristic
	// generators — the paper's §6.3.2 program-independent pass-correlation
	// transfer. They cost no budget until selected. Every pass name must be
	// in the vocabulary; Run rejects unknown names.
	SeedSequences [][]string
	// SeedGreedy seeds the candidate pool from the statistics-connectivity
	// greedy planner (internal/planner): before the random-init phase, each
	// hot module's O3 prefix statistics are probed (compile-only, no budget),
	// folded into a pass-interaction graph, and the greedy connectivity plan
	// is measured as the module's first candidate. The generators learn from
	// the plan's outcome like any other measurement, so BO starts from
	// statistics-informed sequences instead of purely random ones.
	SeedGreedy bool
	// GreedyDecay is the planner's per-hop attribution decay; ≤ 0 uses
	// planner.DefaultDecay.
	GreedyDecay float64
	// Workers sizes the candidate-compilation pool: each iteration's
	// Lambda × |hot modules| candidate compilations fan out across this many
	// goroutines. 0 uses GOMAXPROCS; 1 is the documented serial mode. All
	// candidate generation and RNG draws happen outside the parallel region,
	// so results are bit-identical for every worker count — only wall-clock
	// changes. Tasks must support concurrent CompileModule when Workers != 1.
	Workers int
	// Sink receives the run's structured event journal (see internal/obs):
	// run-start, iteration, candidate-generated, compile, gp-fit, acq-max,
	// measure, stats, new-incumbent and run-end events with monotonic
	// sequence numbers and span parent IDs. All events are emitted from the
	// tuner goroutine in submit order, so journals are identical for every
	// Workers value modulo timing ("_ns") and environment ("env_") fields.
	// nil disables journaling; the disabled path is allocation-free.
	Sink obs.Sink
	// Metrics is the registry fed by the tuner (measurement/compilation
	// counters, phase-duration histograms, incumbent gauge) and by the
	// evaluation pool (queue depth, worker utilisation). nil uses a
	// tuner-private registry, which still feeds Result.Breakdown.
	Metrics *obs.Metrics
	// Checkpoint, when non-nil, receives durable snapshots of the tuner's
	// state (incumbent, measurement history) so an interrupted run can be
	// resumed via ResumeFrom. The hook runs on the tuner goroutine; an error
	// aborts the run — a caller persisting state must not believe the run is
	// durable when writes fail. A final snapshot is always taken before the
	// run returns (including on cancellation).
	Checkpoint func(*Checkpoint) error
	// CheckpointEvery additionally fires the Checkpoint hook every N consumed
	// measurements; 0 means final-only.
	CheckpointEvery int
	// ResumeFrom warm-starts the run by replaying a prior checkpoint's
	// observations into the model, generators and incumbent tracking. The
	// replayed observations count against Budget (they were paid for by the
	// interrupted run), so a resumed run finishes the original budget instead
	// of starting a fresh one.
	ResumeFrom *Checkpoint
}

// DefaultOptions mirror the paper's setup.
func DefaultOptions() Options {
	g := gp.DefaultOptions()
	g.AdamSteps = 40
	g.Restarts = 1
	return Options{
		Budget: 100, Lambda: 9,
		SeqMin: 8, SeqMax: 120,
		Beta:    1.96,
		Feature: FeatStats, CoverageAF: true, CoverageGamma: 0.3, DupPenalty: 100,
		HeuristicInit: true, HotCoverage: 0.9, Adaptive: true,
		InitRandom: 6, RefitEvery: 5, GPOpts: g,
	}
}

// TracePoint records one runtime measurement.
type TracePoint struct {
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

// RuntimeBreakdown records where wall-clock time went (Fig 5.12).
type RuntimeBreakdown struct {
	GPFit    time.Duration
	AcqMax   time.Duration // candidate generation + compilation + scoring
	Compile  time.Duration // summed per-candidate compile work (can exceed wall time when Workers > 1)
	Measure  time.Duration
	Total    time.Duration
	Measures int
	Compiles int
	// GPFits/GPAppends count the surrogate updates behind the GPFit wall
	// time: full O(n³) (re)fits vs O(n²) incremental appends absorbed on
	// non-refit iterations.
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
	des      *heuristic.DES
	bestSeq  []int
	bestFeat sparseVec
	bestY    float64
	baseFeat sparseVec // -O3 features
}

// Tuner runs CITROEN on a Task.
type Tuner struct {
	task Task
	opts Options
	rng  *rand.Rand
	pool *evalpool.Pool
	seed int64
	ctx  context.Context // run context; set by RunContext, nil before

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

	candsCompiled int
	candsDup      int

	// Checkpoint state: the append-only measurement log (maintained only when
	// a Checkpoint hook is set), the log length at the last snapshot, and
	// whether the run ended by cancellation.
	obsLog      []Observation
	lastCkpt    int
	interrupted bool

	// Observability. rec is nil when journaling is disabled (every emit is
	// then a single nil check). The metric instruments are resolved once at
	// construction; RuntimeBreakdown's counts are read back from them at
	// finalize, making the registry the single source of truth.
	rec     *obs.Recorder
	runSpan int64 // journal span of the whole run
	curSpan int64 // parent span for the current phase's events
	mMeas   *obs.Counter
	mComp   *obs.Counter
	mSaved  *obs.Counter
	mDup    *obs.Counter
	// Counter values at construction: a registry shared across several runs
	// (experiment repeats) keeps global totals, while Breakdown reports
	// this run's deltas.
	mMeas0, mComp0 int64
	mGPApp         *obs.Counter
	gBest          *obs.Gauge
	gEdges         *obs.Gauge
	hGPFit         *obs.Histogram
	hAcq           *obs.Histogram
	hCompile       *obs.Histogram
	hMeasure       *obs.Histogram
	hPlan          *obs.Histogram
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
	met := opts.Metrics
	if met == nil {
		met = obs.NewMetrics()
	}
	t := &Tuner{
		task: task, opts: opts, rng: rand.New(rand.NewSource(seed)), seed: seed,
		pool:  evalpool.New(opts.Workers),
		vocab: vocab, vIndex: vi,
		space:   heuristic.SeqSpace{Vocab: len(vocab), MinLen: opts.SeqMin, MaxLen: opts.SeqMax},
		fi:      NewFeatureIndex(),
		seen:    map[string]bool{},
		modIdx:  map[string]*moduleState{},
		measCut: map[string]float64{},

		rec:      obs.NewRecorder(opts.Sink),
		mMeas:    met.Counter("citroen_measurements_total"),
		mComp:    met.Counter("citroen_compilations_total"),
		mSaved:   met.Counter("citroen_saved_measurements_total"),
		mDup:     met.Counter("citroen_candidate_dups_total"),
		mGPApp:   met.Counter("citroen_gp_append_total"),
		gBest:    met.Gauge("citroen_incumbent_speedup"),
		gEdges:   met.Gauge("citroen_planner_edges"),
		hGPFit:   met.Histogram("citroen_gp_fit_seconds", obs.DurationBuckets),
		hAcq:     met.Histogram("citroen_acq_maximize_seconds", obs.DurationBuckets),
		hCompile: met.Histogram("citroen_candidate_compile_seconds", obs.DurationBuckets),
		hMeasure: met.Histogram("citroen_measure_seconds", obs.DurationBuckets),
		hPlan:    met.Histogram("citroen_greedy_plan_seconds", obs.DurationBuckets),
	}
	t.mMeas0, t.mComp0 = t.mMeas.Value(), t.mComp.Value()
	if t.opts.GPOpts.Workers == 0 {
		// -workers drives the surrogate too: parallel fit restarts, sharded
		// gradients and batched prediction, all bit-identical to serial.
		t.opts.GPOpts.Workers = t.pool.Workers()
	}
	t.pool.Instrument(met)
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
// a typo in Options.SeedSequences must surface as an error instead of
// silently dropping the pass and degrading transfer with no signal.
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
// the tuner stops between steps (never mid-measurement bookkeeping), takes a
// final checkpoint when a Checkpoint hook is set, finalizes the partial
// Result — best-so-far sequences, trace, breakdown, an "interrupted" run-end
// journal event — and returns it alongside ctx's error. Cancellation during
// setup (baseline compiles, before any observation exists) returns a nil
// Result. A nil ctx behaves like Run.
func (t *Tuner) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t.ctx = ctx
	start := time.Now()
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
			"vocab_size": len(t.vocab), "seed_sequences": len(t.opts.SeedSequences),
			"seed_greedy": t.opts.SeedGreedy,
			"hot_modules": hot, "env_workers": t.opts.Workers,
		})
	}
	t.curSpan = t.runSpan

	// Validate transfer seeds up front so a typo fails the run immediately
	// rather than silently weakening the search.
	seedIdx := make([][]int, 0, len(t.opts.SeedSequences))
	for _, seedSeq := range t.opts.SeedSequences {
		idx, err := t.seqIndices(seedSeq)
		if err != nil {
			return nil, fmt.Errorf("core: seed sequence: %w", err)
		}
		seedIdx = append(seedIdx, idx)
	}

	// Per-module state: O3 baseline features, generator portfolios. The
	// baseline compiles are independent of each other and of the tuner RNG,
	// so they fan out through the evaluation backend (singleton groups = a
	// plain parallel map); results are indexed by hot order.
	o3Indices := t.knownIndices(passes.O3Sequence())
	baseSpecs := make([]CompileSpec, len(hot))
	baseGroups := make([][]int, len(hot))
	for i, name := range hot {
		baseSpecs[i] = CompileSpec{Module: name} // nil seq = -O3
		baseGroups[i] = []int{i}
	}
	baseOuts := make([]CompileOutcome, len(hot))
	t.compileGroups(t.ctx, baseSpecs, baseGroups, baseOuts)
	if err := t.ctx.Err(); err != nil {
		return nil, err
	}
	for i, name := range hot {
		if !baseOuts[i].Ok {
			return nil, fmt.Errorf("core: baseline compile of %s: %s", name, baseOuts[i].Err)
		}
		// Journaled serially in hot order, after the fan-out barrier.
		t.rec.Compile(t.runSpan, name, len(o3Indices), hashSeq(o3Indices), true, baseOuts[i].Wall)
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
				des.Seed(clampSeq(o3Indices, t.space, t.rng), 1.0)
			}
			ms.des = des
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
	t.gBest.Set(1.0)
	t.rec.NewIncumbent(t.runSpan, "", 0, 1.0)

	// Warm start: replay a prior run's checkpoint into the model, generators
	// and incumbents. The replayed observations already consumed budget.
	used := 0
	if t.opts.ResumeFrom != nil {
		n, err := t.replayCheckpoint(t.opts.ResumeFrom)
		if err != nil {
			return nil, err
		}
		used = n
	}

	// Statistics-connectivity seeding: probe, plan and measure each hot
	// module's greedy plan before the random design, so the model and the
	// generators start from statistics-informed sequences.
	if t.opts.SeedGreedy {
		if err := t.seedGreedyPlans(&used); err != nil {
			return nil, err
		}
	}

	// Cross-program transfer: measure the seed sequences first (they embody
	// program-independent pass correlations, §6.3.2).
	for _, si := range seedIdx {
		if used >= t.opts.Budget || t.ctx.Err() != nil {
			break
		}
		idx := clampSeq(si, t.space, t.rng)
		for _, ms := range t.mods {
			if used >= t.opts.Budget || t.ctx.Err() != nil {
				break
			}
			if t.measureCandidate(ms, idx, nil) {
				used++
				if err := t.maybeCheckpoint(0, false); err != nil {
					return nil, err
				}
			}
		}
	}

	// Initial random configurations (consume budget).
	for i := 0; i < t.opts.InitRandom && used < t.opts.Budget && t.ctx.Err() == nil; i++ {
		ms := t.mods[i%len(t.mods)]
		seq := t.space.Sample(t.rng)
		if t.measureCandidate(ms, seq, nil) {
			used++
			if err := t.maybeCheckpoint(0, false); err != nil {
				return nil, err
			}
		}
	}

	// Model-guided loop.
	iters := 0
	maxIters := t.opts.Budget * 6
	for iter := 0; used < t.opts.Budget && iter < maxIters; iter++ {
		if t.ctx.Err() != nil {
			break
		}
		iters = iter + 1
		t.curSpan = t.rec.Iteration(t.runSpan, iter, used)
		if err := t.fitModel(iter); err != nil {
			return nil, err
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
				if err := t.maybeCheckpoint(iters, false); err != nil {
					return nil, err
				}
			}
			continue
		}
		if t.measureCandidate(sel.ms, sel.seq, selFeat) {
			used++
			if err := t.maybeCheckpoint(iters, false); err != nil {
				return nil, err
			}
		}
	}

	t.interrupted = t.ctx.Err() != nil
	if err := t.maybeCheckpoint(iters, true); err != nil {
		return nil, err
	}
	t.finalize(start)
	if t.interrupted {
		return t.res, t.ctx.Err()
	}
	return t.res, nil
}

// clampSeq bounds seq to the space's length limits. Padding genes are
// resampled from rng: padding with a fixed index would silently inject
// repeated copies of whichever pass happens to be first in the vocabulary,
// biasing every short seed the same way.
func clampSeq(seq []int, sp heuristic.SeqSpace, rng *rand.Rand) []int {
	out := append([]int(nil), seq...)
	if len(out) > sp.MaxLen {
		out = out[:sp.MaxLen]
	}
	for len(out) < sp.MinLen {
		out = append(out, rng.Intn(sp.Vocab))
	}
	return out
}

// seedGreedyPlans builds each hot module's pass-interaction graph from
// compile-only O3 prefix probes (free: budget counts runtime measurements,
// and under a prefix-snapshot cache each probe resumes from the previous
// one), then measures the greedy connectivity plan as the module's first
// candidate. Everything runs serially on the tuner goroutine in hot order —
// probes, graph building and the measurement — so journals stay canonically
// identical across worker counts. Failed plan measurements are penalised like
// any other candidate; the incumbent only ever improves, so seeding cannot
// worsen the outcome at equal budget.
func (t *Tuner) seedGreedyPlans(used *int) error {
	probe := planner.KnownSubset(passes.O3Sequence(), t.vocab)
	for _, ms := range t.mods {
		if *used >= t.opts.Budget || t.ctx.Err() != nil {
			return nil
		}
		tp := time.Now()
		probes := 0
		var probeWall time.Duration
		g, err := planner.BuildFromPrefixProbes(func(seq []string) (passes.Stats, error) {
			probes++
			out, err := t.compileOne(ms.name, seq)
			probeWall += out.Wall
			if err != nil {
				return nil, err
			}
			return out.Stats, nil
		}, probe, t.vocab, t.opts.GreedyDecay)
		if err != nil {
			return fmt.Errorf("core: greedy planner probe of %s: %w", ms.name, err)
		}
		plan := g.Plan(probe)
		wall := time.Since(tp)
		// The histogram isolates graph building + plan construction; the
		// journal event's wall_ns covers the probes too.
		t.hPlan.Observe((wall - probeWall).Seconds())
		t.gEdges.Set(float64(g.Edges()))
		t.rec.PlannerBuild(t.runSpan, ms.name, g.Nodes(), g.Edges(), probes, len(plan), wall)
		idx, err := t.seqIndices(plan)
		if err != nil {
			return fmt.Errorf("core: greedy plan of %s: %w", ms.name, err)
		}
		if t.measureCandidate(ms, clampSeq(idx, t.space, t.rng), nil) {
			*used++
			if err := t.maybeCheckpoint(0, false); err != nil {
				return err
			}
		}
	}
	return nil
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

// fitModel updates the GP for this iteration: a full (re)fit when
// hyperparameter tuning is due, the model is missing, or the feature space
// grew; otherwise the single new observation — non-refit iterations add at
// most one — is absorbed by the O(n²) incremental Append. Neither path draws
// from t.rng on non-refit iterations, so swapping the old frozen refit for
// Append leaves the tuner's random stream untouched.
func (t *Tuner) fitModel(iter int) error {
	if len(t.Y) < 2 {
		return nil
	}
	nonRefit := t.opts.RefitEvery > 1 && iter%t.opts.RefitEvery != 0 && t.model != nil
	tStart := time.Now()
	if nonRefit && len(t.model.LS) == t.fi.Dim() {
		switch len(t.Y) - len(t.model.X) {
		case 0:
			// Nothing measured since the last update (failed builds or
			// duplicate reuse): the posterior is already current.
			return nil
		case 1:
			if err := t.model.Append(t.X[len(t.X)-1], t.Y[len(t.Y)-1]); err == nil {
				wall := time.Since(tStart)
				t.res.Breakdown.GPFit += wall
				t.res.Breakdown.GPAppends++
				t.mGPApp.Inc()
				t.hGPFit.Observe(wall.Seconds())
				t.rec.GPFit(t.curSpan, len(t.Y), t.fi.Dim(), true, wall)
				return nil
			}
			// The bordered update could not recover — fall through to the
			// full warm fit, which can also inflate the noise.
		}
	}
	o := t.opts.GPOpts
	if t.model != nil && len(t.model.LS) == t.fi.Dim() {
		o.WarmLS, o.WarmSigF, o.WarmNoise = t.model.LS, t.model.SigF, t.model.Noise
	}
	if nonRefit {
		o.AdamSteps = 0
		o.Restarts = 1
	}
	m, err := gp.Fit(t.X, t.Y, o, t.rng)
	if err != nil {
		return fmt.Errorf("core: GP fit: %w", err)
	}
	t.model = m
	wall := time.Since(tStart)
	t.res.Breakdown.GPFit += wall
	t.res.Breakdown.GPFits++
	t.hGPFit.Observe(wall.Seconds())
	t.rec.GPFit(t.curSpan, len(t.Y), t.fi.Dim(), false, wall)
	return nil
}

type candidate struct {
	ms  *moduleState
	seq []int
	af  float64
	fv  sparseVec
	dup bool
}

// candJob is one candidate evaluation fanned out on the pool: the inputs are
// filled serially, the outputs by exactly one worker.
type candJob struct {
	ms      *moduleState
	seq     []int
	fv      sparseVec
	ok      bool
	compile time.Duration
}

// groupByPrefix partitions candidate-job indices so that same-module jobs
// whose sequences share a long common prefix land in one group, ordered
// lexicographically (shortest-divergence neighbours adjacent). Groups are
// what MapGroupsCtx schedules: serial within, parallel across — compiling
// prefix-siblings back to back turns the evaluator's prefix-snapshot cache
// misses into resumes.
//
// Groups are never size-capped, and that is a determinism requirement, not
// a simplification: sequences sharing a prefix form a contiguous interval in
// lexicographic order, so uncapped greedy grouping puts every pair of jobs
// sharing at least minShared passes into the same (serial) group. Distinct
// groups then share fewer than minShared passes — below any snapshot stride —
// so no job's cache outcome can depend on when another group ran, and the
// evaluator's counters stay identical for every worker count. The serialised
// work is exactly the work that resuming makes nearly free.
func groupByPrefix(jobs []candJob, names [][]string) [][]int {
	const minShared = 4 // below this, resuming saves too little to serialise
	idx := make([]int, len(jobs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		if jobs[a].ms != jobs[b].ms {
			return jobs[a].ms.name < jobs[b].ms.name
		}
		na, nb := names[a], names[b]
		for k := 0; k < len(na) && k < len(nb); k++ {
			if na[k] != nb[k] {
				return na[k] < nb[k]
			}
		}
		return len(na) < len(nb)
	})
	var groups [][]int
	for _, i := range idx {
		if n := len(groups); n > 0 {
			g := groups[n-1]
			prev := g[len(g)-1]
			if jobs[prev].ms == jobs[i].ms &&
				sharedPrefixLen(names[prev], names[i]) >= minShared {
				groups[n-1] = append(g, i)
				continue
			}
		}
		groups = append(groups, []int{i})
	}
	return groups
}

func sharedPrefixLen(a, b []string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// proposeCandidate generates, compiles and scores candidates for the target
// modules and returns the acquisition argmax. Candidate compilation — the
// expensive, embarrassingly parallel part — fans out across the evaluation
// pool; generation and scoring bracket it serially so every RNG draw and
// every piece of shared tuner state stays single-threaded, making the result
// independent of Options.Workers.
func (t *Tuner) proposeCandidate() (candidate, map[string]sparseVec, bool) {
	tAcq := time.Now()
	defer func() {
		wall := time.Since(tAcq)
		t.res.Breakdown.AcqMax += wall
		t.hAcq.Observe(wall.Seconds())
	}()

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
	// candidates through the evaluation backend. Jobs are grouped by shared
	// sequence prefix and each group runs serially in order, so the first
	// build of a group publishes the prefix snapshots its siblings resume
	// from (mutation-heavy generators emit many candidates differing only
	// near the tail), while distinct groups still fan out — across the local
	// pool, or across fleet runners (sticky per module, so each runner's
	// cache evolves exactly like the single shared cache's restriction to
	// its modules). Grouping is computed serially from submit-order data and
	// every executor writes only its own submit-order slot, so the results
	// stay independent of Options.Workers and of the fleet size. On
	// cancellation unexecuted jobs stay !ok and are skipped by scoring.
	ctx := t.runCtx()
	names := make([][]string, len(jobs))
	specs := make([]CompileSpec, len(jobs))
	for i := range jobs {
		names[i] = t.seqStrings(jobs[i].seq)
		specs[i] = CompileSpec{Module: jobs[i].ms.name, Seq: names[i]}
	}
	outs := make([]CompileOutcome, len(jobs))
	t.compileGroups(ctx, specs, groupByPrefix(jobs, names), outs)
	for i := range jobs {
		jobs[i].compile = outs[i].Wall
		if outs[i].Ok {
			jobs[i].fv = sparseVec(outs[i].Feature)
			jobs[i].ok = true
		}
	}

	// Phase 3 (serial): account, then score, in submit order. The journal
	// events, counters, the model-free acquisition draw (t.rng.Float64())
	// and the feature-index growth inside denseProgram all live here,
	// outside the parallel region.
	bestY := t.bestObservedY()
	cfg := acq.Config{Kind: acq.UCB, Beta: t.opts.Beta}
	if t.model != nil {
		cfg.Best = t.model.TransformY(bestY)
	}
	cov := acq.Coverage{Base: cfg, Gamma: t.opts.CoverageGamma, DupPenalty: t.opts.DupPenalty}

	progs := make([]map[string]sparseVec, len(jobs))
	dups := make([]bool, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		t.candsCompiled++
		t.mComp.Inc()
		t.res.Breakdown.Compile += j.compile
		t.hCompile.Observe(j.compile.Seconds())
		if t.rec.Enabled() {
			t.rec.Compile(t.curSpan, j.ms.name, len(j.seq), hashSeq(j.seq), j.ok, j.compile)
		}
		if !j.ok {
			continue
		}
		prog := t.programFeatures(map[string]sparseVec{j.ms.name: j.fv})
		progs[i] = prog
		if _, seenBefore := t.measCut[t.programKey(prog)]; seenBefore {
			dups[i] = true
			t.candsDup++
			t.mDup.Inc()
		}
	}

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
	t.rec.AcqMax(t.curSpan, len(jobs), best.ms.name, best.af, best.dup, novel, time.Since(tAcq))
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
	t.candsCompiled++
	t.mComp.Inc()
	out, err := t.compileOne(ms.name, t.seqStrings(seq))
	t.res.Breakdown.Compile += out.Wall
	t.hCompile.Observe(out.Wall.Seconds())
	if t.rec.Enabled() {
		t.rec.Compile(t.curSpan, ms.name, len(seq), hashSeq(seq), err == nil, out.Wall)
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
		t.mSaved.Inc()
		t.rec.Measure(t.curSpan, ms.name, 0, y*t.base, 1/y, 1/t.bestObservedY(), true, true, 0)
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
		t.rec.Measure(t.curSpan, ms.name, 0, 0, 0, 1/prevBest, false, false, 0)
		t.tellGenerators(ms, seq, 10)
		return false
	}
	seqs := t.currentSequences()
	seqs[ms.name] = t.seqStrings(seq)
	tm := time.Now()
	timeC, err := t.task.Measure(t.runCtx(), seqs)
	wall := time.Since(tm)
	t.res.Breakdown.Measure += wall
	t.hMeasure.Observe(wall.Seconds())
	if err != nil {
		// Differential-test failure or build error: discard, penalise.
		t.rec.Measure(t.curSpan, ms.name, 0, 0, 0, 1/prevBest, false, false, wall)
		t.tellGenerators(ms, seq, 10)
		return false
	}
	t.mMeas.Inc()
	y := timeC / t.base
	t.recordObservation(fv, y)
	if t.opts.Checkpoint != nil {
		t.obsLog = append(t.obsLog, Observation{Module: ms.name, Seq: t.seqStrings(seq), Y: y})
	}
	t.tellGenerators(ms, seq, y)
	t.res.ModuleBudget[ms.name]++
	// 1/y, not base/timeC: finalize computes BestSpeedup as 1/bestY, and the
	// journal's final new-incumbent must match it bit-for-bit.
	sp := 1 / y
	if y < ms.bestY {
		ms.bestY = y
		ms.bestSeq = append([]int(nil), seq...)
		ms.bestFeat = fv[ms.name]
	}
	bestSoFar := 1 / t.bestObservedY()
	t.res.Trace = append(t.res.Trace, TracePoint{
		Measurement: len(t.res.Trace) + 1,
		Module:      ms.name,
		Time:        timeC,
		Speedup:     sp,
		BestSpeedup: bestSoFar,
	})
	meas := len(t.res.Trace)
	t.gBest.Set(bestSoFar)
	t.rec.Measure(t.curSpan, ms.name, meas, timeC, sp, bestSoFar, true, false, wall)
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

// finalize fills the result summary. The breakdown's counts come back out
// of the metrics registry (this run's deltas), making the registry, the
// journal and Result three views of the same accounting.
func (t *Tuner) finalize(start time.Time) {
	t.res.BestSeqs = t.currentSequences()
	bestY := t.bestObservedY()
	t.res.BestTime = bestY * t.base
	t.res.BestSpeedup = 1 / bestY
	if t.candsCompiled > 0 {
		t.res.CandidateDupRate = float64(t.candsDup) / float64(t.candsCompiled)
	}
	t.res.Breakdown.Measures = int(t.mMeas.Value() - t.mMeas0)
	t.res.Breakdown.Compiles = int(t.mComp.Value() - t.mComp0)
	t.res.Breakdown.Counters = t.counters()
	if pp, ok := t.task.(PassProfileReporter); ok {
		t.res.PassProfile = pp.PassProfile()
	}
	t.res.Breakdown.Total = time.Since(start)
	if t.rec.Enabled() {
		bd := t.res.Breakdown
		summary := map[string]any{
			"best_speedup": t.res.BestSpeedup, "best_time_cycles": t.res.BestTime,
			"measurements": bd.Measures, "compilations": bd.Compiles,
			"saved_measurements": t.res.SavedMeasurements,
			"novel_selections":   t.res.NovelSelections,
			"candidate_dup_rate": t.res.CandidateDupRate,
			"interrupted":        t.interrupted,
			"breakdown": map[string]any{
				"gp_fit_ns": bd.GPFit.Nanoseconds(), "acq_max_ns": bd.AcqMax.Nanoseconds(),
				"compile_ns": bd.Compile.Nanoseconds(), "measure_ns": bd.Measure.Nanoseconds(),
				"total_ns": bd.Total.Nanoseconds(),
			},
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
