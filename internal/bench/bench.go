// Package bench defines the benchmark programs used in the evaluation — a
// cBench-like suite of small-to-medium single-purpose programs and a
// SPEC-CPU-like suite of larger multi-module programs (Table 5.4) — plus the
// compile/measure/differential-test harness the tuners drive.
package bench

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sync"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/machine"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/passes"
)

// Benchmark is one program: a set of module specs plus a generated main.
type Benchmark struct {
	Name  string
	Suite string // "cbench" or "spec"
	Specs []irgen.ModuleSpec
}

// ModuleNames lists the benchmark's compilation units (excluding main).
func (b *Benchmark) ModuleNames() []string {
	out := make([]string, len(b.Specs))
	for i, s := range b.Specs {
		out[i] = s.Name
	}
	return out
}

// Build generates the benchmark's modules for the given dataset (different
// datasets perturb global data, mirroring cBench's multiple inputs). The
// main module is last. Target sets the SIMD width the vectorisers model.
func (b *Benchmark) Build(dataset int, vecWidth64 int) []*ir.Module {
	var mods []*ir.Module
	for _, spec := range b.Specs {
		s := spec
		s.Seed = dataSeed(b.Name, spec.Name, dataset)
		m := irgen.BuildModule(s)
		m.TargetVecWidth64 = vecWidth64
		mods = append(mods, m)
	}
	mm := irgen.BuildMain(b.Name, b.ModuleNames())
	mm.TargetVecWidth64 = vecWidth64
	mods = append(mods, mm)
	return mods
}

func dataSeed(bench, mod string, dataset int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", bench, mod, dataset)
	return int64(h.Sum64() & 0x7FFFFFFFFFFF)
}

func ks(kind irgen.KernelKind, size, reps, unroll int, pred ir.CmpPred) irgen.KernelSpec {
	return irgen.KernelSpec{Kind: kind, Size: size, Reps: reps, Unroll: unroll, ExitPred: pred}
}

// CBench returns the cBench-like suite (Table 5.4): small programs named
// after their cBench counterparts, each with 1-3 modules.
func CBench() []*Benchmark {
	return []*Benchmark{
		{Name: "telecom_gsm", Suite: "cbench", Specs: []irgen.ModuleSpec{
			{Name: "long_term", Kernels: []irgen.KernelSpec{
				ks(irgen.DotProduct, 96, 3, 8, ir.CmpSLT),
				ks(irgen.MinMaxReduce, 64, 1, 0, ir.CmpNE),
			}},
			{Name: "short_term", Kernels: []irgen.KernelSpec{
				ks(irgen.FIR, 48, 2, 0, ir.CmpSLE),
				ks(irgen.PrefixSum, 64, 1, 0, ir.CmpSLT),
			}},
		}},
		{Name: "automotive_susan", Suite: "cbench", Specs: []irgen.ModuleSpec{
			{Name: "susan", Kernels: []irgen.KernelSpec{
				ks(irgen.Stencil, 128, 2, 0, ir.CmpSLT),
				ks(irgen.Histogram, 96, 2, 0, ir.CmpNE),
			}},
		}},
		{Name: "automotive_bitcount", Suite: "cbench", Specs: []irgen.ModuleSpec{
			{Name: "bitcnt", Kernels: []irgen.KernelSpec{
				ks(irgen.CRC, 128, 3, 0, ir.CmpSLT),
				ks(irgen.StateMachine, 96, 2, 0, ir.CmpSLE),
			}},
		}},
		{Name: "security_sha", Suite: "cbench", Specs: []irgen.ModuleSpec{
			{Name: "sha", Kernels: []irgen.KernelSpec{
				ks(irgen.CRC, 96, 2, 0, ir.CmpNE),
				ks(irgen.PrefixSum, 96, 2, 0, ir.CmpSLT),
				ks(irgen.CopyFill, 64, 1, 0, ir.CmpSLT),
			}},
		}},
		{Name: "office_stringsearch", Suite: "cbench", Specs: []irgen.ModuleSpec{
			{Name: "search", Kernels: []irgen.KernelSpec{
				ks(irgen.CompareBlocks, 96, 3, 0, ir.CmpSLT),
				ks(irgen.StateMachine, 64, 1, 0, ir.CmpSLT),
			}},
		}},
		{Name: "network_dijkstra", Suite: "cbench", Specs: []irgen.ModuleSpec{
			{Name: "dijkstra", Kernels: []irgen.KernelSpec{
				ks(irgen.MinMaxReduce, 96, 3, 0, ir.CmpSLT),
				ks(irgen.Histogram, 64, 2, 0, ir.CmpSLT),
				ks(irgen.PrefixSum, 64, 1, 0, ir.CmpSLE),
			}},
		}},
		{Name: "telecom_adpcm", Suite: "cbench", Specs: []irgen.ModuleSpec{
			{Name: "adpcm", Kernels: []irgen.KernelSpec{
				ks(irgen.DotProduct, 64, 2, 4, ir.CmpNE),
				ks(irgen.StateMachine, 96, 2, 0, ir.CmpSLT),
			}},
		}},
		{Name: "consumer_jpeg", Suite: "cbench", Specs: []irgen.ModuleSpec{
			{Name: "jdct", Kernels: []irgen.KernelSpec{
				ks(irgen.MatMul, 12, 2, 0, ir.CmpSLT),
				ks(irgen.Stencil, 96, 1, 0, ir.CmpSLE),
			}},
			{Name: "jquant", Kernels: []irgen.KernelSpec{
				ks(irgen.Histogram, 96, 2, 0, ir.CmpSLT),
			}},
		}},
		{Name: "bzip2d", Suite: "cbench", Specs: []irgen.ModuleSpec{
			{Name: "decompress", Kernels: []irgen.KernelSpec{
				ks(irgen.InsertionSort, 40, 2, 0, ir.CmpSLT),
				ks(irgen.Histogram, 96, 1, 0, ir.CmpSLT),
				ks(irgen.CopyFill, 96, 1, 0, ir.CmpNE),
			}},
		}},
		{Name: "consumer_lame", Suite: "cbench", Specs: []irgen.ModuleSpec{
			{Name: "psymodel", Kernels: []irgen.KernelSpec{
				ks(irgen.FloatNorm, 96, 2, 0, ir.CmpSLT),
				ks(irgen.Polynomial, 64, 2, 0, ir.CmpSLT),
			}},
			{Name: "quantize", Kernels: []irgen.KernelSpec{
				ks(irgen.DotProduct, 64, 1, 4, ir.CmpSLT),
				ks(irgen.TailRecur, 48, 1, 0, ir.CmpSLT),
			}},
		}},
	}
}

// SPEC returns the SPEC-CPU-2017-like suite: larger multi-module programs
// with skewed hot-module distributions.
func SPEC() []*Benchmark {
	return []*Benchmark{
		{Name: "505.mcf_r", Suite: "spec", Specs: []irgen.ModuleSpec{
			{Name: "pbeampp", Kernels: []irgen.KernelSpec{
				ks(irgen.MinMaxReduce, 160, 3, 0, ir.CmpSLT),
				ks(irgen.PrefixSum, 128, 2, 0, ir.CmpSLT),
			}},
			{Name: "implicit", Kernels: []irgen.KernelSpec{
				ks(irgen.Histogram, 128, 2, 0, ir.CmpNE),
			}},
			{Name: "mcfutil", Kernels: []irgen.KernelSpec{
				ks(irgen.CopyFill, 96, 1, 0, ir.CmpSLT),
			}},
		}},
		{Name: "525.x264_r", Suite: "spec", Specs: []irgen.ModuleSpec{
			{Name: "pixel", Kernels: []irgen.KernelSpec{
				ks(irgen.DotProduct, 128, 3, 8, ir.CmpSLT),
				ks(irgen.CompareBlocks, 96, 2, 0, ir.CmpSLT),
			}},
			{Name: "dct", Kernels: []irgen.KernelSpec{
				ks(irgen.MatMul, 12, 2, 0, ir.CmpSLT),
				ks(irgen.Stencil, 128, 2, 0, ir.CmpSLE),
			}},
			{Name: "me", Kernels: []irgen.KernelSpec{
				ks(irgen.MinMaxReduce, 128, 2, 0, ir.CmpSLT),
			}},
			{Name: "cabac", Kernels: []irgen.KernelSpec{
				ks(irgen.StateMachine, 128, 2, 0, ir.CmpSLT),
				ks(irgen.CRC, 96, 1, 0, ir.CmpSLT),
			}},
		}},
		{Name: "557.xz_r", Suite: "spec", Specs: []irgen.ModuleSpec{
			{Name: "lzma_dec", Kernels: []irgen.KernelSpec{
				ks(irgen.StateMachine, 160, 3, 0, ir.CmpSLT),
				ks(irgen.PrefixSum, 128, 2, 0, ir.CmpSLT),
			}},
			{Name: "crc_mod", Kernels: []irgen.KernelSpec{
				ks(irgen.CRC, 128, 2, 0, ir.CmpNE),
			}},
			{Name: "buf_util", Kernels: []irgen.KernelSpec{
				ks(irgen.CopyFill, 128, 1, 0, ir.CmpSLT),
				ks(irgen.CompareBlocks, 64, 1, 0, ir.CmpSLT),
			}},
		}},
		{Name: "519.lbm_r", Suite: "spec", Specs: []irgen.ModuleSpec{
			{Name: "lbm_core", Kernels: []irgen.KernelSpec{
				ks(irgen.Stencil, 192, 3, 0, ir.CmpSLT),
				ks(irgen.FloatNorm, 128, 2, 0, ir.CmpSLT),
			}},
			{Name: "lbm_aux", Kernels: []irgen.KernelSpec{
				ks(irgen.Polynomial, 96, 1, 0, ir.CmpSLT),
			}},
		}},
		{Name: "531.deepsjeng_r", Suite: "spec", Specs: []irgen.ModuleSpec{
			{Name: "search_eng", Kernels: []irgen.KernelSpec{
				ks(irgen.InsertionSort, 44, 2, 0, ir.CmpSLT),
				ks(irgen.MinMaxReduce, 128, 2, 0, ir.CmpSLT),
			}},
			{Name: "evaluate", Kernels: []irgen.KernelSpec{
				ks(irgen.DotProduct, 96, 2, 4, ir.CmpSLE),
				ks(irgen.Histogram, 96, 1, 0, ir.CmpSLT),
			}},
			{Name: "ttable", Kernels: []irgen.KernelSpec{
				ks(irgen.CRC, 96, 1, 0, ir.CmpSLT),
			}},
		}},
	}
}

// ByName finds a benchmark in either suite.
func ByName(name string) *Benchmark {
	for _, b := range append(CBench(), SPEC()...) {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// --- Evaluation harness ---

// Platform bundles the simulated machine and its measurement noise under the
// name the CLIs, the serve API and fleet batches spell it by.
type Platform struct {
	Name     string
	Prof     machine.Profile
	NoiseStd float64
}

// ARM and X86 are the two evaluation platforms (§5.4.2).
func ARM() Platform { return Platform{Name: "arm", Prof: machine.CortexA57(), NoiseStd: 0.006} }
func X86() Platform { return Platform{Name: "x86", Prof: machine.Zen3(), NoiseStd: 0.004} }

// PlatformByName is the one parser of a platform name. The empty string
// selects ARM, the default everywhere; anything else must be a Platform's
// Name exactly.
func PlatformByName(name string) (Platform, error) {
	if name == "" {
		return ARM(), nil
	}
	for _, p := range []Platform{ARM(), X86()} {
		if p.Name == name {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("unknown platform %q (arm or x86)", name)
}

const (
	// numDatasets is the number of inputs every measurement builds, runs and
	// differential-tests against the unoptimised reference.
	numDatasets = 2
	// noiseRuns is the number of noise samples per measurement (the image
	// executes once).
	noiseRuns = 3
)

// Evaluator compiles benchmark modules under pass sequences and measures the
// result, implementing the compile→stats→profile→differential-test cycle.
//
// CompileModule is safe for concurrent use (the tuner's evaluation pool fans
// candidate compilations across goroutines). Measure and the profiling
// helpers share the measurement RNG and must stay on one goroutine — callers
// keep it there; inside one Measure the datasets fan out over
// numeric.ParallelFor (build, link, execute) and are judged, and their noise
// drawn, in dataset order back on the caller's goroutine (timeWithSequences),
// so the result does not depend on scheduling.
type Evaluator struct {
	Bench *Benchmark
	Plat  Platform
	// CacheCap < 0 makes the compile cache retain and serve nothing (every
	// compile that is not joining a concurrent identical one re-runs the
	// pipeline); otherwise the round rule of cache.go bounds it.
	CacheCap int
	meas     *machine.Measurement
	pristine [][]*ir.Module // per dataset
	refOut   [][]machine.OutputEvent
	o3Time   float64

	// The -O3 baseline's profile (setHotTable), which HotModules reads:
	// Modules() hottest first, and each executed module's share of the
	// cycles spent outside main. hotRan is false when nothing outside main
	// executed; the order is then Modules()' own.
	hotOrder []string
	hotFrac  map[string]float64
	hotRan   bool

	// Compile cache (see cache.go): (dataset, module, sequence hash) →
	// immutable final state + stats, and the current round (BeginRound).
	// Guarded by mu together with flights and all counters below.
	mu        sync.Mutex
	cache     map[buildKey]*cacheEntry
	round     int
	flights   map[buildKey]*flight
	cacheHits int
	cacheMiss int
	// COW clone accounting: clones handed out sharing bodies, and the
	// subset that materialized private bodies.
	cowShared       int
	cowMaterialized int

	// Passes executed, estimated bytes currently cached, entries evicted.
	replayed   int
	cacheBytes int64
	evictions  int

	// Counters for Fig 5.12-style accounting. Compilations counts actual
	// pass-pipeline executions (cache hits do not re-run pipelines).
	Compilations int
	Measurements int

	// Optional per-pass profile (SetObs); nil until enabled. It collects
	// per-pass wall time and stats deltas.
	prof *passes.Profile

	// bc0 is the measurement machine's bytecode-engine counter state at the
	// end of construction, so BcCounters reports search work only (the
	// baseline O3 build and reference runs do not count, mirroring the
	// counter reset above).
	bc0 machine.BcStats
}

// NewEvaluator builds the evaluator and its -O3 baseline.
func NewEvaluator(b *Benchmark, plat Platform, seed int64) (*Evaluator, error) {
	ev := &Evaluator{
		Bench: b, Plat: plat,
		meas:    machine.NewMeasurement(machine.New(plat.Prof), plat.NoiseStd, seed),
		cache:   map[buildKey]*cacheEntry{},
		flights: map[buildKey]*flight{},
	}
	for ds := 0; ds < numDatasets; ds++ {
		mods := b.Build(ds, plat.Prof.VecWidth64)
		for _, m := range mods {
			if err := ir.Verify(m); err != nil {
				return nil, fmt.Errorf("bench %s: %w", b.Name, err)
			}
			// Re-slab builder output into dense arenas: every COW clone of a
			// pristine module then materializes from cache-friendly slabs.
			ir.CompactModule(m)
		}
		ev.pristine = append(ev.pristine, mods)
		// Reference outputs from unoptimised builds (ground truth).
		img, err := machine.Link(cloneAll(mods)...)
		if err != nil {
			return nil, err
		}
		res, err := ev.meas.Machine.Run(img, "main")
		if err != nil {
			return nil, err
		}
		ev.refOut = append(ev.refOut, res.Output)
	}
	// O3 baseline time, and its dataset-0 profile for HotModules.
	t, err := ev.timeWithSequences(context.Background(), nil, ev.setHotTable)
	if err != nil {
		return nil, err
	}
	ev.o3Time = t
	// The baseline build is setup, not search work: reset the accounting so
	// counters reflect what the tuner spends. The O3-compiled modules stay
	// in the cache: every later measurement reuses them for unchanged
	// modules.
	ev.Compilations, ev.Measurements = 0, 0
	ev.mu.Lock()
	ev.cacheHits, ev.cacheMiss = 0, 0
	ev.replayed, ev.evictions = 0, 0
	ev.cowShared, ev.cowMaterialized = 0, 0
	ev.mu.Unlock()
	// Snapshot the bytecode-engine counters accumulated by the baseline and
	// reference runs; BcCounters subtracts this so it too reports search
	// work only.
	ev.bc0 = ev.meas.Machine.BcCounters()
	return ev, nil
}

// BcCounters returns the measurement machine's bytecode-engine accounting
// since the evaluator was built (the baseline build does not count):
// functions and bytecode bytes of the image programs assembled, and
// functions whose lowering was reused from their shared body or lowered now.
// One assembly per measured image, so LoweredFuncs and BytecodeBytes are
// deterministic functions of the evaluated workload and safe for canonical
// journal fields; which of two concurrent measurements lowers a shared body
// first is not, so CodeHits and CodeMisses are not.
func (ev *Evaluator) BcCounters() machine.BcStats {
	return ev.meas.Machine.BcCounters().Sub(ev.bc0)
}

func cloneAll(mods []*ir.Module) []*ir.Module {
	out := make([]*ir.Module, len(mods))
	for i, m := range mods {
		out[i] = m.Clone()
	}
	return out
}

// O3Time returns the baseline runtime (median cycles at -O3).
func (ev *Evaluator) O3Time() float64 { return ev.o3Time }

// Modules returns the module names (excluding main).
func (ev *Evaluator) Modules() []string { return ev.Bench.ModuleNames() }

// CompileModule applies seq (nil = O3) to a fresh copy of the named module
// (dataset 0) and returns it with its compilation statistics. This is the
// cheap stats-extraction step: no execution happens. Safe for concurrent use.
func (ev *Evaluator) CompileModule(name string, seq []string) (*ir.Module, passes.Stats, error) {
	return ev.compiledFor(context.Background(), 0, name, seq)
}

// CompileModuleCtx is CompileModule under a cancellable context: a cancelled
// ctx aborts before the pipeline runs (individual passes are fast; the win is
// skipping queued candidate compiles on a cancelled run).
func (ev *Evaluator) CompileModuleCtx(ctx context.Context, name string, seq []string) (*ir.Module, passes.Stats, error) {
	return ev.compiledFor(ctx, 0, name, seq)
}

// CacheCounters returns the compiled-module cache hit/miss counts since the
// evaluator was built (the baseline build does not count).
func (ev *Evaluator) CacheCounters() (hits, misses int) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.cacheHits, ev.cacheMiss
}

// Counters is the one place an evaluator counter is defined: its journal and
// report name, which also names its /metrics series (DESIGN.md "Counters"),
// and whether it is canonical — a deterministic function of the evaluated
// workload, counted since the evaluator was built (the baseline build does
// not count) — or an Env observation: the evaluator's own cache-byte and COW
// accounting, or the scheduling-dependent process-global pools. Everything
// downstream (stats events, Result, reports, /metrics, batch deltas)
// iterates this set, so adding a counter is adding a row here.
func (ev *Evaluator) Counters() obs.CounterSet {
	hits, misses := ev.CacheCounters()
	_, replayed, cacheBytes, evictions := ev.PrefixCounters()
	shared, materialized := ev.CowCounters()
	bc := ev.BcCounters()
	ev.mu.Lock()
	pipelines, builds := ev.Compilations, ev.Measurements
	ev.mu.Unlock()
	clones, cloneMat, slabFuncs, _ := ir.CloneCounters()
	machGets, machNews := machine.PoolCounters()
	passGets, passNews := passes.PoolCounters()

	row := func(name string, v int64) obs.CounterRow {
		return obs.CounterRow{Name: name, Value: v}
	}
	// The build_passes, cache_bytes, cache_evictions and cow_* rows count
	// this evaluator's work. Since eviction happens only at round starts they
	// no longer depend on scheduling, but they stay Env rows until a
	// re-baseline changes the journal schema.
	ownEnv := func(name string, v int64) obs.CounterRow {
		return obs.CounterRow{Name: name, Value: v, Env: true}
	}
	env := func(name string, v uint64) obs.CounterRow {
		return obs.CounterRow{Name: name, Value: int64(v), Env: true, Global: true}
	}
	return obs.CounterSet{
		row("cache_hits", int64(hits)),
		row("cache_misses", int64(misses)),
		// Pass-pipeline executions and linked images timed. Not "compilations"
		// / "measurements": the run-end summary uses those keys for the
		// tuner's candidate and budget counts, which are different numbers.
		row("pipeline_runs", int64(pipelines)),
		row("measured_builds", int64(builds)),
		ownEnv("build_passes", int64(replayed)),
		ownEnv("cache_bytes", cacheBytes),
		ownEnv("cache_evictions", int64(evictions)),
		ownEnv("cow_shared", int64(shared)),
		ownEnv("cow_materialized", int64(materialized)),
		row("bc_lowered_funcs", bc.LoweredFuncs),
		row("bc_bytecode_bytes", bc.BytecodeBytes),
		env("ir_clone_cow", clones),
		env("ir_clone_materialized", cloneMat),
		env("ir_clone_slab_funcs", slabFuncs),
		env("machine_pool_gets", machGets),
		env("machine_pool_news", machNews),
		env("passes_pool_gets", passGets),
		env("passes_pool_news", passNews),
	}
}

// SetObs attaches the evaluator to a metrics registry, where it keeps a
// histogram of simulated run cycles (single noise samples, which no journal
// event carries; the Counters() rows reach /metrics through the journal's
// stats events, analyze.NewMetricsSink) and, when prof is non-nil, enables
// per-pass profiling of every pipeline execution. Call before tuning starts:
// CompileModule runs concurrently and the fields set here are not guarded for
// mid-run replacement. A nil registry records nothing.
func (ev *Evaluator) SetObs(m *obs.Metrics, prof *passes.Profile) {
	ev.prof = prof
	if m != nil {
		h := m.Histogram("machine_run_cycles", obs.CyclesBuckets)
		ev.meas.OnSample = h.Observe
	}
}

// PassProfile returns the aggregated per-pass costs collected since SetObs
// attached a profile (nil when profiling is disabled).
func (ev *Evaluator) PassProfile() []passes.PassCost {
	if ev.prof == nil {
		return nil
	}
	return ev.prof.Costs()
}

// datasetRun is the deterministic half of measuring one dataset: the build,
// the link and the image's single execution.
type datasetRun struct {
	linked bool // the image linked, so the serial protocol counts a measurement
	res    *machine.Result
	err    error
}

// runDataset builds every module of dataset ds with the per-module sequences,
// links them and executes the image once — the only path from modules to
// cycles in this package. Safe to call concurrently for different datasets:
// it draws no noise and touches only locked evaluator state. The context is
// checked before the build.
func (ev *Evaluator) runDataset(ctx context.Context, ds int, seqs map[string][]string) (r datasetRun) {
	if r.err = ctx.Err(); r.err != nil {
		return r
	}
	// Pipelines only re-run for modules whose sequence changed since the
	// last build; unchanged incumbents come back as cached clones.
	mods := make([]*ir.Module, 0, len(ev.pristine[ds]))
	for _, pm := range ev.pristine[ds] {
		m, _, err := ev.compiledFor(ctx, ds, pm.Name, seqs[pm.Name])
		if err != nil {
			r.err = err
			return r
		}
		mods = append(mods, m)
	}
	img, err := machine.Link(mods...)
	if err != nil {
		r.err = err
		return r
	}
	r.linked = true
	r.res, r.err = ev.meas.Machine.Run(img, "main")
	return r
}

// timeWithSequences builds every dataset with the per-module sequences
// (nil map entry or nil map = O3), differential-tests outputs and returns
// the median runtime of dataset 0. A non-nil
// profile receives dataset 0's exclusive cycles per function, which it must
// not retain.
//
// The datasets execute concurrently on numeric.ParallelFor — which joins
// every worker and re-raises a panic of any of them here — and are then
// judged serially, in dataset order, exactly as a one-dataset-at-a-time loop
// would: the first error in dataset order wins, and the measurement count and
// the noise samples (the only consumers of the shared RNG) advance only for
// datasets that loop would have reached. Times, errors and the RNG stream
// therefore do not depend on scheduling; the one visible difference is that a
// later dataset's build has already happened when an earlier one is rejected.
// Every measurement, the baseline's included, opens a compile-cache round.
func (ev *Evaluator) timeWithSequences(ctx context.Context, seqs map[string][]string, profile func(funcCycles map[string]float64)) (float64, error) {
	ev.BeginRound()
	runs := make([]datasetRun, numDatasets)
	numeric.ParallelFor(numDatasets, numDatasets, func(ds int) {
		runs[ds] = ev.runDataset(ctx, ds, seqs)
	})

	var t0 float64
	for ds, r := range runs {
		if r.linked {
			ev.mu.Lock()
			ev.Measurements++
			ev.mu.Unlock()
		}
		if r.err != nil {
			return 0, r.err
		}
		t := ev.meas.MedianOf(r.res.Cycles, noiseRuns)
		// Differential testing against the unoptimised reference.
		if err := machine.OutputsMatch(ev.refOut[ds], r.res.Output, 1e-6); err != nil {
			return 0, fmt.Errorf("bench: differential test failed: %w", err)
		}
		if ds == 0 {
			t0 = t
			if profile != nil {
				profile(r.res.FuncCycles)
			}
		}
		// The result is not retained past the differential check.
		machine.ReleaseResult(r.res)
	}
	return t0, nil
}

// Measure times the program with per-module sequences, differential-testing
// the result. The returned speedup is O3time/time (higher is better).
func (ev *Evaluator) Measure(seqs map[string][]string) (timeCycles, speedup float64, err error) {
	return ev.MeasureCtx(context.Background(), seqs)
}

// MeasureCtx is Measure under a cancellable context: a cancelled ctx aborts
// between dataset builds instead of finishing the full differential-test
// cycle.
func (ev *Evaluator) MeasureCtx(ctx context.Context, seqs map[string][]string) (timeCycles, speedup float64, err error) {
	t, err := ev.timeWithSequences(ctx, seqs, nil)
	if err != nil {
		return 0, 0, err
	}
	return t, ev.o3Time / t, nil
}

// setHotTable turns the exclusive per-function cycles of the -O3 baseline's
// dataset-0 run into the table HotModules reads. Functions map to modules
// through the pristine build, so main and functions a pass created count for
// nothing; the sums run in module and function order, so every evaluator of
// a benchmark holds the same floats.
func (ev *Evaluator) setHotTable(funcCycles map[string]float64) {
	byMod := map[string]float64{}
	total := 0.0
	mainName := ev.Bench.Name + "_main"
	for _, m := range ev.pristine[0] {
		if m.Name == mainName {
			continue
		}
		for _, f := range m.Funcs {
			if f.IsDecl {
				continue
			}
			if c, ok := funcCycles[f.Name]; ok {
				byMod[m.Name] += c
				total += c
			}
		}
	}
	ev.hotOrder, ev.hotFrac, ev.hotRan = ev.Modules(), byMod, total != 0
	if !ev.hotRan {
		return
	}
	// By share, descending; equal shares keep module order.
	slices.SortStableFunc(ev.hotOrder, func(a, b string) int { return cmp.Compare(byMod[b], byMod[a]) })
	for m, c := range byMod {
		byMod[m] = c / total
	}
}

// HotModules returns the modules sorted by their share of the -O3 build's
// execution time, keeping those that cumulatively cover `coverage` (e.g. 0.9,
// per §5.3.1), and every executed module's share. It reads the profile the
// baseline run left at construction — nothing is built, linked or run — and
// the caller owns both results.
func (ev *Evaluator) HotModules(coverage float64) ([]string, map[string]float64, error) {
	n := len(ev.hotOrder)
	if ev.hotRan {
		acc := 0.0
		for i, m := range ev.hotOrder {
			if acc += ev.hotFrac[m]; acc >= coverage {
				n = i + 1
				break
			}
		}
	}
	return slices.Clone(ev.hotOrder[:n]), maps.Clone(ev.hotFrac), nil
}
