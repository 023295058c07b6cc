// Package bench defines the benchmark programs used in the evaluation — a
// cBench-like suite of small-to-medium single-purpose programs and a
// SPEC-CPU-like suite of larger multi-module programs (Table 5.4) — plus the
// compile/measure/differential-test harness the tuners drive.
package bench

import (
	"cmp"
	"container/list"
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

// DefaultCacheCap is the default snapshot-cache capacity (entries). A single
// build now retains one snapshot per stride boundary rather than one entry
// total, so the entry cap is a generous backstop — SnapshotBudget (bytes) is
// the bound that matters for memory on long tuning runs.
const DefaultCacheCap = 4096

// Evaluator compiles benchmark modules under pass sequences and measures the
// result, implementing the compile→stats→profile→differential-test cycle.
//
// CompileModule is safe for concurrent use (the tuner's evaluation pool fans
// candidate compilations across goroutines). Measure and the profiling
// helpers share the measurement RNG and must stay on one goroutine — callers
// keep it there; inside one Measure the datasets fan out over
// numeric.ParallelFor (build, link, execute) and are judged, and their noise
// drawn, in dataset order back on the caller's goroutine (timeWithSequences),
// so the result does not depend on scheduling. Datasets is the only control
// of that.
type Evaluator struct {
	Bench    *Benchmark
	Plat     Platform
	Datasets int
	Runs     int // noise samples per measurement (the image executes once)
	// CacheCap bounds the snapshot cache's entry count: 0 means
	// DefaultCacheCap, negative disables memoisation entirely (every compile
	// re-runs the full pipeline, the pre-cache behaviour).
	CacheCap int
	// SnapshotEvery is the prefix-snapshot stride in passes: intermediate
	// module states are retained every SnapshotEvery passes so later
	// candidates resume from their longest cached prefix. 0 means
	// DefaultSnapshotEvery; negative keeps only final states (the old
	// exact-sequence cache, useful as a benchmarking baseline).
	SnapshotEvery int
	// SnapshotBudget bounds the estimated bytes held by snapshots
	// (Module.ApproxBytes). 0 means DefaultSnapshotBudget; negative is
	// unbounded (entry cap still applies).
	SnapshotBudget int64
	meas           *machine.Measurement
	pristine       [][]*ir.Module // per dataset
	refOut         [][]machine.OutputEvent
	o3Time         float64
	o3Stats        passes.Stats

	// The -O3 baseline's profile (setHotTable), which HotModules reads:
	// Modules() hottest first, and each executed module's share of the
	// cycles spent outside main. hotRan is false when nothing outside main
	// executed; the order is then Modules()' own.
	hotOrder []string
	hotFrac  map[string]float64
	hotRan   bool

	// Prefix-snapshot cache (see prefixcache.go): (dataset, module, prefix
	// hash, depth) → immutable module state + stats. Guarded by mu together
	// with flights and all counters below.
	mu        sync.Mutex
	snaps     map[snapKey]*list.Element
	lru       *list.List // front = most recently used *snapEntry
	flights   map[seqKey]*flight
	cacheHits int
	cacheMiss int
	// modBytes refcounts the distinct module instances retained by snapshot
	// entries so snapBytes charges shared instances exactly once (see
	// modRef in prefixcache.go).
	modBytes map[*ir.Module]*modRef
	// COW clone accounting, derived from the hit/miss/snapshot structure:
	// clones handed out sharing bodies, and the subset that materialized
	// private bodies.
	cowShared       int
	cowMaterialized int

	// Prefix accounting: passes skipped by resuming from snapshots vs passes
	// actually executed, current snapshot bytes, snapshots evicted.
	prefixSaved    int
	prefixReplayed int
	snapBytes      int64
	snapEvict      int

	// Counters for Fig 5.12-style accounting. Compilations counts actual
	// pass-pipeline executions (cache hits do not re-run pipelines).
	Compilations int
	Measurements int

	// Optional observability (SetObs); nil until enabled. prof collects
	// per-pass wall time and stats deltas; metrics is the registry
	// publishMetrics mirrors Counters() into, published the set it mirrored
	// last (both guarded by pubMu).
	prof      *passes.Profile
	metrics   *obs.Metrics
	pubMu     sync.Mutex
	published obs.CounterSet

	// bc0 is the measurement machine's bytecode-engine counter state at the
	// end of construction, so BcCounters reports search work only (the
	// baseline O3 build and reference runs do not count, mirroring the
	// counter reset above).
	bc0 machine.BcStats
}

// seqKey identifies one full (dataset, module, sequence) build; used to
// deduplicate concurrent in-flight compilations.
type seqKey struct {
	dataset int
	module  string
	hash    uint64
}

// NewEvaluator builds the evaluator and its -O3 baseline.
func NewEvaluator(b *Benchmark, plat Platform, seed int64) (*Evaluator, error) {
	ev := &Evaluator{
		Bench: b, Plat: plat, Datasets: 2, Runs: 3,
		meas:     machine.NewMeasurement(machine.New(plat.Prof), plat.NoiseStd, seed),
		snaps:    map[snapKey]*list.Element{},
		lru:      list.New(),
		flights:  map[seqKey]*flight{},
		modBytes: map[*ir.Module]*modRef{},
	}
	for ds := 0; ds < ev.Datasets; ds++ {
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
	t, st, err := ev.timeWithSequences(context.Background(), nil, ev.setHotTable)
	if err != nil {
		return nil, err
	}
	ev.o3Time, ev.o3Stats = t, st
	// The baseline build is setup, not search work: reset the accounting so
	// counters reflect what the tuner spends. The O3-compiled modules (and
	// their prefix snapshots) stay in the cache — every later measurement
	// reuses them for unchanged modules, and candidates that extend or mutate
	// the O3 pipeline resume from its snapshots.
	ev.Compilations, ev.Measurements = 0, 0
	ev.mu.Lock()
	ev.cacheHits, ev.cacheMiss = 0, 0
	ev.prefixSaved, ev.prefixReplayed, ev.snapEvict = 0, 0, 0
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
// functions lowered, bytecode bytes produced, and runs that lowered their
// image or found it lowered. One lowering per measured image, so these are
// deterministic functions of the evaluated workload and safe for canonical
// journal fields.
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

// O3Stats returns the compilation statistics of the -O3 build.
func (ev *Evaluator) O3Stats() passes.Stats { return ev.o3Stats }

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
// report name, its /metrics series (if any), and whether it is canonical — a
// deterministic function of the evaluated workload, counted since the
// evaluator was built (the baseline build does not count) — or an Env
// observation that depends on scheduling: the evaluator's own snapshot and
// COW accounting, or the process-global pools. Everything downstream (stats
// events, Result, reports, gauges, batch deltas) iterates this set, so adding
// a counter is adding a row here.
func (ev *Evaluator) Counters() obs.CounterSet {
	hits, misses := ev.CacheCounters()
	saved, replayed, snapBytes, evictions := ev.PrefixCounters()
	shared, materialized := ev.CowCounters()
	bc := ev.BcCounters()
	ev.mu.Lock()
	pipelines, builds := ev.Compilations, ev.Measurements
	ev.mu.Unlock()
	clones, cloneMat, slabFuncs, _ := ir.CloneCounters()
	machGets, machNews := machine.PoolCounters()
	passGets, passNews := passes.PoolCounters()

	row := func(name string, v int64, series string) obs.CounterRow {
		return obs.CounterRow{Name: name, Value: v, Series: series}
	}
	// Which snapshot a build resumes from, and so how many further snapshots
	// it clones and which are evicted, depends on the order workers touched
	// the LRU once the budget is full: the prefix_* and cow_* rows count this
	// evaluator's work but are not canonical.
	sched := func(name string, v int64, series string) obs.CounterRow {
		return obs.CounterRow{Name: name, Value: v, Env: true, Series: series}
	}
	env := func(name string, v uint64, series string) obs.CounterRow {
		return obs.CounterRow{Name: name, Value: int64(v), Env: true, Global: true, Series: series}
	}
	return obs.CounterSet{
		row("cache_hits", int64(hits), "bench_cache_hits_total"),
		row("cache_misses", int64(misses), "bench_cache_misses_total"),
		// Pass-pipeline executions and linked images timed. Not "compilations"
		// / "measurements": the run-end summary uses those keys for the
		// tuner's candidate and budget counts, which are different numbers.
		row("pipeline_runs", int64(pipelines), "bench_compilations_total"),
		row("measured_builds", int64(builds), "bench_measurements_total"),
		sched("prefix_saved_passes", int64(saved), "bench_prefix_saved_passes_total"),
		sched("prefix_replayed_passes", int64(replayed), "bench_prefix_replayed_passes_total"),
		sched("prefix_snapshot_bytes", snapBytes, "bench_prefix_snapshot_bytes"),
		sched("prefix_evictions", int64(evictions), "bench_prefix_evictions_total"),
		sched("cow_shared", int64(shared), ""),
		sched("cow_materialized", int64(materialized), ""),
		row("bc_lowered_funcs", bc.LoweredFuncs, "machine_bc_lowered_funcs"),
		row("bc_bytecode_bytes", bc.BytecodeBytes, "machine_bc_bytecode_bytes"),
		env("ir_clone_cow", clones, "ir_clone_cow_total"),
		env("ir_clone_materialized", cloneMat, "ir_clone_cow_materialized_total"),
		env("ir_clone_slab_funcs", slabFuncs, "ir_clone_slab_funcs_total"),
		env("machine_pool_gets", machGets, "machine_pool_gets_total"),
		env("machine_pool_news", machNews, "machine_pool_news_total"),
		env("passes_pool_gets", passGets, "passes_pool_gets_total"),
		env("passes_pool_news", passNews, "passes_pool_news_total"),
	}
}

// SetObs attaches the evaluator to a metrics registry (every Counters() row
// that names a series, plus a histogram of simulated run cycles) and, when
// prof is non-nil, enables per-pass profiling of every pipeline execution.
// Call before tuning starts: CompileModule runs concurrently and the fields
// set here are not guarded for mid-run replacement. A nil registry publishes
// nothing.
func (ev *Evaluator) SetObs(m *obs.Metrics, prof *passes.Profile) {
	ev.prof = prof
	ev.metrics = m
	if m != nil {
		h := m.Histogram("machine_run_cycles", obs.CyclesBuckets)
		ev.meas.OnSample = h.Observe
	}
}

// publishMetrics mirrors Counters() into the registry. It runs where the
// counters have just moved in bulk — after a pipeline build or a measurement
// — never per pass; exact-hit handouts show up at the next of those.
func (ev *Evaluator) publishMetrics() {
	if ev.metrics == nil {
		return
	}
	ev.pubMu.Lock()
	defer ev.pubMu.Unlock()
	set := ev.Counters()
	ev.metrics.Publish(set, ev.published)
	ev.published = set
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
	stats  passes.Stats
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
	if ds == 0 {
		r.stats = passes.Stats{} // the build statistics are dataset 0's
	}
	mods := make([]*ir.Module, 0, len(ev.pristine[ds]))
	for _, pm := range ev.pristine[ds] {
		m, st, err := ev.compiledFor(ctx, ds, pm.Name, seqs[pm.Name])
		if err != nil {
			r.err = err
			return r
		}
		if ds == 0 {
			r.stats.Merge(st)
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
// the median runtime of dataset 0 plus the build's statistics. A non-nil
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
func (ev *Evaluator) timeWithSequences(ctx context.Context, seqs map[string][]string, profile func(funcCycles map[string]float64)) (float64, passes.Stats, error) {
	runs := make([]datasetRun, ev.Datasets)
	numeric.ParallelFor(ev.Datasets, ev.Datasets, func(ds int) {
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
			return 0, nil, r.err
		}
		t := ev.meas.MedianOf(r.res.Cycles, ev.Runs)
		// Differential testing against the unoptimised reference.
		if err := machine.OutputsMatch(ev.refOut[ds], r.res.Output, 1e-6); err != nil {
			return 0, nil, fmt.Errorf("bench: differential test failed: %w", err)
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
	return t0, runs[0].stats, nil
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
	t, _, err := ev.timeWithSequences(ctx, seqs, nil)
	ev.publishMetrics()
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
