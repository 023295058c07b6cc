package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/passes"
	"repro/internal/tuners"
)

// Failure classes of a candidate the evaluator rejected.
const (
	classInvalidIR = iota
	classMiscompile
	classPanic
	classOther
	numClasses
)

var classNames = [numClasses]string{"invalid_ir", "miscompile", "panic", "other"}

// errPanicked marks a compile or measure call that panicked inside the
// evaluator (today: ir clone of a function a pass left with a dangling branch
// target). The tuner would crash on it; the wrappers turn it into the error a
// rejected candidate gets, so the run goes on and the case is counted.
var errPanicked = errors.New("benchmark: recovered panic")

// guard runs f and reports a panic inside it as errPanicked.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errPanicked, r)
		}
	}()
	return f()
}

func classify(err error) int {
	if errors.Is(err, errPanicked) {
		return classPanic
	}
	switch msg := err.Error(); {
	case strings.Contains(msg, "IR invalid after"):
		return classInvalidIR
	case strings.Contains(msg, "differential test failed"):
		return classMiscompile
	}
	return classOther
}

// reproCase is a ready-made input for a fuzz corpus or a reducer: the
// configuration that made the evaluator reject a candidate.
type reproCase struct {
	Workload   string              `json:"workload"`
	Seed       int64               `json:"seed"`
	SearchSeed int64               `json:"search_seed"`
	Module     string              `json:"module,omitempty"`
	Sequence   []string            `json:"sequence,omitempty"`
	Sequences  map[string][]string `json:"sequences,omitempty"`
	Error      string              `json:"error"`
}

const maxRepro = 5 // first offenders kept per class

type compiled struct {
	module string
	seq    []string
}

// pass is one run of a workload's whole search-seed list. The untraced pass
// only counts; the traced pass also times every call into a layer.
type pass struct {
	w      *workload
	seed   int64
	budget int
	tr     *tracer         // nil on the untraced pass
	prof   *passes.Profile // per-pass wall, traced pass only
	root   int

	// Set serially before each tuning run; read by the wrappers.
	curSpan, curIdx int
	curSearchSeed   int64

	mu       sync.Mutex // guards everything below that compile workers touch
	flight   inflight
	samples  []compiled // what the layer probe replays
	repro    [numClasses][]reproCase
	fails    [numClasses]int64
	compiles int64
	compMS   []float64
	compBusy time.Duration

	measures        int64
	measureCompiles int64 // pipeline runs inside Measure
	measMS          []float64
	measBusy        time.Duration
	hotBusy         time.Duration
	snapPeak        int64

	wall, cpu  time.Duration
	setups     []float64 // seconds per bench.NewEvaluator
	budgetUsed int64
	bests      []float64
	goldenBad  int64

	hits, misses, saved, replayed, evictions int64
	cowShared, cowMat                        int64
	bcHits, bcMisses                         int64

	// From the journal (traced BO runs).
	phase             map[analyze.Phase]time.Duration
	acqWall           time.Duration
	acqCompile        time.Duration // compile elapsed inside acq-max
	gpFits, gpAppends int64
	events            int64
	allocBytes, numGC uint64
	stray, slabFuncs  uint64
	gcCPUShare        float64
	goldenErrs        []string
}

// setupSamples is how many times each pass builds an evaluator, so setup_s is
// a median of several even when the workload has one search seed.
const setupSamples = 5

func runPass(w *workload, seed int64, seconds int, traced bool) (*pass, error) {
	p := &pass{w: w, seed: seed, budget: w.scaledBudget(seconds), phase: map[analyze.Phase]time.Duration{}}
	if traced {
		p.tr = newTracer()
		p.prof = passes.NewProfile()
	}
	p.root = p.tr.begin("workload:"+w.name, 0, -1)
	defer p.tr.end(p.root)
	prog, plat := w.prog(), w.plat()
	seeds := w.searchSeeds

	// Extra set-ups first: they also let lazy process start-up finish before
	// any tuning is timed.
	for i := len(seeds); i < setupSamples; i++ {
		if _, err := p.setup(prog, plat, -1); err != nil {
			return nil, err
		}
	}
	for i, searchSeed := range seeds {
		if err := p.runSeed(prog, plat, i, searchSeed); err != nil {
			return nil, fmt.Errorf("%s search seed %d: %w", w.name, searchSeed, err)
		}
	}
	return p, nil
}

func (p *pass) setup(prog *bench.Benchmark, plat bench.Platform, idx int) (*bench.Evaluator, error) {
	id := p.tr.begin("bench.NewEvaluator", p.root, idx)
	t0 := time.Now()
	ev, err := bench.NewEvaluator(prog, plat, p.w.noiseSeed(p.seed))
	p.setups = append(p.setups, time.Since(t0).Seconds())
	p.tr.end(id)
	return ev, err
}

func (p *pass) runSeed(prog *bench.Benchmark, plat bench.Platform, idx int, searchSeed int64) error {
	ev, err := p.setup(prog, plat, idx)
	if err != nil {
		return err
	}
	if p.tr != nil {
		ev.SetObs(nil, p.prof)
	}
	task := ev.Task().(*core.BenchTask)
	p.wrap(task, ev)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, _, slab0, stray0 := ir.CloneCounters()
	p.curIdx, p.curSearchSeed = idx, searchSeed
	p.curSpan = p.tr.begin("tune", p.root, idx)
	cpu0, t0 := cpuTime(), time.Now()

	var best float64
	var bestSeqs map[string][]string
	var used int
	var an *analyze.Analyzer
	if p.w.opts != nil {
		o := p.w.opts()
		o.Budget = p.budget
		if p.tr != nil {
			an = analyze.NewAnalyzer()
			o.Sink = &acqSink{p: p, an: an}
		}
		res, err := core.NewTuner(task, o, searchSeed).Run()
		if err != nil {
			return err
		}
		best, bestSeqs, used = res.BestSpeedup, res.BestSeqs, len(res.Trace)
		p.gpFits += int64(res.Breakdown.GPFits)
		p.gpAppends += int64(res.Breakdown.GPAppends)
	} else {
		res, err := tuners.Random{}.Tune(task, p.budget, searchSeed)
		if err != nil {
			return err
		}
		best, bestSeqs, used = res.BestSpeedup, res.BestSeqs, len(res.Trace)
	}

	wall := time.Since(t0)
	p.wall += wall
	p.cpu += cpuTime() - cpu0
	p.tr.end(p.curSpan)
	runtime.ReadMemStats(&ms1)
	_, _, slab1, stray1 := ir.CloneCounters()
	p.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	p.numGC += uint64(ms1.NumGC - ms0.NumGC)
	p.gcCPUShare = ms1.GCCPUFraction
	p.slabFuncs += slab1 - slab0
	p.stray += stray1 - stray0

	p.budgetUsed += int64(used)
	p.bests = append(p.bests, best)
	fmt.Printf("# search_seed %d wall_s %.3f best_speedup %.4f measurements %d\n", searchSeed, wall.Seconds(), best, used)
	hits, misses := ev.CacheCounters()
	saved, replayed, _, evictions := ev.PrefixCounters()
	shared, mat := ev.CowCounters()
	bc := ev.BcCounters()
	p.hits += int64(hits)
	p.misses += int64(misses)
	p.saved += int64(saved)
	p.replayed += int64(replayed)
	p.evictions += int64(evictions)
	p.cowShared += int64(shared)
	p.cowMat += int64(mat)
	p.bcHits += bc.CodeHits
	p.bcMisses += bc.CodeMisses
	if an != nil {
		rep := an.Report()
		for _, pt := range rep.Phases {
			p.phase[pt.Phase] += time.Duration(pt.ElapsedNS)
		}
		p.events += int64(rep.Events)
	}

	// The search's answer, checked by a path that shares nothing with what
	// produced it: fresh irgen modules, an uncached pass manager, the
	// tree-walking interpreter, and committed reference output.
	id := p.tr.begin("golden", p.root, idx)
	bad, errs := checkGolden(prog, plat, bestSeqs)
	p.tr.end(id)
	p.goldenBad += int64(bad)
	p.goldenErrs = append(p.goldenErrs, errs...)
	return nil
}

// acqSink forwards the tuner's journal to the analyzer and, on the way, splits
// the acq-max wall: the tuner emits "iteration" before it proposes candidates
// and "acq-max" when the argmax is chosen, both on its own goroutine with no
// compile in flight, so the compile wall between the two is exactly the
// fan-out nested inside acquisition.
type acqSink struct {
	p    *pass
	an   *analyze.Analyzer
	mark time.Duration
}

func (s *acqSink) Emit(e *obs.Event) {
	switch e.Type {
	case "iteration":
		s.mark = s.p.flight.total()
	case "acq-max":
		s.p.acqCompile += s.p.flight.total() - s.mark
		if ns, ok := e.Fields["wall_ns"].(int64); ok {
			s.p.acqWall += time.Duration(ns)
		}
	}
	s.an.Emit(e)
}

// wrap replaces the task's function fields with counting (and, when traced,
// timing) versions. This is how every bench-layer number is taken from
// outside the layer.
func (p *pass) wrap(task *core.BenchTask, ev *bench.Evaluator) {
	compile, measure, hot := task.CompileFn, task.MeasureFn, task.HotFn
	traced := p.tr != nil
	randomTuner := p.w.opts == nil

	task.CompileFn = func(ctx context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error) {
		var t0 time.Time
		var id int
		if traced {
			p.flight.enter()
			id = p.tr.begin("bench.compile", p.curSpan, p.curIdx)
			t0 = time.Now()
		}
		var m *ir.Module
		var st passes.Stats
		err := guard(func() (err error) { m, st, err = compile(ctx, mod, seq); return })
		p.mu.Lock()
		p.compiles++
		if traced {
			d := time.Since(t0)
			p.compBusy += d
			p.compMS = append(p.compMS, d.Seconds()*1e3)
			p.samples = append(p.samples, compiled{mod, seq})
		}
		if err != nil {
			p.failLocked(err, reproCase{Module: mod, Sequence: seq})
		}
		p.mu.Unlock()
		if traced {
			p.tr.end(id)
			p.flight.leave()
		}
		return m, st, err
	}

	task.MeasureFn = func(ctx context.Context, seqs map[string][]string) (float64, error) {
		var t0 time.Time
		var id int
		if traced {
			id = p.tr.begin("bench.measure", p.curSpan, p.curIdx)
			t0 = time.Now()
		}
		// Measure is serial and no compile overlaps it (closed loop), so the
		// evaluator's pipeline counter moves only by what Measure itself ran.
		c0 := ev.Compilations
		var t float64
		err := guard(func() (err error) { t, err = measure(ctx, seqs); return })
		p.mu.Lock()
		defer p.mu.Unlock()
		p.measures++
		p.measureCompiles += int64(ev.Compilations - c0)
		if _, _, bytes, _ := ev.PrefixCounters(); bytes > p.snapPeak {
			p.snapPeak = bytes
		}
		if traced {
			d := time.Since(t0)
			p.tr.end(id)
			p.measBusy += d
			p.measMS = append(p.measMS, d.Seconds()*1e3)
			if randomTuner { // never calls CompileModule: sample what it measured
				mods := make([]string, 0, len(seqs))
				for m := range seqs {
					mods = append(mods, m)
				}
				sort.Strings(mods)
				for _, m := range mods {
					p.samples = append(p.samples, compiled{m, seqs[m]})
				}
			}
		}
		if err != nil {
			p.failLocked(err, reproCase{Sequences: seqs})
		}
		return t, err
	}

	task.HotFn = func(coverage float64) ([]string, error) {
		id := p.tr.begin("bench.hot_modules", p.curSpan, p.curIdx)
		t0 := time.Now()
		out, err := hot(coverage)
		p.hotBusy += time.Since(t0)
		p.tr.end(id)
		return out, err
	}
}

func (p *pass) failLocked(err error, rc reproCase) {
	c := classify(err)
	p.fails[c]++
	if len(p.repro[c]) < maxRepro {
		rc.Workload, rc.Seed, rc.SearchSeed, rc.Error = p.w.name, p.seed, p.curSearchSeed, err.Error()
		p.repro[c] = append(p.repro[c], rc)
	}
}

// goldenChecks is one per finished search seed and dataset.
func (p *pass) goldenChecks() int64 { return int64(len(p.bests) * len(goldenDatasets)) }

func (p *pass) totalCompiles() int64 { return p.compiles + p.measureCompiles }

func (p *pass) candidateFails() int64 {
	var n int64
	for _, f := range p.fails {
		n += f
	}
	return n
}

// countsDigest covers only counts that cannot depend on scheduling: pool and
// env_ counters, times and bytes stay out by construction.
func (p *pass) countsDigest() string { return p.counts().sum() }

func (p *pass) counts() *digest {
	d := &digest{}
	for i, b := range p.bests {
		d.addBits(fmt.Sprintf("best_speedup_%d", i), b)
	}
	d.add("compiles", p.compiles)
	d.add("measure_compiles", p.measureCompiles)
	d.add("measures", p.measures)
	d.add("budget_used", p.budgetUsed)
	for c, n := range p.fails {
		d.add("fail_"+classNames[c], n)
	}
	d.add("golden_bad", p.goldenBad)
	// Prefix passes saved/replayed stay out: once snapshots are being evicted
	// they depend on which worker touched the LRU first (x264_bo: 52446 to
	// 52488 saved over five runs of one binary).
	d.add("module_hits", p.hits)
	d.add("module_misses", p.misses)
	return d
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEndValues computes the untraced pass's user-visible metrics.
func (p *pass) endToEndValues() (map[string]float64, error) {
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	wall := p.wall.Seconds()
	attempted := p.totalCompiles() + p.measures + p.goldenChecks()
	return map[string]float64{
		"wall_s":         wall,
		"cpu_s":          p.cpu.Seconds(),
		"compiles_per_s": float64(p.totalCompiles()) / wall,
		"measures_per_s": float64(p.budgetUsed) / wall,
		"best_speedup":   numeric.GeoMean(p.bests),
		"ok_share":       1 - ratio(p.candidateFails()+p.goldenBad, attempted),
		"peak_rss_mb":    rss,
		"setup_s":        numeric.Median(p.setups),
	}, nil
}

// layerValues computes the traced pass's per-layer metrics; untracedWall is
// the same workload's wall with tracing off, and pr the layer probe.
func (p *pass) layerValues(untracedWall time.Duration, pr *probeResult) map[string]float64 {
	wall := p.wall.Seconds()
	elapsed := p.flight.total().Seconds()
	m := map[string]float64{
		"bench.compile_calls":          float64(p.compiles),
		"bench.compile_busy_s":         p.compBusy.Seconds(),
		"bench.compile_elapsed_s":      elapsed,
		"bench.compile_p50_ms":         percentile(p.compMS, 50),
		"bench.compile_p95_ms":         percentile(p.compMS, 95),
		"bench.compile_max_ms":         percentile(p.compMS, 100),
		"bench.compile_invalid_ir":     float64(p.fails[classInvalidIR]),
		"bench.measure_calls":          float64(p.measures),
		"bench.measure_busy_s":         p.measBusy.Seconds(),
		"bench.measure_p50_ms":         percentile(p.measMS, 50),
		"bench.measure_p95_ms":         percentile(p.measMS, 95),
		"bench.measure_miscompiles":    float64(p.fails[classMiscompile]),
		"bench.panics":                 float64(p.fails[classPanic]),
		"bench.other_errors":           float64(p.fails[classOther]),
		"bench.hot_busy_s":             p.hotBusy.Seconds(),
		"bench.module_cache_hit_ratio": ratio(p.hits, p.hits+p.misses),
		"bench.prefix_saved_ratio":     ratio(p.saved, p.saved+p.replayed),
		"bench.prefix_evictions":       float64(p.evictions),
		"bench.snapshot_bytes_peak":    float64(p.snapPeak),
		"bench.cow_shared_ratio":       ratio(p.cowShared-p.cowMat, p.cowShared),

		"ir.stray_instrs": float64(p.stray),
		"ir.slab_funcs":   float64(p.slabFuncs),

		"machine.code_cache_hit_ratio": ratio(p.bcHits, p.bcHits+p.bcMisses),

		"gp.fit_s":        p.phase[analyze.PhaseGPFit].Seconds(),
		"gp.fits":         float64(p.gpFits),
		"gp.appends":      float64(p.gpAppends),
		"core.acq_s":      p.acqWall.Seconds(),
		"core.acq_self_s": (p.acqWall - p.acqCompile).Seconds(),
		"core.other_s":    p.phase[analyze.PhaseOther].Seconds(),

		"tuners.self_s": wall - elapsed - p.measBusy.Seconds() - p.hotBusy.Seconds(),
		"obs.events":    float64(p.events),

		"obs.trace_overhead_share":        wall/untracedWall.Seconds() - 1,
		"runtime.alloc_bytes_per_compile": float64(p.allocBytes) / math.Max(1, float64(p.totalCompiles())),
		"runtime.num_gc":                  float64(p.numGC),
		"runtime.gc_cpu_share":            p.gcCPUShare,
		"harness.traced_wall_s":           wall,
	}
	if elapsed > 0 {
		m["evalpool.parallel_x"] = p.compBusy.Seconds() / elapsed
	}
	if p.w.opts != nil {
		// The journal's own partition of the run must agree with what the
		// wrappers saw from outside.
		layers := elapsed + p.measBusy.Seconds() + p.hotBusy.Seconds() +
			m["gp.fit_s"] + m["core.acq_self_s"] + m["core.other_s"]
		m["harness.reconcile_gap_share"] = math.Abs(wall-layers) / wall
	}

	costs := passes.TopByWall(p.prof.Costs(), 0)
	var passWall time.Duration
	var inv, fired int64
	for _, c := range costs {
		passWall += c.Wall
		inv += int64(c.Invocations)
		fired += int64(c.Fired)
	}
	m["passes.wall_s"] = passWall.Seconds()
	m["passes.invocations"] = float64(inv)
	m["passes.fired_ratio"] = ratio(fired, inv)
	if inv > 0 {
		m["passes.us_per_invocation"] = passWall.Seconds() * 1e6 / float64(inv)
	}
	if passWall > 0 {
		var top time.Duration
		for i, c := range costs {
			if i == 5 {
				break
			}
			top += c.Wall
			if i == 0 {
				m["passes.top1_share"] = top.Seconds() / passWall.Seconds()
			}
		}
		m["passes.top5_share"] = top.Seconds() / passWall.Seconds()
	}
	for k, v := range pr.values {
		m[k] = v
	}
	ok := 1.0
	if p.w.intent != nil && !p.w.intent(m) {
		ok = 0
	}
	m["harness.intent_ok"] = ok
	for _, spec := range perLayer { // every declared metric is always present
		if _, have := m[spec.Name]; !have {
			m[spec.Name] = 0
		}
	}
	return m
}
