package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/numeric"
)

// metricSpec is one row of BENCHMARK.json, in its JSON shape. This table is
// the single source: -manifest renders BENCHMARK.json from it and a test keeps
// the two equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd are the metrics someone waiting for a tuning run sees, measured
// with tracing off.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},            // tuner wall clock summed over the search seeds, from Run/Tune to return
	{"cpu_s", "s", "lower", 0.25},             // process user+sys CPU (getrusage) over the same intervals; separates a real saving from extra parallelism
	{"compiles_per_s", "1/s", "higher", 0.25}, // (Task.CompileModule calls + pipeline runs inside Measure) / wall_s
	{"measures_per_s", "1/s", "higher", 0.25}, // measurement budget consumed / wall_s
	{"best_speedup", "x", "higher", 0.05},     // geometric mean over search seeds of the best speedup over -O3 (the paper's headline figure); repeats exactly at one seed
	{"ok_share", "ratio", "higher", 0.01},     // 1 - (compile errors + measure errors + golden mismatches) / (compiles + measures + golden checks); repeats exactly at one seed
	{"peak_rss_mb", "MiB", "lower", 0.25},     // VmHWM at exit
	{"setup_s", "s", "lower", 0.25},           // median bench.NewEvaluator time: irgen build, verify, compact, reference runs, -O3 baseline
}

// perLayer are measured from outside each layer on the traced run, prefixed
// with the module (internal/<prefix>) they time.
var perLayer = []metricSpec{
	{Name: "bench.compile_calls", Unit: "count", Better: "lower"},             // Task.CompileModule calls
	{Name: "bench.compile_busy_s", Unit: "s", Better: "lower"},                // summed CompileModule wall (exceeds elapsed when workers overlap)
	{Name: "bench.compile_elapsed_s", Unit: "s", Better: "lower"},             // wall during which at least one CompileModule call was in flight
	{Name: "bench.compile_p50_ms", Unit: "ms", Better: "lower"},               // median CompileModule latency, n = bench.compile_calls
	{Name: "bench.compile_p95_ms", Unit: "ms", Better: "lower"},               // 95th percentile, n = bench.compile_calls
	{Name: "bench.compile_max_ms", Unit: "ms", Better: "lower"},               // slowest CompileModule call
	{Name: "bench.compile_invalid_ir", Unit: "count", Better: "lower"},        // candidates the IR verifier rejected after their sequence
	{Name: "bench.measure_calls", Unit: "count", Better: "lower"},             // Task.Measure calls
	{Name: "bench.measure_busy_s", Unit: "s", Better: "lower"},                // summed Measure wall (serial, so busy = elapsed)
	{Name: "bench.measure_p50_ms", Unit: "ms", Better: "lower"},               // median Measure latency, n = bench.measure_calls
	{Name: "bench.measure_p95_ms", Unit: "ms", Better: "lower"},               // 95th percentile, n = bench.measure_calls
	{Name: "bench.measure_miscompiles", Unit: "count", Better: "lower"},       // measurements whose output failed the evaluator's differential test
	{Name: "bench.panics", Unit: "count", Better: "lower"},                    // compile or measure calls that panicked inside the evaluator; the wrappers recover them into rejected candidates
	{Name: "bench.other_errors", Unit: "count", Better: "lower"},              // compile or measure errors of neither class
	{Name: "bench.hot_busy_s", Unit: "s", Better: "lower"},                    // Task.HotModules wall (-O3 build + profile run)
	{Name: "bench.module_cache_hit_ratio", Unit: "ratio", Better: "higher"},   // compiled-module cache hits / lookups
	{Name: "bench.prefix_saved_ratio", Unit: "ratio", Better: "higher"},       // passes skipped by prefix resume / passes requested
	{Name: "bench.prefix_evictions", Unit: "count", Better: "lower"},          // snapshots evicted under the entry/byte bounds
	{Name: "bench.snapshot_bytes_peak", Unit: "bytes", Better: "lower"},       // largest PrefixCounters snapshot bytes, polled after each measure
	{Name: "bench.cow_shared_ratio", Unit: "ratio", Better: "higher"},         // COW clones that never materialized / clones handed out
	{Name: "passes.wall_s", Unit: "s", Better: "lower"},                       // summed per-pass wall from passes.Profile
	{Name: "passes.invocations", Unit: "count", Better: "lower"},              // pass executions
	{Name: "passes.us_per_invocation", Unit: "us", Better: "lower"},           // passes.wall_s / passes.invocations
	{Name: "passes.top1_share", Unit: "ratio", Better: "lower"},               // most expensive pass's share of passes.wall_s (name in the trace file)
	{Name: "passes.top5_share", Unit: "ratio", Better: "lower"},               // five most expensive passes' share
	{Name: "passes.fired_ratio", Unit: "ratio", Better: "higher"},             // invocations that changed a statistic / invocations
	{Name: "passes.uncached_seq_ms", Unit: "ms", Better: "lower"},             // probe: median passes.NewManager().Run of a recorded sequence on a pristine module
	{Name: "passes.ir_instrs_after", Unit: "count", Better: "lower"},          // probe: median module instruction count after the sequence
	{Name: "ir.clone_us", Unit: "us", Better: "lower"},                        // probe: median Module.Clone of a pristine module
	{Name: "ir.materialize_us", Unit: "us", Better: "lower"},                  // probe: median ir.MaterializeModule of that clone
	{Name: "ir.fingerprint_us", Unit: "us", Better: "lower"},                  // probe: median Module.Fingerprint after the sequence
	{Name: "ir.verify_us", Unit: "us", Better: "lower"},                       // probe: median ir.Verify after the sequence
	{Name: "ir.stray_instrs", Unit: "count", Better: "lower"},                 // ir.CloneCounters delta over the tuning runs: instructions cloned through the stray-map fallback
	{Name: "ir.slab_funcs", Unit: "count", Better: "lower"},                   // ir.CloneCounters delta: functions slab-materialized
	{Name: "machine.link_us", Unit: "us", Better: "lower"},                    // probe: median machine.Link of the whole program
	{Name: "machine.lower_run_us", Unit: "us", Better: "lower"},               // probe: median first Machine.Run of an image (lowers to bytecode, then runs)
	{Name: "machine.run_us", Unit: "us", Better: "lower"},                     // probe: median second Machine.Run (lowered code cached)
	{Name: "machine.treewalk_run_us", Unit: "us", Better: "lower"},            // probe: median Machine{TreeWalk: true}.Run
	{Name: "machine.steps_per_s", Unit: "1/s", Better: "higher"},              // probe: executed instructions / warm run time
	{Name: "machine.code_cache_hit_ratio", Unit: "ratio", Better: "higher"},   // lowered-code cache hits / lookups during tuning
	{Name: "gp.fit_s", Unit: "s", Better: "lower"},                            // journal gp-fit elapsed (full fits and appends)
	{Name: "gp.fits", Unit: "count", Better: "lower"},                         // full O(n^3) fits
	{Name: "gp.appends", Unit: "count", Better: "higher"},                     // O(n^2) incremental appends
	{Name: "core.acq_s", Unit: "s", Better: "lower"},                          // acq-max wall: candidate generation + compile fan-out + scoring
	{Name: "core.acq_self_s", Unit: "s", Better: "lower"},                     // acq-max wall minus the compile elapsed inside it
	{Name: "core.other_s", Unit: "s", Better: "lower"},                        // journalled run time inside no timed event
	{Name: "evalpool.parallel_x", Unit: "x", Better: "higher"},                // bench.compile_busy_s / bench.compile_elapsed_s
	{Name: "tuners.self_s", Unit: "s", Better: "lower"},                       // traced wall minus compile elapsed, measure busy and hot busy: what the search algorithm itself costs
	{Name: "irgen.build_s", Unit: "s", Better: "lower"},                       // probe: Benchmark.Build of every dataset
	{Name: "obs.events", Unit: "count", Better: "lower"},                      // journal events emitted
	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower"},        // traced wall / untraced wall - 1, both from this process
	{Name: "runtime.alloc_bytes_per_compile", Unit: "bytes", Better: "lower"}, // heap bytes allocated during tuning / compiles
	{Name: "runtime.num_gc", Unit: "count", Better: "lower"},                  // GC cycles during tuning
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},            // MemStats.GCCPUFraction at the end of the traced pass
	{Name: "harness.traced_wall_s", Unit: "s", Better: "lower"},               // wall_s of the traced pass
	{Name: "harness.reconcile_gap_share", Unit: "ratio", Better: "lower"},     // |wall - (compile elapsed + measure busy + hot busy + gp.fit_s + core.acq_self_s + core.other_s)| / wall on the BO workloads
	{Name: "harness.intent_ok", Unit: "count", Better: "higher"},              // 1 when the workload still stresses what it was chosen for
}

// interactions says which end-to-end metric each layer metric should move,
// and where. Later issues cite these lines next to their numbers.
var interactions = []string{
	"passes.wall_s, passes.top1_share -> wall_s, cpu_s, compiles_per_s on gsm_bo and x264_bo; partly on sha_long; least on manymod_bo",
	"bench.prefix_saved_ratio -> wall_s on gsm_bo, x264_bo and sha_long; no change on jpeg_random, where it is 0",
	"bench.module_cache_hit_ratio, ir.clone_us, machine.link_us -> wall_s, measures_per_s on manymod_bo",
	"bench.snapshot_bytes_peak -> peak_rss_mb everywhere",
	"machine.run_us, machine.lower_run_us -> measures_per_s on jpeg_random and manymod_bo",
	"gp.fit_s, core.acq_self_s -> wall_s on sha_long only",
	"evalpool.parallel_x -> wall_s on the BO workloads, with cpu_s flat",
	"irgen.build_s -> setup_s on manymod_bo",
	"bench.compile_invalid_ir + bench.measure_miscompiles -> ok_share on x264_bo and jpeg_random",
}

// percentile is the nearest-rank percentile (p in (0,100]) of v; 0 for none.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the driver computes spreads with. It needs two
// values; fewer report no spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		x := numeric.Median(s)
		return x, x, x
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// digest hashes the schedule-independent counts of one pass over the search
// seeds. Pool and env_ counters never enter it, so two runs of one commit
// must agree whatever the scheduler did.
type digest struct{ b strings.Builder }

func (d *digest) add(name string, v int64) { fmt.Fprintf(&d.b, "%s=%d;", name, v) }
func (d *digest) addBits(name string, f float64) {
	fmt.Fprintf(&d.b, "%s=%016x;", name, math.Float64bits(f))
}
func (d *digest) sum() string {
	h := fnv.New64a()
	h.Write([]byte(d.b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// hostCPUTicks reads the host-wide CPU line of /proc/stat: ticks the
// hypervisor ran something else while this VM wanted to run (steal), and all
// ticks. A run measured while steal was high is not worth comparing.
func hostCPUTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue // the "cpu" label
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
