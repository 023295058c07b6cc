// Package experiments regenerates every table and figure of the paper's
// evaluation (plus the Chapter-4 substrate validation figures): each
// experiment prints the rows/series the paper reports. Budgets and benchmark
// subsets are scaled by Config so the same drivers power both fast tests and
// paper-scale CLI runs.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/tuners"
)

// Config scales an experiment.
type Config struct {
	Seed   int64
	Budget int     // runtime-measurement budget per tuning run
	Scale  float64 // generic scale knob for candidate counts etc.
	// Repeats is the number of seeds a comparison (Fig 5.6–5.11) averages
	// over: repeat r runs every arm on seed Seed + r, so the arms are paired
	// by seed (see sweep). Single-run experiments use Seed alone.
	Repeats int
	// Benchmarks restricts the benchmark set (nil = experiment default).
	Benchmarks []string
	// Platform is the simulated evaluation platform (bench.PlatformByName
	// parses the CLI spelling).
	Platform bench.Platform
	// Workers sizes the tuner's candidate-compilation pool (see
	// core.Options.Workers): 0 = GOMAXPROCS, 1 = serial. Results are
	// identical for every value; only wall-clock changes.
	Workers int
	// Sink receives every tuning run's structured event journal (nil
	// disables journaling; see internal/obs). Multi-run experiments append
	// all runs to the same journal.
	Sink obs.Sink
	// Metrics aggregates the run series (fed from each run's journal by
	// analyze.NewMetricsSink) across every tuning run the experiment
	// performs; nil feeds none.
	Metrics *obs.Metrics
	Out     io.Writer
}

// DefaultConfig is the fast (test-friendly) scale.
func DefaultConfig(out io.Writer) Config {
	return Config{Seed: 1, Budget: 30, Repeats: 1, Scale: 1, Platform: bench.ARM(), Out: out}
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// tunerOptions returns the paper-default tuner options at this config's
// budget and worker-pool size; experiments tweak the copy further.
func (c Config) tunerOptions() core.Options {
	o := core.DefaultOptions()
	o.Budget = c.Budget
	o.Workers = c.Workers
	o.Sink = c.Sink
	if c.Metrics != nil {
		o.Sink = obs.Multi(c.Sink, analyze.NewMetricsSink(c.Metrics))
	}
	return o
}

// Experiment is a registered driver.
type Experiment struct {
	ID   string
	Desc string
	Run  func(c Config) error
}

var registry []Experiment

func register(id, desc string, run func(c Config) error) {
	registry = append(registry, Experiment{ID: id, Desc: desc, Run: run})
}

// All returns every experiment.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// ByID finds an experiment.
func ByID(id string) *Experiment {
	for i := range registry {
		if registry[i].ID == id {
			return &registry[i]
		}
	}
	return nil
}

// --- shared helpers ---

// An arm is one side of a comparison: run tunes task with budget
// measurements from seed and returns the best-so-far speedup after each
// measurement.
type arm struct {
	name string
	run  func(task core.Task, budget int, seed int64) ([]float64, error)
}

// citroenArm is CITROEN at the paper's defaults with tweak applied (nil for
// none).
func (c Config) citroenArm(name string, tweak func(*core.Options)) arm {
	return arm{name, func(task core.Task, budget int, seed int64) ([]float64, error) {
		opts := c.tunerOptions()
		opts.Budget = budget
		if tweak != nil {
			tweak(&opts)
		}
		res, err := core.NewTuner(task, opts, seed).Run()
		if err != nil {
			return nil, err
		}
		return citroenTrace(res), nil
	}}
}

// baselineArms are baseline tuners of §5.4.4, one arm each.
func baselineArms(ts ...tuners.Tuner) []arm {
	arms := make([]arm, len(ts))
	for i, t := range ts {
		arms[i] = arm{t.Name(), func(task core.Task, budget int, seed int64) ([]float64, error) {
			res, err := t.Tune(task, budget, seed)
			if err != nil {
				return nil, err
			}
			return res.Trace, nil
		}}
	}
	return arms
}

// sweep runs a seed-paired comparison. Its cells are (benchmark, repeat)
// pairs, benchmark-major: in cell (b, r) every arm tunes b with budget
// measurements on its own fresh evaluator seeded Seed + r, so arms differ
// in nothing but the arm. traces[a][i] is arm a's trace in cell i.
func (c Config) sweep(arms []arm, benchmarks []string, budget int) ([][][]float64, error) {
	traces := make([][][]float64, len(arms))
	for _, name := range benchmarks {
		for r := 0; r < max(c.Repeats, 1); r++ {
			seed := c.Seed + int64(r)
			for a, arm := range arms {
				ev, err := c.evaluator(name, seed)
				if err != nil {
					return nil, err
				}
				trace, err := arm.run(ev.Task(), budget, seed)
				if err != nil {
					return nil, fmt.Errorf("%s on %s, seed %d: %w", arm.name, name, seed, err)
				}
				traces[a] = append(traces[a], trace)
			}
		}
	}
	return traces, nil
}

// compare sweeps arms over benchmarks at c.Budget and prints each arm's
// geo-mean final speedup, names padded to width.
func (c Config) compare(arms []arm, benchmarks []string, width int) error {
	traces, err := c.sweep(arms, benchmarks, c.Budget)
	if err != nil {
		return err
	}
	for a, arm := range arms {
		c.printf("  %-*s geo-mean speedup %.3fx\n", width, arm.name, geoAt(traces[a], c.Budget))
	}
	return nil
}

// geoAt is the geometric mean over traces of the best speedup after budget
// measurements.
func geoAt(traces [][]float64, budget int) float64 {
	vals := make([]float64, len(traces))
	for i, trace := range traces {
		vals[i] = traceAt(trace, budget)
	}
	return numeric.GeoMean(vals)
}

// citroenTrace is a CITROEN run's best-so-far speedup after each
// measurement.
func citroenTrace(r *core.Result) []float64 {
	out := make([]float64, len(r.Trace))
	for i, tp := range r.Trace {
		out[i] = tp.BestSpeedup
	}
	return out
}

// traceAt reads a best-so-far trace after budget measurements; a run that
// stopped early keeps its final value, and before any measurement it is -O3.
func traceAt(trace []float64, budget int) float64 {
	if len(trace) == 0 || budget < 1 {
		return 1
	}
	if budget > len(trace) {
		budget = len(trace)
	}
	return trace[budget-1]
}

// runCitroen runs one CITROEN tuning of the named benchmark on c's seed, for
// the experiments that read more of the result than its trace.
func (c Config) runCitroen(name string, opts core.Options) (*core.Result, error) {
	ev, err := c.evaluator(name, c.Seed)
	if err != nil {
		return nil, err
	}
	return core.NewTuner(ev.Task(), opts, c.Seed).Run()
}

// evaluator is a fresh evaluator of the named benchmark on c's platform.
func (c Config) evaluator(name string, seed int64) (*bench.Evaluator, error) {
	b := bench.ByName(name)
	if b == nil {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	return bench.NewEvaluator(b, c.Platform, seed)
}

// benchmarksOr is c.Benchmarks, or def when the config names none.
func (c Config) benchmarksOr(def ...string) []string {
	if len(c.Benchmarks) > 0 {
		return c.Benchmarks
	}
	return def
}

// sortedKeys of a map[string]T.
func sortedKeys[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
