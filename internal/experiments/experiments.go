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
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/tuners"
)

// Config scales an experiment.
type Config struct {
	Seed    int64
	Budget  int     // runtime-measurement budget per tuning run
	Repeats int     // independent seeds averaged
	Scale   float64 // generic scale knob for candidate counts etc.
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
	// Metrics aggregates counters, gauges and the citroen_phase_seconds
	// series (fed from each run's journal by analyze.PhaseSink) across every
	// tuning run the experiment performs (nil = each tuner keeps a private
	// registry).
	Metrics *obs.Metrics
	Out     io.Writer
}

// DefaultConfig is the fast (test-friendly) scale.
func DefaultConfig(out io.Writer) Config {
	return Config{Seed: 1, Budget: 30, Repeats: 1, Scale: 1, Platform: bench.ARM(), Out: out}
}

// PaperConfig approximates the paper's scale.
func PaperConfig(out io.Writer) Config {
	return Config{Seed: 1, Budget: 100, Repeats: 3, Scale: 1, Platform: bench.ARM(), Out: out}
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
	o.Metrics = c.Metrics
	if c.Metrics != nil {
		o.Sink = obs.Multi(c.Sink, analyze.NewPhaseSink(c.Metrics))
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

// benchSet resolves the benchmark list for an experiment default.
func (c Config) benchSet(def []string) []*bench.Benchmark {
	names := c.Benchmarks
	if len(names) == 0 {
		names = def
	}
	var out []*bench.Benchmark
	for _, n := range names {
		if b := bench.ByName(n); b != nil {
			out = append(out, b)
		}
	}
	return out
}

// tunerSet returns the standard baseline portfolio of §5.4.4.
func tunerSet() []tuners.Tuner {
	return []tuners.Tuner{
		tuners.Random{},
		tuners.GA{},
		tuners.HillClimb{},
		tuners.Anneal{},
		tuners.Ensemble{},
		tuners.BOCA{},
	}
}

// runCitroen runs CITROEN on a benchmark and returns the best speedup and
// the full result. Callers set opts.Workers from Config before passing opts.
func runCitroen(b *bench.Benchmark, plat bench.Platform, opts core.Options, seed int64) (float64, *core.Result, error) {
	ev, err := bench.NewEvaluator(b, plat, seed)
	if err != nil {
		return 0, nil, err
	}
	res, err := core.NewTuner(ev.Task(), opts, seed).Run()
	if err != nil {
		return 0, nil, err
	}
	return res.BestSpeedup, res, nil
}

// runBaseline runs one baseline tuner on a benchmark.
func runBaseline(t tuners.Tuner, b *bench.Benchmark, plat bench.Platform, budget int, seed int64) (float64, *tuners.Result, error) {
	ev, err := bench.NewEvaluator(b, plat, seed)
	if err != nil {
		return 0, nil, err
	}
	res, err := t.Tune(ev.Task(), budget, seed)
	if err != nil {
		return 0, nil, err
	}
	return res.BestSpeedup, res, nil
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
