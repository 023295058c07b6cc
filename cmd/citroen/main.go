// Command citroen tunes the compiler phase ordering of a benchmark program
// with the CITROEN Bayesian-optimisation search and prints the best
// per-module pass sequences.
//
// Usage:
//
//	citroen -list
//	citroen -bench telecom_gsm -budget 100 -platform arm
//	citroen -bench 525.x264_r -budget 150 -adaptive=false
//	citroen -bench telecom_gsm -budget 50 -trace-out trace.jsonl -pass-profile
//	citroen -bench telecom_gsm -budget 200 -metrics-addr localhost:9090
//
// A saved journal is read by citroenstat (report, convergence, trace, diff).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/passes"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available benchmarks")
		name     = flag.String("bench", "telecom_gsm", "benchmark to tune")
		budget   = flag.Int("budget", 100, "runtime measurements")
		seed     = flag.Int64("seed", 1, "random seed")
		platform = flag.String("platform", "arm", "arm or x86")
		adaptive = flag.Bool("adaptive", true, "adaptive multi-module budget allocation")
		lambda   = flag.Int("lambda", 9, "candidate compilations per iteration")
		workers  = flag.Int("workers", 0, "candidate-compilation workers (0 = GOMAXPROCS, 1 = serial)")
		feature  = flag.String("feature", "stats", "cost-model features: stats|autophase|tokenmix|rawseq")
		verbose  = flag.Bool("v", false, "render the measurement trace live")

		traceOut    = flag.String("trace-out", "", "write the structured event journal (JSONL) to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof/ on this address, e.g. localhost:9090")
		passProfile = flag.Bool("pass-profile", false, "profile per-pass wall time and stats-counter deltas")
	)
	flag.Parse()

	if *list {
		fmt.Println("cBench-like suite:")
		for _, b := range bench.CBench() {
			fmt.Printf("  %-22s modules: %s\n", b.Name, strings.Join(b.ModuleNames(), ", "))
		}
		fmt.Println("SPEC-like suite:")
		for _, b := range bench.SPEC() {
			fmt.Printf("  %-22s modules: %s\n", b.Name, strings.Join(b.ModuleNames(), ", "))
		}
		return
	}

	b := bench.ByName(*name)
	if b == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (use -list)\n", *name)
		os.Exit(1)
	}
	plat, err := bench.PlatformByName(*platform)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	featKind, ok := core.FeatureKindFromString(*feature)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown feature kind %q (stats, autophase, tokenmix or rawseq)\n", *feature)
		os.Exit(1)
	}
	fmt.Printf("Building %s and measuring the -O3 baseline on %s...\n", b.Name, plat.Prof.Name)
	ev, err := bench.NewEvaluator(b, plat, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("-O3 baseline: %.0f cycles\n", ev.O3Time())

	// Observability: journal sinks (file + live renderer share one event
	// stream), metrics registry, optional per-pass profiling.
	var sinks []obs.Sink
	var journal *obs.JSONLSink
	if *traceOut != "" {
		journal, err = obs.CreateJSONLFile(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		sinks = append(sinks, journal)
	}
	if *verbose {
		sinks = append(sinks, obs.NewTextRenderer(os.Stdout))
	}
	metrics := obs.NewMetrics()
	// The run's series (phase seconds, measurements, compilations, ...) are
	// read off the same event stream the journal captures, so the /metrics
	// view and an offline `citroenstat report` of the journal always agree.
	sinks = append(sinks, analyze.NewMetricsSink(metrics))
	var prof *passes.Profile
	if *passProfile {
		prof = passes.NewProfile()
	}
	ev.SetObs(metrics, prof)
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer srv.Shutdown(nil)
		fmt.Printf("Serving http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}

	opts := core.DefaultOptions()
	opts.Budget = *budget
	opts.Adaptive = *adaptive
	opts.Lambda = *lambda
	opts.Workers = *workers
	opts.Sink = obs.Multi(sinks...)
	opts.Feature = featKind

	// First SIGINT/SIGTERM cancels the run gracefully: the tuner stops between
	// steps, the journal gets its final run-end event and is flushed/closed,
	// and the partial result prints. A second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := core.NewTuner(ev.Task(), opts, *seed).RunContext(ctx)
	stop()
	interrupted := errors.Is(err, context.Canceled)
	if journal != nil {
		if cerr := journal.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", cerr)
		} else {
			fmt.Printf("Journal written to %s\n", *traceOut)
		}
	}
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if interrupted {
		if res == nil {
			fmt.Fprintln(os.Stderr, "interrupted during setup; no measurements taken")
			os.Exit(130)
		}
		fmt.Println("\nInterrupted — reporting the partial result.")
	}

	fmt.Printf("\nHot modules: %v\n", res.HotModules)
	fmt.Printf("\nBest speedup over -O3: %.3fx (time %.0f cycles)\n", res.BestSpeedup, res.BestTime)
	fmt.Printf("Measurements: %d (saved by dedup: %d), compilations: %d\n",
		res.Breakdown.Measures, res.SavedMeasurements, res.Breakdown.Compiles)
	fmt.Println("Counters:")
	analyze.WriteCounters(os.Stdout, res.Breakdown.Counters.Canonical())
	fmt.Printf("Per-module budget: %v\n", res.ModuleBudget)
	for mod, seq := range res.BestSeqs {
		fmt.Printf("\nBest sequence for %s (%d passes):\n  %s\n", mod, len(seq), strings.Join(seq, ","))
	}
	if len(res.Importance) > 0 {
		fmt.Println("\nTop cost-model statistics (ARD relevance):")
		for i, imp := range res.Importance {
			if i == 5 {
				break
			}
			fmt.Printf("  %-52s %.3f\n", imp.Name, imp.Relevance)
		}
	}
	if len(res.PassProfile) > 0 {
		fmt.Println("\nTop passes by compile wall time:")
		fmt.Printf("  %-28s %12s %7s %7s %10s\n", "pass", "wall", "invoc", "fired", "delta")
		for _, c := range passes.TopByWall(res.PassProfile, 10) {
			fmt.Printf("  %-28s %12v %7d %7d %10d\n",
				c.Name, c.Wall.Round(time.Microsecond), c.Invocations, c.Fired, c.DeltaTotal())
		}
	}
	fmt.Println("\nMetrics summary:")
	metrics.WriteSummary(os.Stdout)
}
