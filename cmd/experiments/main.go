// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run tab5.1
//	experiments -run fig5.6 -budget 100 -repeats 3 -platform x86
//	experiments -run all -budget 30
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		run      = flag.String("run", "", "experiment id to run (or 'all')")
		budget   = flag.Int("budget", 30, "runtime-measurement budget per tuning run")
		repeats  = flag.Int("repeats", 1, "seeds each comparison averages over: repeat r runs every arm on seed+r")
		seed     = flag.Int64("seed", 1, "base random seed")
		platform = flag.String("platform", "arm", "simulated platform: arm or x86")
		benchCSV = flag.String("benchmarks", "", "comma-separated benchmark subset")
		workers  = flag.Int("workers", 0, "candidate-compilation workers (0 = GOMAXPROCS, 1 = serial)")
		scale    = flag.Float64("scale", 1, "problem-size scale for synthetic experiments")

		traceOut    = flag.String("trace-out", "", "append every tuning run's event journal (JSONL) to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address while experiments run")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("Available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Desc)
		}
		if *run == "" {
			fmt.Println("\nRun one with: experiments -run <id>")
		}
		return
	}

	cfg := experiments.DefaultConfig(os.Stdout)
	cfg.Budget = *budget
	cfg.Repeats = *repeats
	cfg.Seed = *seed
	plat, err := bench.PlatformByName(*platform)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg.Platform = plat
	cfg.Scale = *scale
	cfg.Workers = *workers
	if *benchCSV != "" {
		cfg.Benchmarks = strings.Split(*benchCSV, ",")
	}
	if *traceOut != "" {
		journal, err := obs.CreateJSONLFile(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := journal.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			}
		}()
		cfg.Sink = journal
	}
	if *metricsAddr != "" {
		cfg.Metrics = obs.NewMetrics()
		srv, err := obs.Serve(*metricsAddr, cfg.Metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer srv.Shutdown(nil)
		fmt.Printf("Serving http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}

	ids := []string{*run}
	if *run == "all" {
		ids = ids[:0]
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e := experiments.ByID(id)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(1)
		}
		fmt.Printf("==================== %s ====================\n", e.ID)
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
