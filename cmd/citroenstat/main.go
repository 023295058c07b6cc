// Command citroenstat analyzes CITROEN run journals offline: phase wall-time
// attribution, convergence curves, Perfetto-loadable trace export, canonical
// journal diffing, and benchmark-baseline comparison.
//
// Usage:
//
//	citroenstat report <journal.jsonl>         phase/cache/module report
//	citroenstat convergence <journal.jsonl>    incumbent history + curve
//	citroenstat trace [-o out.json] <journal>  Chrome trace-event JSON for
//	                                           ui.perfetto.dev / chrome://tracing
//	citroenstat diff <a.jsonl> <b.jsonl>       canonical equality check; exits 1
//	                                           on the first mismatch
//	citroenstat bench-diff <oldDir> <newDir>   compare BENCH_*.json metric files
//	                                           (report-only, never fails)
//	citroenstat bench-gate <bench.txt> <gates.json>
//	                                           write the BENCH_*.json that gates.json
//	                                           names for this `go test -bench` output;
//	                                           exits 1 if a threshold is missed
//
// report, convergence and trace accept "-" for stdin, so a live job can be
// piped in: citroenctl events -follow=false ID | citroenstat report -
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: citroenstat <report|convergence|trace|diff|bench-diff|bench-gate> ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "report":
		err = cmdReport(args, analyze.WriteReport)
	case "convergence":
		err = cmdReport(args, analyze.WriteConvergence)
	case "trace":
		err = cmdTrace(args)
	case "diff":
		err = cmdDiff(args)
	case "bench-diff":
		err = cmdBenchDiff(args)
	case "bench-gate":
		err = cmdBenchGate(args)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// readEvents loads a journal leniently (a live journal's torn final line is
// dropped, interior corruption is an error). "-" reads stdin.
func readEvents(path string) ([]obs.Event, error) {
	if path == "-" {
		return obs.ReadJournal(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadJournal(f)
}

func cmdReport(args []string, write func(io.Writer, *analyze.Report)) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("expected one journal path (or -)")
	}
	events, err := readEvents(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("journal %s has no events", fs.Arg(0))
	}
	r := analyze.Analyze(events)
	if *jsonOut {
		return writeJSON(os.Stdout, r)
	}
	write(os.Stdout, r)
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("expected one journal path (or -)")
	}
	events, err := readEvents(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("journal %s has no events", fs.Arg(0))
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := analyze.WriteChromeTrace(w, events); err != nil {
		return err
	}
	if *out != "" {
		fmt.Printf("wrote %s — open it at https://ui.perfetto.dev or chrome://tracing\n", *out)
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("expected two journal paths")
	}
	a, err := readEvents(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readEvents(fs.Arg(1))
	if err != nil {
		return err
	}
	if m := analyze.Diff(a, b); m != nil {
		return fmt.Errorf("journals differ: %s", m)
	}
	fmt.Printf("journals are canonically identical (%d events)\n", len(a))
	return nil
}

func cmdBenchDiff(args []string) error {
	fs := flag.NewFlagSet("bench-diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("expected <oldDir> <newDir>")
	}
	deltas, err := analyze.CompareBenchDirs(fs.Arg(0), fs.Arg(1))
	if err != nil {
		return err
	}
	analyze.WriteBenchDeltas(os.Stdout, deltas)
	return nil
}

// cmdBenchGate turns one `go test -bench` output into its BENCH_*.json
// (written to the working directory, where bench-diff and the artifact upload
// look for it) and fails when a gate does not hold. gates.json is keyed by the
// bench output's file name.
func cmdBenchGate(args []string) error {
	fs := flag.NewFlagSet("bench-gate", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("expected <go-test-bench-output> <gates.json>")
	}
	raw, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	var suites map[string]analyze.GateSuite
	if err := json.Unmarshal(raw, &suites); err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(1), err)
	}
	name := filepath.Base(fs.Arg(0))
	suite, ok := suites[name]
	if !ok {
		return fmt.Errorf("%s has no entry for %s", fs.Arg(1), name)
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	doc, failures, err := analyze.BenchGate(in, suite)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	// Worker-count benchmarks mean nothing without the core count beside them.
	doc["nproc"] = runtime.NumCPU()
	out, err := os.Create(suite.Out)
	if err != nil {
		return err
	}
	if err := writeJSON(out, doc); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("bench-gate %s: wrote %s, %d gates\n", name, suite.Out, len(suite.Gates))
	if len(failures) > 0 {
		return fmt.Errorf("bench-gate %s failed:\n  %s", name, strings.Join(failures, "\n  "))
	}
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
