// Command citroenctl is the client for the citroend tuning service.
//
// Usage:
//
//	citroenctl [-addr URL] submit -bench telecom_gsm -budget 100 [-wait]
//	citroenctl [-addr URL] status <job-id>
//	citroenctl [-addr URL] list
//	citroenctl [-addr URL] events <job-id> [-follow=false]
//	citroenctl [-addr URL] cancel <job-id>
//	citroenctl [-addr URL] wait <job-id>
//	citroenctl [-addr URL] result <job-id>
//	citroenctl [-addr URL] summary <job-id> [-json]
//	citroenctl [-addr URL] runners [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs/analyze"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://localhost:8171", "citroend base URL")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: citroenctl [-addr URL] <submit|status|list|events|cancel|wait|result|summary|runners> ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := &serve.Client{BaseURL: strings.TrimRight(*addr, "/")}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(c, args)
	case "status":
		err = cmdStatus(c, args)
	case "list":
		err = cmdList(c)
	case "events":
		err = cmdEvents(c, args)
	case "cancel":
		err = cmdCancel(c, args)
	case "wait":
		err = cmdWait(c, args)
	case "result":
		err = cmdResult(c, args)
	case "summary":
		err = cmdSummary(c, args)
	case "runners":
		err = cmdRunners(c, args)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseWithID parses a subcommand whose flags may appear before or after the
// job id (the flag package stops at the first positional argument).
func parseWithID(fs *flag.FlagSet, args []string) (string, error) {
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 {
		return "", fmt.Errorf("expected a job id")
	}
	id := rest[0]
	if len(rest) > 1 {
		if err := fs.Parse(rest[1:]); err != nil {
			return "", err
		}
		if fs.NArg() != 0 {
			return "", fmt.Errorf("unexpected arguments: %v", fs.Args())
		}
	}
	return id, nil
}

func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func cmdSubmit(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var spec serve.JobSpec
	fs.StringVar(&spec.Bench, "bench", "", "benchmark to tune (required)")
	fs.StringVar(&spec.Platform, "platform", "", "arm or x86 (default arm)")
	fs.IntVar(&spec.Budget, "budget", 0, "runtime measurements (default 50, at most 100000)")
	fs.Int64Var(&spec.Seed, "seed", 0, "random seed (default 1)")
	fs.IntVar(&spec.Lambda, "lambda", 0, "candidates per iteration (default 9, at most 1024)")
	fs.IntVar(&spec.Workers, "workers", 0, "candidate-compilation workers")
	fs.StringVar(&spec.Feature, "feature", "", "stats|autophase|tokenmix|rawseq")
	adaptive := fs.Bool("adaptive", true, "adaptive multi-module budget allocation")
	wait := fs.Bool("wait", false, "block until the job finishes, then print the result")
	fs.Parse(args)
	if !*adaptive {
		spec.Adaptive = adaptive
	}
	st, err := c.Submit(spec)
	if err != nil {
		return err
	}
	fmt.Println(st.ID)
	if !*wait {
		return nil
	}
	final, err := c.Wait(context.Background(), st.ID, 500*time.Millisecond)
	if err != nil {
		return err
	}
	if final.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	res, err := c.Result(st.ID)
	if err != nil {
		return err
	}
	return printJSON(res)
}

func cmdStatus(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	id, err := parseWithID(fs, args)
	if err != nil {
		return err
	}
	st, err := c.Job(id)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdList(c *serve.Client) error {
	jobs, err := c.Jobs()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		best := ""
		if j.BestSpeedup > 0 {
			best = fmt.Sprintf("  best %.3fx (%d meas)", j.BestSpeedup, j.Measurements)
		}
		fmt.Printf("%s  %-11s  %-20s%s\n", j.ID, j.State, j.Spec.Bench, best)
	}
	return nil
}

func cmdEvents(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	follow := fs.Bool("follow", true, "stream live until the job finishes")
	id, err := parseWithID(fs, args)
	if err != nil {
		return err
	}
	return c.Events(context.Background(), id, *follow, os.Stdout)
}

func cmdCancel(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	id, err := parseWithID(fs, args)
	if err != nil {
		return err
	}
	st, err := c.Cancel(id)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdWait(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	id, err := parseWithID(fs, args)
	if err != nil {
		return err
	}
	st, err := c.Wait(context.Background(), id, 500*time.Millisecond)
	if err != nil {
		return err
	}
	return printJSON(st)
}

// cmdSummary renders the server's live journal analysis — works on running
// jobs, showing where the wall time is going right now.
func cmdSummary(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the raw JobSummary JSON")
	id, err := parseWithID(fs, args)
	if err != nil {
		return err
	}
	sum, err := c.Summary(id)
	if err != nil {
		return err
	}
	if *jsonOut {
		return printJSON(sum)
	}
	fmt.Printf("job %s  %s  %s", sum.Status.ID, sum.Status.State, sum.Status.Spec.Bench)
	if sum.Status.BestSpeedup > 0 {
		fmt.Printf("  best %.3fx", sum.Status.BestSpeedup)
	}
	fmt.Println()
	analyze.WriteReport(os.Stdout, sum.Report)
	return nil
}

// cmdRunners lists the fleet's registered evaluation runners (requires a
// server started with -fleet).
func cmdRunners(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("runners", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the raw RunnerInfo JSON")
	fs.Parse(args)
	runners, err := c.Runners()
	if err != nil {
		return err
	}
	if *jsonOut {
		return printJSON(runners)
	}
	if len(runners) == 0 {
		fmt.Println("no runners registered")
		return nil
	}
	for _, r := range runners {
		beat := time.Since(time.Unix(0, r.LastBeatNS)).Round(time.Millisecond)
		fmt.Printf("%-4s  %-12s  %-30s  workers %-3d  batches %-6d  failures %-4d  last beat %s ago\n",
			r.ID, r.State, r.URL, r.Workers, r.Batches, r.Failures, beat)
	}
	return nil
}

func cmdResult(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	id, err := parseWithID(fs, args)
	if err != nil {
		return err
	}
	res, err := c.Result(id)
	if err != nil {
		return err
	}
	return printJSON(res)
}
