// Command benchmark is the end-to-end tuning-run benchmark: it runs one
// workload (a fixed mix of tuning jobs) through the real tuner and evaluator,
// measures what someone waiting for the run sees, and — with -trace 1 —
// times every layer from outside through the layers' public functions.
//
//	bash benchmark/run.sh -workload gsm_bo -seed 1 -seconds 12 -trace 0
//
// See README.md in this directory for the workloads, the metric glossary and
// the compare mode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/passes"
)

// envInfo is stamped on every JSON file the harness writes.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	commit := "unknown" // the driver's checkout is not a git repository
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envInfo{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object the driver reads from the last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of a -record file, the input of -compare.
type record struct {
	Env          envInfo            `json:"env"`
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        int                `json:"trace"`
	StealShare   float64            `json:"host_steal_share"` // of the untraced pass
	CountsDigest string             `json:"counts_digest"`
	Metrics      map[string]float64 `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: gsm_bo, x264_bo, manymod_bo, sha_long or jpeg_random")
	seed := flag.Int64("seed", 1, "seeds jpeg_random's measurement noise and the layer probe's sample; the BO workloads are fixed jobs (see README.md)")
	seconds := flag.Int("seconds", nominalSeconds, "target tuning time; budgets scale linearly from the nominal one")
	trace := flag.Int("trace", 0, "1 also runs a traced pass and the layer probe, and reports per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the workload twice and fail if the counts digests differ")
	recordPath := flag.String("record", "", "append this run's metrics as one JSON line to the file")
	compare := flag.Bool("compare", false, "compare two -record files: -compare old.jsonl new.jsonl")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json for the workloads and metrics compiled in")
	goldenDir := flag.String("write-golden", "", "regenerate the reference outputs into this directory and exit")
	flag.Parse()
	runtime.GOMAXPROCS(workers)

	var err error
	switch {
	case *manifest:
		err = printManifest(os.Stdout)
	case *goldenDir != "":
		err = writeGolden(*goldenDir)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare old.jsonl new.jsonl")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	default:
		w := workloadByName(*workloadName)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *workloadName)
			break
		}
		if *seconds < 1 {
			err = errors.New("-seconds must be at least 1")
			break
		}
		var ok bool
		if ok, err = runWorkload(w, *seed, *seconds, *trace != 0, *selfcheck, *recordPath); err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runWorkload runs the untraced pass (end-to-end metrics) and, when traced,
// a second traced pass plus the layer probe (per-layer metrics). It reports
// whether every correctness check held.
func runWorkload(w *workload, seed int64, seconds int, traced, selfcheck bool, recordPath string) (bool, error) {
	env := currentEnv()
	fmt.Printf("# workload %s seed %d seconds %d budget %d search_seeds %v\n", w.name, seed, seconds, w.scaledBudget(seconds), w.searchSeeds)
	fmt.Printf("# nproc %d gomaxprocs %d %s commit %s\n", env.NProc, env.GoMaxProcs, env.GoVersion, env.Commit)

	steal0, ticks0 := hostCPUTicks()
	plain, err := runPass(w, seed, seconds, false)
	if err != nil {
		return false, err
	}
	steal1, ticks1 := hostCPUTicks()
	stealShare := 0.0
	if ticks1 > ticks0 {
		stealShare = (steal1 - steal0) / (ticks1 - ticks0)
	}
	fmt.Printf("# host steal share during the untraced pass %.3f\n", stealShare)
	e2e, err := plain.endToEndValues()
	if err != nil {
		return false, err
	}
	correct := plain.goldenBad == 0
	for _, msg := range plain.goldenErrs {
		fmt.Println("golden_mismatch", msg)
	}
	digest := plain.countsDigest()

	var second *pass
	if traced || selfcheck {
		if second, err = runPass(w, seed, seconds, traced); err != nil {
			return false, err
		}
		// Tracing must not change the search, and neither may the scheduler.
		if d := second.countsDigest(); d != digest {
			fmt.Printf("digest_mismatch first %s second %s\n  first  %s\n  second %s\n", digest, d, plain.counts().b.String(), second.counts().b.String())
			correct = false
		}
	}

	printMetrics(endToEnd, e2e)
	specs, values := endToEnd, e2e
	if traced {
		pr := probeLayers(second.tr, second.root, w, seed, second.samples)
		specs, values = perLayer, second.layerValues(plain.wall, pr)
		if w.intent != nil {
			fmt.Printf("intent_ok %d %s\n", int(values["harness.intent_ok"]), w.intentCond)
		}
		for _, line := range interactions {
			fmt.Println("# expect:", line)
		}
		printMetrics(perLayer, values)
		if err := writeTrace(w, seed, seconds, env, digest, e2e, values, second, pr); err != nil {
			return false, err
		}
	}
	res := result{
		Correct:   correct,
		Attempted: int64(len(plain.bests)) + plain.goldenChecks(),
		Failed:    plain.goldenBad,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		res.Metrics[s.Name] = metricValue{values[s.Name], s.Unit}
	}
	fmt.Printf("candidates attempted %d rejected %d (", plain.totalCompiles()+plain.measures, plain.candidateFails())
	for c, name := range classNames {
		if c > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%s %d", name, plain.fails[c])
	}
	fmt.Println(")")
	fmt.Println("counts_digest", digest)

	if recordPath != "" {
		rec := record{Env: env, Workload: w.name, Seed: seed, Seconds: seconds, StealShare: stealShare, CountsDigest: digest, Metrics: values}
		if traced {
			rec.Trace = 1
		}
		if err := appendRecord(recordPath, rec); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}

func printMetrics(specs []metricSpec, values map[string]float64) {
	for _, s := range specs {
		fmt.Printf("%s %s %v\n", s.Name, s.Unit, values[s.Name])
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// outDir is benchmark/out under the working directory, or out when the
// harness is started from inside benchmark/.
func outDir() string {
	if st, err := os.Stat(filepath.Join("benchmark", "out")); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

type topPass struct {
	Name        string  `json:"name"`
	WallS       float64 `json:"wall_s"`
	Invocations int     `json:"invocations"`
	Fired       int     `json:"fired"`
}

// writeTrace writes the traced pass's spans and everything needed to read
// them to <out>/<workload>.trace.json.
func writeTrace(w *workload, seed int64, seconds int, env envInfo, digest string, e2e, layers map[string]float64, p *pass, pr *probeResult) error {
	var top []topPass
	for _, c := range passes.TopByWall(p.prof.Costs(), 5) {
		top = append(top, topPass{c.Name, c.Wall.Seconds(), c.Invocations, c.Fired})
	}
	failures := map[string][]reproCase{}
	for c, name := range classNames {
		failures[name] = append([]reproCase{}, p.repro[c]...) // [] rather than null when empty
	}
	doc := struct {
		Env          envInfo                `json:"env"`
		Written      string                 `json:"written"`
		Workload     string                 `json:"workload"`
		Why          string                 `json:"why"`
		Seed         int64                  `json:"seed"`
		Seconds      int                    `json:"seconds"`
		Budget       int                    `json:"budget"`
		SearchSeeds  []int64                `json:"search_seeds"`
		CountsDigest string                 `json:"counts_digest"`
		EndToEnd     map[string]float64     `json:"end_to_end"`
		PerLayer     map[string]float64     `json:"per_layer"`
		IntentCond   string                 `json:"intent_condition,omitempty"`
		TopPasses    []topPass              `json:"top_passes"`
		ProbeSkipped int                    `json:"probe_samples_rejected"`
		Failures     map[string][]reproCase `json:"failures"`
		Interactions []string               `json:"expected_interactions"`
		Spans        []span                 `json:"spans"`
	}{
		Env: env, Written: time.Now().UTC().Format(time.RFC3339),
		Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Budget: p.budget,
		SearchSeeds: w.searchSeeds, CountsDigest: digest, EndToEnd: e2e, PerLayer: layers,
		IntentCond: w.intentCond, TopPasses: top, ProbeSkipped: pr.skipped,
		Failures: failures, Interactions: interactions, Spans: p.tr.spans,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, w.name+".trace.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("# trace written to", path)
	return nil
}

// printManifest renders BENCHMARK.json from the compiled-in tables.
func printManifest(out *os.File) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"` // no bound: omitted when zero
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: nominalSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = out.Write(append(data, '\n'))
	return err
}
