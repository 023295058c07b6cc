// Command opt mimics LLVM's opt for the simulated compiler: it applies a
// pass sequence (or an optimisation level) to a benchmark module and prints
// the compilation statistics as JSON (`-stats -stats-json` equivalent),
// optionally dumping the IR and executing the program.
//
// Usage:
//
//	opt -bench telecom_gsm -module long_term -passes mem2reg,slp-vectorizer -stats
//	opt -bench telecom_gsm -module long_term -O3 -print
//	opt -list-passes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/passes"
)

func main() {
	var (
		listPasses = flag.Bool("list-passes", false, "list the pass registry")
		benchName  = flag.String("bench", "telecom_gsm", "benchmark providing the module")
		module     = flag.String("module", "", "module to compile (default: first)")
		passCSV    = flag.String("passes", "", "comma-separated pass sequence")
		o3         = flag.Bool("O3", false, "apply the -O3 pipeline instead of -passes")
		stats      = flag.Bool("stats", true, "print compilation statistics (JSON)")
		print      = flag.Bool("print", false, "print the resulting IR")
		run        = flag.Bool("run", false, "link the full program and execute it")
		platform   = flag.String("platform", "arm", "arm or x86")
		profile    = flag.Bool("pass-profile", false, "print per-pass wall time and stats-counter deltas for the target module")
	)
	flag.Parse()

	if *listPasses {
		for _, p := range passes.All() {
			fmt.Printf("%-34s %s\n", p.Name, p.Desc)
		}
		return
	}

	b := bench.ByName(*benchName)
	if b == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *benchName)
		os.Exit(1)
	}
	plat, err := bench.PlatformByName(*platform)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prof := plat.Prof
	mods := b.Build(0, prof.VecWidth64)
	target := *module
	if target == "" {
		target = b.ModuleNames()[0]
	}

	st := passes.Stats{}
	var seq []string
	if !*o3 && *passCSV != "" {
		seq = strings.Split(*passCSV, ",")
	}
	found := false
	var passProf *passes.Profile
	for _, m := range mods {
		if m.Name != target {
			// Other modules get -O3 so the program still links and runs.
			if err := passes.ApplyLevel(m, "O3", passes.Stats{}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		found = true
		var o passes.Observer
		if *profile {
			passProf = passes.NewProfile()
			o = passProf
		}
		var err error
		if seq == nil {
			err = passes.ApplyLevelObserved(m, "O3", st, o)
		} else {
			err = passes.ApplyObserved(m, seq, st, true, o)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *print {
			fmt.Println(m.String())
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "module %q not in benchmark %s (have %v)\n", target, b.Name, b.ModuleNames())
		os.Exit(1)
	}
	if *stats {
		fmt.Println(st.JSON())
	}
	if passProf != nil {
		fmt.Printf("; per-pass profile for %s (invocations / fired / wall / stats delta):\n", target)
		for _, c := range passProf.Costs() {
			fmt.Printf(";   %-28s %5d %5d %12v %8d\n",
				c.Name, c.Invocations, c.Fired, c.Wall.Round(time.Microsecond), c.DeltaTotal())
		}
	}
	if *run {
		img, err := machine.Link(mods...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := machine.New(prof).Run(img, "main")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("; executed %d instructions in %.0f modelled cycles, %d outputs\n",
			res.Steps, res.Cycles, len(res.Output))
	}
}
