package analyze

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// WriteReport renders the phase/cache/module/pass-profile report as the
// human-readable `citroenstat report` output.
func WriteReport(w io.Writer, r *Report) {
	status := "complete"
	if !r.Complete {
		status = "in flight"
	}
	fmt.Fprintf(w, "runs: %d (%s), events: %d, wall %v\n",
		r.Runs, status, r.Events, time.Duration(r.WallNS).Round(time.Microsecond))
	fmt.Fprintf(w, "iterations: %d, compiles: %d, measurements: %d (+%d reused), checkpoints: %d, resumes: %d\n",
		r.Iterations, r.Compiles, r.Measurements, r.ReusedMeasurements, r.Checkpoints, r.Resumes)
	fmt.Fprintf(w, "best speedup: %.3fx\n", r.BestSpeedup)

	fmt.Fprintln(w, "\nphase attribution (elapsed = run timeline, cpu = summed event walls; acquisition cpu = its elapsed):")
	fmt.Fprintf(w, "  %-12s %14s %7s %14s %8s %7s\n", "phase", "elapsed", "share", "cpu", "parallel", "events")
	for _, pt := range r.Phases {
		share := 0.0
		if r.WallNS > 0 {
			share = float64(pt.ElapsedNS) / float64(r.WallNS)
		}
		par := "-"
		if pt.ElapsedNS > 0 && pt.CPUNS > 0 {
			par = fmt.Sprintf("%.2fx", float64(pt.CPUNS)/float64(pt.ElapsedNS))
		}
		fmt.Fprintf(w, "  %-12s %14v %6.1f%% %14v %8s %7d\n",
			pt.Phase,
			time.Duration(pt.ElapsedNS).Round(time.Microsecond), 100*share,
			time.Duration(pt.CPUNS).Round(time.Microsecond), par, pt.Events)
	}

	fmt.Fprintln(w, "\ncache effectiveness:")
	WriteCounters(w, r.Counters)
	fmt.Fprintf(w, "  measurement dedup: %d duplicate-statistics candidates reused without budget\n", r.ReusedMeasurements)

	if len(r.Modules) > 0 {
		fmt.Fprintln(w, "\nper-module:")
		fmt.Fprintf(w, "  %-16s %9s %12s %8s %10s\n", "module", "compiles", "compile cpu", "meas", "best")
		for _, name := range sortedModuleNames(r.Modules) {
			m := r.Modules[name]
			best := "-"
			if m.BestSpeedup > 0 {
				best = fmt.Sprintf("%.3fx", m.BestSpeedup)
			}
			fmt.Fprintf(w, "  %-16s %9d %12v %8d %10s\n",
				name, m.Compiles, time.Duration(m.CompileNS).Round(time.Microsecond),
				m.Measurements, best)
		}
	}

	if len(r.PassProfile) > 0 {
		fmt.Fprintln(w, "\nper-pass profile:")
		fmt.Fprintf(w, "  %-28s %7s %7s %12s %10s\n", "pass", "invoc", "fired", "wall", "delta")
		for _, p := range r.PassProfile {
			fmt.Fprintf(w, "  %-28s %7d %7d %12v %10d\n", p.Pass, p.Invocations, p.Fired,
				time.Duration(p.WallNS).Round(time.Microsecond), p.DeltaTotal)
		}
	}
}

// WriteCounters is the one renderer of a counter set: every canonical row as
// "name value" in set order, the rates derived from rows by name, then the
// Env rows on one line. A new counter shows up here by being in the set; only
// a new derived rate needs a line of its own.
func WriteCounters(w io.Writer, set obs.CounterSet) {
	var env []obs.CounterRow
	for _, c := range set {
		if c.Env {
			env = append(env, c)
			continue
		}
		fmt.Fprintf(w, "  %-24s %12d\n", c.Name, c.Value)
	}
	rate := func(label string, num, den int64) {
		if den > 0 {
			fmt.Fprintf(w, "  %-24s %11.1f%%\n", label, 100*float64(num)/float64(den))
		}
	}
	shared := set.Get("cow_shared")
	rate("cow share rate", shared-set.Get("cow_materialized"), shared)
	if len(env) > 0 {
		fmt.Fprint(w, "  env:")
		for _, c := range env {
			fmt.Fprintf(w, " %s=%d", c.Name, c.Value)
		}
		fmt.Fprintln(w)
	}
}

// WriteConvergence renders the incumbent-speedup-vs-budget curves: the
// program-level incumbent steps, then every module's measurement curve.
func WriteConvergence(w io.Writer, r *Report) {
	fmt.Fprintf(w, "budget-consuming measurements: %d, best speedup: %.3fx\n", r.Measurements, r.BestSpeedup)
	if len(r.Incumbents) > 0 {
		fmt.Fprintln(w, "\nincumbent steps (speedup vs measurement):")
		for _, s := range r.Incumbents {
			mod := s.Module
			if mod == "" {
				mod = "(baseline)"
			}
			fmt.Fprintf(w, "  %4d  %-16s %.3fx\n", s.Measurement, mod, s.Best)
		}
	}
	incumbent := map[int]bool{}
	for _, s := range r.Incumbents {
		incumbent[s.Measurement] = true
	}
	if len(r.Curve) > 0 {
		fmt.Fprintln(w, "\nmeasurement curve (* = new incumbent):")
		for _, s := range r.Curve {
			mark := " "
			if incumbent[s.Measurement] {
				mark = "*"
			}
			fmt.Fprintf(w, "  %4d%s %-16s speedup %.3fx  best %.3fx\n",
				s.Measurement, mark, s.Module, s.Speedup, s.Best)
		}
	}
}

func sortedModuleNames(m map[string]*ModuleReport) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
