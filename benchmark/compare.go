package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/numeric"
)

// Verdicts of one (workload, end-to-end metric) pairing.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worseBy is how much worse newV is than oldV as a share of oldV, in the
// metric's own direction (negative when it improved).
func worseBy(s metricSpec, oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	if s.Better == "higher" {
		return (oldV - newV) / oldV
	}
	return (newV - oldV) / oldV
}

// judge applies the choosing-metrics rule: a median that worsened by more
// than the bound is a regression; where either side's own runs spread wider
// than the bound nothing can be concluded, unless every new run reads better
// than every old one.
func judge(s metricSpec, oldV, newV []float64) string {
	if spread(oldV) > s.Bound || spread(newV) > s.Bound {
		for _, n := range newV {
			for _, o := range oldV {
				if worseBy(s, o, n) >= 0 {
					return verdictUnresolved
				}
			}
		}
		return verdictOK
	}
	if worseBy(s, numeric.Median(oldV), numeric.Median(newV)) > s.Bound {
		return verdictWorse
	}
	return verdictOK
}

func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if rec.Trace != 0 {
			continue // per-layer records carry no end-to-end metrics
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per (workload, end-to-end metric) present in
// both record files, then the geometric mean of each metric's ratio across
// workloads. It reports whether any row is worse.
func compareFiles(out io.Writer, oldPath, newPath string) (anyWorse bool, err error) {
	oldR, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	newR, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-12s %-15s %5s %12s %12s %7s %6s %7s %s\n",
		"workload", "metric", "runs", "old_median", "new_median", "ratio", "bound", "spread", "verdict")
	ratios := map[string][]float64{}
	for _, w := range workloads {
		for _, s := range endToEnd {
			o, n := oldR[w.name][s.Name], newR[w.name][s.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			mo, mn := numeric.Median(o), numeric.Median(n)
			v := judge(s, o, n)
			anyWorse = anyWorse || v == verdictWorse
			if mo != 0 {
				ratios[s.Name] = append(ratios[s.Name], mn/mo)
			}
			fmt.Fprintf(out, "%-12s %-15s %2d/%-2d %12.5g %12.5g %7.4f %6.2f %7.4f %s\n",
				w.name, s.Name, len(o), len(n), mo, mn, mn/mo, s.Bound, spread(o), v)
		}
	}
	for _, s := range endToEnd {
		if r := ratios[s.Name]; len(r) > 0 {
			fmt.Fprintf(out, "%-12s %-15s %5d %12s %12s %7.4f  (%s is better)\n",
				"geomean", s.Name, len(r), "", "", numeric.GeoMean(r), s.Better)
		}
	}
	return anyWorse, nil
}
