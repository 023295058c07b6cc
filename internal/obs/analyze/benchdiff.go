package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// BenchDelta is one metric compared across two BENCH_*.json snapshots.
// Negative Percent means the new value is smaller (faster, for ns/op).
type BenchDelta struct {
	File    string  `json:"file"`
	Metric  string  `json:"metric"`
	Old     float64 `json:"old"`
	New     float64 `json:"new"`
	Percent float64 `json:"percent"` // (new-old)/old * 100; 0 when old == 0
	// OnlyOld/OnlyNew flag metrics present on just one side.
	OnlyOld bool `json:"only_old,omitempty"`
	OnlyNew bool `json:"only_new,omitempty"`
}

// CompareBenchDirs compares every BENCH_*.json present in oldDir or newDir,
// flattening each file's numeric leaves into dotted metric paths. It is the
// report-only per-PR perf trajectory: callers print the deltas, nothing
// gates on them.
func CompareBenchDirs(oldDir, newDir string) ([]BenchDelta, error) {
	names := map[string]bool{}
	for _, dir := range []string{oldDir, newDir} {
		matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			names[filepath.Base(m)] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var out []BenchDelta
	for _, name := range sorted {
		oldM, oldErr := flattenBenchFile(filepath.Join(oldDir, name))
		newM, newErr := flattenBenchFile(filepath.Join(newDir, name))
		switch {
		case oldErr != nil && newErr != nil:
			continue
		case oldErr != nil:
			for _, k := range sortedKeys(newM) {
				out = append(out, BenchDelta{File: name, Metric: k, New: newM[k], OnlyNew: true})
			}
			continue
		case newErr != nil:
			for _, k := range sortedKeys(oldM) {
				out = append(out, BenchDelta{File: name, Metric: k, Old: oldM[k], OnlyOld: true})
			}
			continue
		}
		keys := map[string]bool{}
		for k := range oldM {
			keys[k] = true
		}
		for k := range newM {
			keys[k] = true
		}
		for _, k := range sortedKeys(keys) {
			ov, inOld := oldM[k]
			nv, inNew := newM[k]
			d := BenchDelta{File: name, Metric: k, Old: ov, New: nv, OnlyOld: !inNew, OnlyNew: !inOld}
			if inOld && inNew && ov != 0 {
				d.Percent = (nv - ov) / ov * 100
			}
			out = append(out, d)
		}
	}
	return out, nil
}

// WriteBenchDeltas prints the comparison as the CI log table.
func WriteBenchDeltas(w io.Writer, deltas []BenchDelta) {
	if len(deltas) == 0 {
		fmt.Fprintln(w, "bench-diff: no BENCH_*.json files to compare")
		return
	}
	file := ""
	for _, d := range deltas {
		if d.File != file {
			file = d.File
			fmt.Fprintf(w, "%s:\n", file)
		}
		switch {
		case d.OnlyNew:
			fmt.Fprintf(w, "  %-52s %14s -> %12.4g   (new metric)\n", d.Metric, "-", d.New)
		case d.OnlyOld:
			fmt.Fprintf(w, "  %-52s %14.4g -> %12s   (metric removed)\n", d.Metric, d.Old, "-")
		default:
			fmt.Fprintf(w, "  %-52s %14.4g -> %12.4g   %+7.2f%%\n", d.Metric, d.Old, d.New, d.Percent)
		}
	}
}

// flattenBenchFile loads a BENCH_*.json document and flattens every numeric
// leaf to a dotted path ("ns_per_op.BenchmarkGPFit/refit-n256").
func flattenBenchFile(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	flattenJSON("", doc, out)
	return out, nil
}

func flattenJSON(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case float64:
		out[prefix] = t
	case map[string]any:
		for k, e := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flattenJSON(p, e, out)
		}
	case []any:
		for i, e := range t {
			flattenJSON(fmt.Sprintf("%s[%d]", prefix, i), e, out)
		}
	}
}
