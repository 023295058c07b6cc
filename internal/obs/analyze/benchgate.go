package analyze

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/numeric"
)

// GateSuite is one entry of benchdata/gates.json, keyed there by the name of
// the `go test -bench` output file it reads: the BENCH_*.json document that
// output becomes, the ratios derived from it, and the thresholds CI holds it
// to. The thresholds live beside the baselines they
// were set from, not in the workflow file.
type GateSuite struct {
	// Out is the BENCH_*.json file the document is written to.
	Out string `json:"out"`
	// Ratios adds top-level metrics: name -> [numerator, denominator], both
	// benchmark names looked up in ns_per_op.
	Ratios map[string][2]string `json:"ratios,omitempty"`
	Gates  []Gate               `json:"gates"`
}

// Gate bounds one metric of the document, named by the dotted path bench-diff
// prints ("ns_per_op.BenchmarkExec/bytecode",
// "bytes_per_op.BenchmarkGPFitAdam/n150-d55-s40-w2", "bytecode_speedup"). Min and
// Max are inclusive.
type Gate struct {
	Metric string   `json:"metric"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	Why    string   `json:"why"`
}

// procSuffix is the -GOMAXPROCS suffix `go test` appends to benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// benchUnits maps the per-op units `go test -bench` prints to the document
// keys their values go under.
var benchUnits = map[string]string{"ns/op": "ns_per_op", "B/op": "bytes_per_op", "allocs/op": "allocs_per_op"}

// ParseBenchOutput reads `go test -bench` text and returns each value under
// its gate metric name: ns_per_op.<name>, and bytes_per_op.<name> and
// allocs_per_op.<name> where -benchmem or ReportAllocs printed them (the
// GOMAXPROCS suffix removed from the benchmark name). A benchmark that ran more than once (-count, or one
// command repeated into the same file) reads as the median of its lines, so
// a ratio of two benchmarks rests on alternating runs rather than on the last
// one. Lines that are not benchmark results are skipped.
func ParseBenchOutput(r io.Reader) (map[string]float64, error) {
	runs := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := procSuffix.ReplaceAllString(f[0], "")
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench output: %s: bad value %q", name, f[i])
			}
			if key, ok := benchUnits[f[i+1]]; ok {
				runs[key+"."+name] = append(runs[key+"."+name], v)
			}
		}
	}
	out := make(map[string]float64, len(runs))
	for metric, v := range runs {
		out[metric] = numeric.Median(v)
	}
	return out, sc.Err()
}

// BenchGate builds the suite's BENCH document from bench output and checks
// every gate. failures names each gate that does not hold, or whose metric the
// output lacks: a renamed benchmark must fail its gate, not disable it.
func BenchGate(r io.Reader, suite GateSuite) (doc map[string]any, failures []string, err error) {
	perOp, err := ParseBenchOutput(r)
	if err != nil {
		return nil, nil, err
	}
	doc = map[string]any{}
	for metric, v := range perOp {
		key, name, _ := strings.Cut(metric, ".")
		if doc[key] == nil {
			doc[key] = map[string]float64{}
		}
		doc[key].(map[string]float64)[name] = v
	}
	ns, _ := doc["ns_per_op"].(map[string]float64)
	if len(ns) == 0 {
		return nil, nil, fmt.Errorf("bench output has no benchmark results")
	}
	for name, of := range suite.Ratios {
		if num, den := ns[of[0]], ns[of[1]]; num != 0 && den != 0 {
			doc[name] = num / den // else its gate reports the metric missing
		}
	}
	lookup := func(metric string) (float64, bool) {
		v, ok := perOp[metric]
		if !ok {
			v, ok = doc[metric].(float64)
		}
		return v, ok
	}
	for _, g := range suite.Gates {
		v, ok := lookup(g.Metric)
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s: not in the bench output (%s)", g.Metric, g.Why))
		case g.Min != nil && v < *g.Min:
			failures = append(failures, fmt.Sprintf("%s = %.4g, gate >= %.4g (%s)", g.Metric, v, *g.Min, g.Why))
		case g.Max != nil && v > *g.Max:
			failures = append(failures, fmt.Sprintf("%s = %.4g, gate <= %.4g (%s)", g.Metric, v, *g.Max, g.Why))
		}
	}
	return doc, failures, nil
}
