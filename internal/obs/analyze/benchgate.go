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
// prints ("ns_per_op.BenchmarkExec/bytecode", "bytecode_speedup"). Min and
// Max are inclusive.
type Gate struct {
	Metric string   `json:"metric"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	Why    string   `json:"why"`
}

// procSuffix is the -GOMAXPROCS suffix `go test` appends to benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// ParseBenchOutput reads `go test -bench` text and returns ns/op, and
// allocs/op where -benchmem printed it, per benchmark name (the GOMAXPROCS
// suffix removed). A benchmark that ran more than once (-count, or one
// command repeated into the same file) reads as the median of its lines, so
// a ratio of two benchmarks rests on alternating runs rather than on the last
// one. Lines that are not benchmark results are skipped.
func ParseBenchOutput(r io.Reader) (nsPerOp, allocsPerOp map[string]float64, err error) {
	ns, allocs := map[string][]float64{}, map[string][]float64{}
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
				return nil, nil, fmt.Errorf("bench output: %s: bad value %q", name, f[i])
			}
			switch f[i+1] {
			case "ns/op":
				ns[name] = append(ns[name], v)
			case "allocs/op":
				allocs[name] = append(allocs[name], v)
			}
		}
	}
	return medians(ns), medians(allocs), sc.Err()
}

func medians(runs map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(runs))
	for name, v := range runs {
		out[name] = numeric.Median(v)
	}
	return out
}

// BenchGate builds the suite's BENCH document from bench output and checks
// every gate. failures names each gate that does not hold, or whose metric the
// output lacks: a renamed benchmark must fail its gate, not disable it.
func BenchGate(r io.Reader, suite GateSuite) (doc map[string]any, failures []string, err error) {
	ns, allocs, err := ParseBenchOutput(r)
	if err != nil {
		return nil, nil, err
	}
	if len(ns) == 0 {
		return nil, nil, fmt.Errorf("bench output has no benchmark results")
	}
	doc = map[string]any{"ns_per_op": ns}
	if len(allocs) > 0 {
		doc["allocs_per_op"] = allocs
	}
	for name, of := range suite.Ratios {
		if num, den := ns[of[0]], ns[of[1]]; num != 0 && den != 0 {
			doc[name] = num / den // else its gate reports the metric missing
		}
	}
	lookup := func(metric string) (v float64, ok bool) {
		if name, cut := strings.CutPrefix(metric, "ns_per_op."); cut {
			v, ok = ns[name]
		} else if name, cut := strings.CutPrefix(metric, "allocs_per_op."); cut {
			v, ok = allocs[name]
		} else {
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
