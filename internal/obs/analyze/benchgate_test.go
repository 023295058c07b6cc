package analyze

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func loadGates(t *testing.T) map[string]GateSuite {
	t.Helper()
	raw, err := os.ReadFile("../../../benchdata/gates.json")
	if err != nil {
		t.Fatal(err)
	}
	var suites map[string]GateSuite
	if err := json.Unmarshal(raw, &suites); err != nil {
		t.Fatal(err)
	}
	return suites
}

func gate(t *testing.T, file string, suite GateSuite) (map[string]any, []string) {
	t.Helper()
	f, err := os.Open("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, failures, err := BenchGate(f, suite)
	if err != nil {
		t.Fatal(err)
	}
	return doc, failures
}

// The committed gates must parse, and hold on bench output captured from the
// commands CI runs (testdata/<name> is the output gates.json keys by <name>).
func TestCommittedGatesHoldOnCapturedOutput(t *testing.T) {
	suites := loadGates(t)
	if len(suites) != 5 {
		t.Fatalf("gates.json has %d suites, want 5", len(suites))
	}
	gates := 0
	for file, suite := range suites {
		if !strings.HasPrefix(suite.Out, "BENCH_") || len(suite.Gates) == 0 {
			t.Errorf("%s: out %q, %d gates", file, suite.Out, len(suite.Gates))
		}
		for _, g := range suite.Gates {
			gates++
			if (g.Min == nil) == (g.Max == nil) || g.Why == "" {
				t.Errorf("%s: gate %+v needs exactly one bound and a reason", file, g)
			}
		}
		if _, failures := gate(t, file, suite); len(failures) > 0 {
			t.Errorf("%s: %v", file, failures)
		}
	}
	if gates != 22 {
		t.Errorf("%d gates, want the 7 thresholds left of those ci.yml enforced inline (the prefix-snapshot compile's went with the snapshots), the 5 pass-scaling ratios, the 3 allocation counts of a clone of a pass-touched module and of the CFG / dominator / loop analyses built and reused, the fingerprint-over-comparison ratio, the executions-per-measurement ratio, the GP fit's four: the lower-triangle inverse against the column-solve one, the allocation count of the sha_long-sized fit, and the bytes of that fit and of its frozen refit, and the bytes of the GP append", gates)
	}
}

func TestBenchGateDocument(t *testing.T) {
	suites := loadGates(t)
	// Two packages' output in one file, names with and without a sub-benchmark.
	doc, _ := gate(t, "gp-bench.txt", suites["gp-bench.txt"])
	ns := doc["ns_per_op"].(map[string]float64)
	if ns["BenchmarkGPFit/refit-n256"] != 3885168 || ns["BenchmarkAcqMaximize/w8"] != 19990945 || len(ns) != 18 {
		t.Fatalf("ns_per_op = %v", ns)
	}
	if got, want := doc["refit_over_append"].(float64), 3885168.0/1133831.0; got != want {
		t.Fatalf("refit_over_append = %v, want %v", got, want)
	}
	if b := doc["bytes_per_op"].(map[string]float64); b["BenchmarkGPFitAdam/n150-d55-s0-w2"] != 499297 || len(b) != 15 {
		t.Fatalf("bytes_per_op = %v", b)
	}
	// Custom metrics between ns/op and allocs/op, fractional ns/op.
	doc, _ = gate(t, "compile-bench.txt", suites["compile-bench.txt"])
	if a := doc["allocs_per_op"].(map[string]float64); a["BenchmarkPrefixCompile"] != 659 {
		t.Fatalf("allocs_per_op = %v", a)
	}
	doc, _ = gate(t, "ir-bench.txt", suites["ir-bench.txt"])
	if ns := doc["ns_per_op"].(map[string]float64); ns["BenchmarkSnapshotHandout"] != 530.1 {
		t.Fatalf("ns_per_op = %v", ns)
	}
	if got, want := doc["fingerprint_over_equal"].(float64), 28241.0/5709.0; got != want {
		t.Fatalf("fingerprint_over_equal = %v, want %v", got, want)
	}
	// Without -benchmem there is no allocs or bytes table.
	doc, _ = gate(t, "passes-bench.txt", suites["passes-bench.txt"])
	for _, key := range []string{"allocs_per_op", "bytes_per_op"} {
		if _, ok := doc[key]; ok {
			t.Fatalf("%s without -benchmem: %v", key, doc)
		}
	}
}

func TestBenchGateFailures(t *testing.T) {
	suite := loadGates(t)["machine-bench.txt"]
	five, four, zero := 5.0, 4.0, 0.0
	suite.Gates = []Gate{
		{Metric: "bytecode_speedup", Min: &five, Why: "captured run is 4.14x"},
		{Metric: "allocs_per_op.BenchmarkExec/treewalk", Max: &zero, Why: "captured run is 13"},
		{Metric: "ns_per_op.BenchmarkExec/renamed", Max: &four, Why: "a renamed benchmark"},
		{Metric: "allocs_per_op.BenchmarkExec/bytecode", Max: &zero, Why: "holds"},
	}
	_, failures := gate(t, "machine-bench.txt", suite)
	if len(failures) != 3 {
		t.Fatalf("failures = %q, want 3", failures)
	}
	for i, want := range []string{"bytecode_speedup = 4.14, gate >= 5", "treewalk = 13, gate <= 0", "renamed: not in the bench output"} {
		if !strings.Contains(failures[i], want) {
			t.Errorf("failure %d = %q, want it to contain %q", i, failures[i], want)
		}
	}
	if _, _, err := BenchGate(strings.NewReader("PASS\nok  \trepro/internal/gp\t1.7s\n"), suite); err == nil {
		t.Error("bench output without results must be an error")
	}
}

// A benchmark repeated into one output (CI runs the machine benchmarks five
// times so a ratio's numerator and denominator alternate) reads as the
// median of its runs, not the last one.
func TestParseBenchOutputTakesMedianOfRepeats(t *testing.T) {
	out := `BenchmarkExec/bytecode-2   300   210 ns/op   0 B/op   0 allocs/op
BenchmarkMeasure/fresh-2   300   400 ns/op   9 B/op   3 allocs/op
BenchmarkExec/bytecode-2   300   900 ns/op   0 B/op   0 allocs/op
BenchmarkMeasure/fresh-2   300   380 ns/op   9 B/op   5 allocs/op
BenchmarkExec/bytecode-2   300   200 ns/op   0 B/op   0 allocs/op
BenchmarkMeasure/fresh-2   300   390 ns/op   9 B/op   4 allocs/op
BenchmarkExec/treewalk-2   300  1000 ns/op
BenchmarkExec/treewalk-2   300  2000 ns/op
`
	perOp, err := ParseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"ns_per_op.BenchmarkExec/bytecode": 210, "ns_per_op.BenchmarkMeasure/fresh": 390, "ns_per_op.BenchmarkExec/treewalk": 1500,
		"allocs_per_op.BenchmarkExec/bytecode": 0, "allocs_per_op.BenchmarkMeasure/fresh": 4,
		"bytes_per_op.BenchmarkExec/bytecode": 0, "bytes_per_op.BenchmarkMeasure/fresh": 9,
	}
	if !reflect.DeepEqual(perOp, want) {
		t.Errorf("ParseBenchOutput = %v, want the medians %v", perOp, want)
	}
}
