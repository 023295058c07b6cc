package analyze

import (
	"encoding/json"
	"os"
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
	if gates != 18 {
		t.Errorf("%d gates, want the 7 thresholds left of those ci.yml enforced inline (the prefix-snapshot compile's went with the snapshots), the 5 pass-scaling ratios, the 2 allocation counts of a clone of a pass-touched module and of the CFG / dominator / loop analyses, the fingerprint-over-comparison ratio, the executions-per-measurement ratio, and the GP fit's two: the lower-triangle inverse against the column-solve one and the allocation count of the sha_long-sized fit", gates)
	}
}

func TestBenchGateDocument(t *testing.T) {
	suites := loadGates(t)
	// Two packages' output in one file, names with and without a sub-benchmark.
	doc, _ := gate(t, "gp-bench.txt", suites["gp-bench.txt"])
	ns := doc["ns_per_op"].(map[string]float64)
	if ns["BenchmarkGPFit/refit-n256"] != 11918089 || ns["BenchmarkAcqMaximize/w8"] != 20226465 || len(ns) != 17 {
		t.Fatalf("ns_per_op = %v", ns)
	}
	if got, want := doc["refit_over_append"].(float64), 11918089.0/1594360.0; got != want {
		t.Fatalf("refit_over_append = %v, want %v", got, want)
	}
	// Custom metrics between ns/op and allocs/op, fractional ns/op.
	doc, _ = gate(t, "compile-bench.txt", suites["compile-bench.txt"])
	if a := doc["allocs_per_op"].(map[string]float64); a["BenchmarkPrefixCompile"] != 1943 {
		t.Fatalf("allocs_per_op = %v", a)
	}
	doc, _ = gate(t, "ir-bench.txt", suites["ir-bench.txt"])
	if ns := doc["ns_per_op"].(map[string]float64); ns["BenchmarkSnapshotHandout"] != 1090 {
		t.Fatalf("ns_per_op = %v", ns)
	}
	if got, want := doc["fingerprint_over_equal"].(float64), 52172.0/10093.0; got != want {
		t.Fatalf("fingerprint_over_equal = %v, want %v", got, want)
	}
	// Without -benchmem there is no allocs table.
	doc, _ = gate(t, "passes-bench.txt", suites["passes-bench.txt"])
	if _, ok := doc["allocs_per_op"]; ok {
		t.Fatalf("allocs_per_op without -benchmem: %v", doc)
	}
}

func TestBenchGateFailures(t *testing.T) {
	suite := loadGates(t)["machine-bench.txt"]
	five, four, zero := 5.0, 4.0, 0.0
	suite.Gates = []Gate{
		{Metric: "bytecode_speedup", Min: &five, Why: "captured run is 4.69x"},
		{Metric: "allocs_per_op.BenchmarkExec/treewalk", Max: &zero, Why: "captured run is 13"},
		{Metric: "ns_per_op.BenchmarkExec/renamed", Max: &four, Why: "a renamed benchmark"},
		{Metric: "allocs_per_op.BenchmarkExec/bytecode", Max: &zero, Why: "holds"},
	}
	_, failures := gate(t, "machine-bench.txt", suite)
	if len(failures) != 3 {
		t.Fatalf("failures = %q, want 3", failures)
	}
	for i, want := range []string{"bytecode_speedup = 4.689, gate >= 5", "treewalk = 13, gate <= 0", "renamed: not in the bench output"} {
		if !strings.Contains(failures[i], want) {
			t.Errorf("failure %d = %q, want it to contain %q", i, failures[i], want)
		}
	}
	if _, _, err := BenchGate(strings.NewReader("PASS\nok  \trepro/internal/gp\t1.7s\n"), suite); err == nil {
		t.Error("bench output without results must be an error")
	}
}
