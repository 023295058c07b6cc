package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// tinyConfig keeps experiment smoke tests fast on one core.
func tinyConfig(buf *bytes.Buffer) Config {
	c := DefaultConfig(buf)
	c.Budget = 12
	c.Scale = 0.3
	c.Benchmarks = []string{"telecom_gsm"}
	return c
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tab5.1", "tab5.2", "tab5.3", "tab5.4", "tab5.5",
		"fig5.1", "fig5.6", "fig5.7", "fig5.8", "fig5.9", "fig5.10",
		"fig5.11", "fig5.12", "adaptive",
		"fig4.3", "fig4.4", "fig4.5", "fig4.7", "fig4.15", "tab4.2",
	}
	for _, id := range want {
		if ByID(id) == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestTable51ReproducesPaperShape(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	if err := ByID("tab5.1").Run(c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(out, "\n")
	// Row 1 (mem2reg slp) must have nonzero SLP and speedup > rows 2-4.
	var rows []string
	for _, l := range lines {
		if strings.HasPrefix(l, "1 ") || strings.HasPrefix(l, "2 ") ||
			strings.HasPrefix(l, "3 ") || strings.HasPrefix(l, "4 ") ||
			strings.HasPrefix(l, "5 ") {
			rows = append(rows, l)
		}
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 rows, got %d:\n%s", len(rows), out)
	}
	slpOf := func(row string) string {
		f := strings.Fields(row)
		return f[len(f)-5]
	}
	if slpOf(rows[0]) == "0" {
		t.Fatalf("row 1 should vectorise:\n%s", out)
	}
	for _, i := range []int{1, 2, 3} {
		if slpOf(rows[i]) != "0" {
			t.Fatalf("row %d should not vectorise:\n%s", i+1, out)
		}
	}
	if slpOf(rows[4]) == "0" {
		t.Fatalf("row 5 should vectorise:\n%s", out)
	}
}

func TestStaticTablesRun(t *testing.T) {
	for _, id := range []string{"tab5.3", "tab5.4", "fig5.1"} {
		var buf bytes.Buffer
		if err := ByID(id).Run(tinyConfig(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestTuningTablesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range []string{"tab5.2", "tab5.5", "fig5.12"} {
		var buf bytes.Buffer
		if err := ByID(id).Run(tinyConfig(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestCh4ExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range []string{"fig4.3", "fig4.15", "tab4.2"} {
		var buf bytes.Buffer
		c := tinyConfig(&buf)
		if err := ByID(id).Run(c); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "paper shape") && id != "tab4.2" && id != "fig4.3" {
			t.Fatalf("%s missing output:\n%s", id, buf.String())
		}
	}
}

func TestFig58AblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	if err := ByID("fig5.8").Run(c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CITROEN (full)") {
		t.Fatalf("missing variants:\n%s", buf.String())
	}
}

// Fig 5.12's shares are the journal's elapsed partition of the run: each is
// a share of the wall clock, and together they are all of it. Summing the
// parallel compile walls instead reads over 100 % with four workers.
func TestFig512SharesPartitionWall(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	c.Budget = 8
	c.Workers = 4
	if err := ByID("fig5.12").Run(c); err != nil {
		t.Fatal(err)
	}
	var shares []float64
	inTable := false
	for _, l := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(l, "Fig 5.12"):
			inTable = true
		case strings.Contains(l, "total wall clock"):
			inTable = false
		case inTable:
			f := strings.Fields(l)
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
			if err != nil {
				t.Fatalf("share row %q: %v", l, err)
			}
			shares = append(shares, v)
		}
	}
	if len(shares) == 0 {
		t.Fatalf("no share rows:\n%s", buf.String())
	}
	sum := 0.0
	for _, v := range shares {
		if v < 0 || v > 100 {
			t.Errorf("share %.2f%% outside [0, 100]", v)
		}
		sum += v
	}
	if math.Abs(sum-100) > 0.1 {
		t.Errorf("shares sum to %.2f%%, want 100 ± 0.1", sum)
	}
	if t.Failed() {
		t.Log(buf.String())
	}
}

// Config.Metrics carries the phase series the journal feeds, like the
// registries of citroen -metrics-addr and serve.
func TestMetricsCarryPhaseSeconds(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	c.Budget = 4
	c.Metrics = obs.NewMetrics()
	if err := ByID("fig5.12").Run(c); err != nil {
		t.Fatal(err)
	}
	if v := c.Metrics.Gauge(`citroen_phase_seconds{phase="compile"}`).Value(); v <= 0 {
		t.Fatalf(`citroen_phase_seconds{phase="compile"} = %v, want > 0`, v)
	}
}

// Every arm of a sweep sees the same (benchmark, seed) cells in the same
// order, seeds Seed .. Seed+Repeats-1 within each benchmark, each on an
// evaluator of its own, and gets its traces back in cell order.
func TestSweepPairsArmsBySeed(t *testing.T) {
	type call struct {
		arm     int
		modules string
		seed    int64
		budget  int
		fresh   bool // no compile had run on the evaluator yet
	}
	var log []call
	recording := func(i int) arm {
		return arm{fmt.Sprint("arm", i), func(task core.Task, budget int, seed int64) ([]float64, error) {
			fresh := task.(core.CounterReporter).Counters().Get("pipeline_runs") == 0
			log = append(log, call{i, strings.Join(task.Modules(), ","), seed, budget, fresh})
			// Leave a mark a later run on the same evaluator would see.
			if _, _, err := task.CompileModule(context.Background(), task.Modules()[0], []string{"mem2reg"}); err != nil {
				return nil, err
			}
			return []float64{float64(len(log))}, nil
		}}
	}
	c := DefaultConfig(io.Discard)
	c.Seed, c.Repeats = 5, 2
	arms := []arm{recording(0), recording(1), recording(2)}
	benchmarks := []string{"telecom_gsm", "office_stringsearch"}
	traces, err := c.sweep(arms, benchmarks, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != len(arms)*len(benchmarks)*c.Repeats {
		t.Fatalf("%d runs, want %d", len(log), len(arms)*len(benchmarks)*c.Repeats)
	}
	for i, got := range log {
		cell, a := i/len(arms), i%len(arms)
		b := bench.ByName(benchmarks[cell/c.Repeats])
		want := call{a, strings.Join(b.ModuleNames(), ","), c.Seed + int64(cell%c.Repeats), 7, true}
		if got != want {
			t.Errorf("run %d = %+v, want %+v", i, got, want)
		}
		if tr := traces[a][cell]; len(tr) != 1 || tr[0] != float64(i+1) {
			t.Errorf("traces[%d][%d] = %v, want run %d's trace", a, cell, tr, i)
		}
	}
	if _, err := c.sweep(arms, []string{"no_such_benchmark"}, 7); err == nil {
		t.Error("sweep over an unknown benchmark did not fail")
	}
}

// A trace read before its first measurement is -O3, and one read past its
// end keeps its final value: Fig 5.7 reads budget/3, which is 0 below 3.
func TestTraceAtBounds(t *testing.T) {
	trace := []float64{1.1, 1.2, 1.5}
	for _, tc := range []struct {
		trace  []float64
		budget int
		want   float64
	}{{trace, 0, 1}, {trace, 2, 1.2}, {trace, 9, 1.5}, {nil, 4, 1}} {
		if got := traceAt(tc.trace, tc.budget); got != tc.want {
			t.Errorf("traceAt(%v, %d) = %v, want %v", tc.trace, tc.budget, got, tc.want)
		}
	}
}
