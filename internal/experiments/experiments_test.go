package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

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
