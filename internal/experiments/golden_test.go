package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

// -update rewrites the golden file of every golden test that runs from this
// build. Only a change that deliberately moves tuning trajectories (a new
// surrogate schedule, a pass rewrite that changes what a sequence compiles
// to) regenerates one; a refactor of the drivers or of the surrogate must
// leave both byte-identical.
var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files of the golden tests that run")

// checkOutputGolden runs the experiments ids under c's settings (a fresh
// output buffer each), frames their output as the CLI frames it, and compares
// the whole against the golden file at path.
func checkOutputGolden(t *testing.T, path string, ids []string, set func(*Config)) {
	t.Helper()
	var got bytes.Buffer
	for _, id := range ids {
		var out bytes.Buffer
		c := DefaultConfig(&out)
		set(&c)
		if err := ByID(id).Run(c); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(&got, "==================== %s ====================\n%s\n", id, out.Bytes())
	}
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from %s (rerun with -update only for a deliberate trajectory change):\n%s", path, got.Bytes())
	}
}

// The comparisons of Chapter 5 plus the adaptive-allocation experiment —
// every driver whose numbers come from more than one tuning run — print
// exactly what
//
//	experiments -run <id> -budget 8 -benchmarks telecom_gsm -workers 2
//
// printed when testdata/ch5_b8_gsm.golden was captured.
func TestChapter5OutputGolden(t *testing.T) {
	ids := []string{"fig5.6", "fig5.7", "fig5.8", "fig5.9", "fig5.10", "fig5.11", "adaptive"}
	checkOutputGolden(t, "testdata/ch5_b8_gsm.golden", ids, func(c *Config) {
		c.Budget = 8
		c.Benchmarks = []string{"telecom_gsm"}
		c.Workers = 2
	})
}

// The deterministic Chapter 4 runs — AIBO's acquisition-gradient ascent
// (UCB and EI), its batched screening and the AIBO/TuRBO surrogate refits —
// print exactly what
//
//	experiments -run <id> -budget 8 -scale 0.25 -workers 2
//
// printed when testdata/ch4_b8_s025.golden was captured.
func TestChapter4OutputGolden(t *testing.T) {
	ids := []string{"fig4.3", "fig4.4", "fig4.5", "fig4.7", "fig4.15"}
	checkOutputGolden(t, "testdata/ch4_b8_s025.golden", ids, func(c *Config) {
		c.Budget = 8
		c.Scale = 0.25
		c.Workers = 2
	})
}
