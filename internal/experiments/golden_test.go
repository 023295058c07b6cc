package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

// -update rewrites testdata/ch5_b8_gsm.golden from this build. Only a change
// that deliberately moves tuning trajectories (a new surrogate schedule, a
// pass rewrite that changes what a sequence compiles to) regenerates it;
// a refactor of the drivers must leave it byte-identical.
var updateGolden = flag.Bool("update", false, "rewrite testdata/ch5_b8_gsm.golden from this build")

const goldenPath = "testdata/ch5_b8_gsm.golden"

// goldenIDs are the comparisons of Chapter 5 plus the adaptive-allocation
// experiment: every driver whose numbers come from more than one tuning run.
var goldenIDs = []string{"fig5.6", "fig5.7", "fig5.8", "fig5.9", "fig5.10", "fig5.11", "adaptive"}

// The seven experiments print exactly what
//
//	experiments -run <id> -budget 8 -benchmarks telecom_gsm -workers 2
//
// printed when the file was captured, framed as the CLI frames them.
func TestChapter5OutputGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range goldenIDs {
		var out bytes.Buffer
		c := DefaultConfig(&out)
		c.Budget = 8
		c.Benchmarks = []string{"telecom_gsm"}
		c.Workers = 2
		if err := ByID(id).Run(c); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(&got, "==================== %s ====================\n%s\n", id, out.Bytes())
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from %s (rerun with -update only for a deliberate trajectory change):\n%s", goldenPath, got.Bytes())
	}
}
