package ir_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/passes"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.json from this build")

// TestGoldenFingerprints pins the value of Module.Fingerprint for every
// CBench / SPEC module, pristine and after -O3, on both datasets and both
// platforms' vector widths. Nothing on the tuning path hashes any more: the
// prefix cache shares or clones a snapshot on ir.StructurallyEqual, so a new
// hash function alone would move no tuning result. The fixture stays pinned
// as the oracle of what the comparison sees: the two share the encoding, the
// oracle tests hold the comparison to fingerprint equality, and a change of
// the encoding would move clone points, which decide slice capacities and so
// tuning results. The file was generated at 5d6e447, before Fingerprint
// indexed by Instr.ID; regenerate it (-update) only with a deliberate
// re-baseline.
func TestGoldenFingerprints(t *testing.T) {
	const path = "testdata/fingerprints.json"
	got := map[string]string{}
	for _, b := range append(bench.CBench(), bench.SPEC()...) {
		for _, plat := range []bench.Platform{bench.ARM(), bench.X86()} {
			for ds := 0; ds < 2; ds++ {
				for _, m := range b.Build(ds, plat.Prof.VecWidth64) {
					key := fmt.Sprintf("%s/%s/%s/ds%d", b.Name, m.Name, plat.Name, ds)
					got[key+"/pristine"] = fmt.Sprintf("%016x", m.Fingerprint())
					if err := passes.ApplyLevel(m, "O3", passes.Stats{}); err != nil {
						t.Fatalf("%s: O3: %v", key, err)
					}
					got[key+"/O3"] = fmt.Sprintf("%016x", m.Fingerprint())
				}
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d fingerprints computed, %d in %s", len(got), len(want), path)
	}
	for key, w := range want {
		if g := got[key]; g != w {
			t.Errorf("%s: fingerprint %s, golden %s", key, g, w)
		}
	}
}
