package analyze

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// The worker-count determinism contract as a one-call check: 1-worker and
// 8-worker runs of the same seed diff clean; any canonical mutation is
// caught with a precise first-mismatch report.
func TestDiffWorkerDeterminism(t *testing.T) {
	ev1, _ := runJournal(t, 1, 5, 7)
	ev8, _ := runJournal(t, 8, 5, 7)
	if m := Diff(ev1, ev8); m != nil {
		t.Fatalf("1-vs-8-worker journals must be canonically identical, got: %s", m)
	}

	// A timing-only difference is canonical noise: forcing every wall_ns
	// apart must still diff clean.
	perturbed := append([]obs.Event(nil), ev8...)
	for i := range perturbed {
		perturbed[i].TimeNS += 12345
		if v, ok := perturbed[i].Fields["wall_ns"]; ok {
			perturbed[i].Fields = cloneFields(perturbed[i].Fields)
			perturbed[i].Fields["wall_ns"] = obs.FieldFloat(map[string]any{"w": v}, "w") + 999
		}
	}
	if m := Diff(ev1, perturbed); m != nil {
		t.Fatalf("timing-only perturbation must diff clean, got: %s", m)
	}
}

func TestDiffDetectsMutations(t *testing.T) {
	ev, _ := runJournal(t, 1, 4, 9)

	// Mutate a canonical field of a mid-journal event.
	mutated := append([]obs.Event(nil), ev...)
	for i := range mutated {
		if mutated[i].Type == "measure" {
			mutated[i].Fields = cloneFields(mutated[i].Fields)
			mutated[i].Fields["speedup"] = 99.0
			m := Diff(ev, mutated)
			if m == nil {
				t.Fatal("mutated speedup must not diff clean")
			}
			if m.Index != i || !strings.Contains(m.Reason, "fields") {
				t.Fatalf("mismatch = %+v, want fields mismatch at %d", m, i)
			}
			break
		}
	}

	// A truncated journal reports the length difference.
	if m := Diff(ev, ev[:len(ev)-1]); m == nil || !strings.Contains(m.Reason, "counts differ") {
		t.Fatalf("truncated journal: %v", m)
	}

	// A reordered type mismatches on type.
	swapped := append([]obs.Event(nil), ev...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	m := Diff(ev, swapped)
	if m == nil || m.Index != 0 {
		t.Fatalf("swapped events: %+v", m)
	}
}

// Journals re-read from disk decode numbers as float64; the diff must treat
// them as identical to the in-memory int-typed originals.
func TestDiffIntFloatInsensitive(t *testing.T) {
	a := []obs.Event{{Seq: 1, Type: "x", Fields: map[string]any{"n": int(5), "h": uint64(7)}}}
	b := []obs.Event{{Seq: 1, Type: "x", Fields: map[string]any{"n": float64(5), "h": float64(7)}}}
	if m := Diff(a, b); m != nil {
		t.Fatalf("int-vs-float journals must diff clean: %s", m)
	}
}

func cloneFields(f map[string]any) map[string]any {
	out := make(map[string]any, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}
