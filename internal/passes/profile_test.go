package passes

import (
	"reflect"
	"testing"
)

// A profiled Manager must attribute stats deltas exactly: the profile's
// summed deltas and the cumulative Stats handed to the caller must both equal
// the stats of an unprofiled run of the same pipeline.
func TestProfileExactAttribution(t *testing.T) {
	seq := O3Sequence()

	plain := Stats{}
	if err := NewManager().Run(dotProductModule(), seq, plain, false); err != nil {
		t.Fatal(err)
	}

	prof := NewProfile()
	observed := Stats{}
	if err := (&Manager{Obs: prof}).Run(dotProductModule(), seq, observed, false); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observed run changed cumulative stats:\nplain:    %v\nobserved: %v", plain, observed)
	}

	costs := prof.Costs()
	summed := Stats{}
	invocations := 0
	for _, c := range costs {
		summed.Merge(c.Delta)
		invocations += c.Invocations
		if c.Fired > c.Invocations {
			t.Fatalf("pass %s fired %d > invocations %d", c.Name, c.Fired, c.Invocations)
		}
		if c.Fired == 0 && c.DeltaTotal() != 0 {
			t.Fatalf("pass %s has deltas but never fired", c.Name)
		}
	}
	if !reflect.DeepEqual(summed, plain) {
		t.Fatalf("per-pass deltas do not sum to the pipeline total:\nsum:   %v\ntotal: %v", summed, plain)
	}
	if invocations != len(seq) {
		t.Fatalf("profiled %d invocations, pipeline has %d passes", invocations, len(seq))
	}
}

// Costs must order deterministically (delta desc, invocations desc, name) and
// return deep copies that later profiling cannot mutate.
func TestProfileCostsDeterministicAndCopied(t *testing.T) {
	prof := NewProfile()
	st := Stats{}
	if err := (&Manager{Obs: prof}).Run(dotProductModule(), O3Sequence(), st, false); err != nil {
		t.Fatal(err)
	}
	a, b := prof.Costs(), prof.Costs()
	// Wall times vary between identical calls only if profiling re-ran;
	// the two snapshots of one profile must agree exactly.
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Costs snapshots of the same profile differ")
	}
	for i := 1; i < len(a); i++ {
		di, dj := a[i-1].DeltaTotal(), a[i].DeltaTotal()
		if di < dj {
			t.Fatalf("costs not sorted by delta: %s(%d) before %s(%d)", a[i-1].Name, di, a[i].Name, dj)
		}
		if di == dj && a[i-1].Invocations == a[i].Invocations && a[i-1].Name >= a[i].Name {
			t.Fatalf("tie not broken by name: %s before %s", a[i-1].Name, a[i].Name)
		}
	}
	// Mutating a snapshot's delta map must not leak into the profile.
	if len(a) > 0 {
		a[0].Delta.Add("poison", 1)
		if c := prof.Costs(); c[0].Delta["poison"] != 0 {
			t.Fatal("Costs returned a shared Delta map")
		}
	}
}

func TestTopByWall(t *testing.T) {
	costs := []PassCost{
		{Name: "a", Wall: 10},
		{Name: "c", Wall: 30},
		{Name: "b", Wall: 30},
		{Name: "d", Wall: 5},
	}
	top := TopByWall(costs, 2)
	if len(top) != 2 || top[0].Name != "b" || top[1].Name != "c" {
		t.Fatalf("top = %+v", top)
	}
	// Input order untouched.
	if costs[0].Name != "a" {
		t.Fatal("TopByWall mutated its input")
	}
}
