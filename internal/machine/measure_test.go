package machine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/ir"
)

func TestMedianIndex(t *testing.T) {
	cases := []struct {
		v    []float64
		med  float64
		idx  int
		name string
	}{
		{[]float64{7}, 7, 0, "single"},
		{[]float64{3, 1, 2}, 2, 2, "odd"},
		{[]float64{4, 1, 3, 2}, 2.5, 3, "even picks lower middle"},
		{[]float64{5, 4, 3, 2, 1}, 3, 2, "descending"},
	}
	for _, c := range cases {
		med, idx := medianIndex(c.v, make([]int, len(c.v)))
		if med != c.med || idx != c.idx {
			t.Fatalf("%s: medianIndex(%v) = (%v, %d), want (%v, %d)",
				c.name, c.v, med, idx, c.med, c.idx)
		}
	}
	// The input must not be reordered.
	v := []float64{3, 1, 2}
	medianIndex(v, make([]int, len(v)))
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Fatalf("input mutated: %v", v)
	}
}

// TestTimeMedianMatchesRepeatedRuns: TimeMedian executes the image once, yet
// its time, its Result, its OnSample calls and the state it leaves the RNG in
// are bit for bit those of the oracle it replaced — `runs` TimeOnce calls on a
// same-seeded Measurement, then medianIndex. A noise level of 0.9 exercises
// the clamp at 0.5.
func TestTimeMedianMatchesRepeatedRuns(t *testing.T) {
	fibA, fibB := buildFibModules()
	for name, mods := range map[string][]*ir.Module{
		"sum": {buildSumProgram(32)},
		"phi": {buildPhiLoop()},
		"fib": {fibA, fibB},
	} {
		img, err := Link(mods...)
		if err != nil {
			t.Fatal(err)
		}
		for _, noise := range []float64{0.02, 0.9} {
			for _, runs := range []int{1, 2, 3, 5} {
				oracle := NewMeasurement(New(CortexA57()), noise, 99)
				var wantSamples []float64
				var wantRes []*Result
				for i := 0; i < runs; i++ {
					s, r, err := oracle.TimeOnce(img, "main")
					if err != nil {
						t.Fatal(err)
					}
					wantSamples, wantRes = append(wantSamples, s), append(wantRes, r)
				}
				wantMed, idx := medianIndex(wantSamples, make([]int, runs))

				ms := NewMeasurement(New(CortexA57()), noise, 99)
				var gotSamples []float64
				ms.OnSample = func(c float64) { gotSamples = append(gotSamples, c) }
				med, res, err := ms.TimeMedian(img, "main", runs)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("%s noise=%v runs=%d", name, noise, runs)
				if math.Float64bits(med) != math.Float64bits(wantMed) {
					t.Fatalf("%s: median %v, oracle %v (samples %v)", tag, med, wantMed, wantSamples)
				}
				if !resultsEqual(res, wantRes[idx]) {
					t.Fatalf("%s: result %+v, oracle's median run %+v", tag, res, wantRes[idx])
				}
				if !reflect.DeepEqual(gotSamples, wantSamples) {
					t.Fatalf("%s: OnSample saw %v, oracle samples %v", tag, gotSamples, wantSamples)
				}
				if st := ms.Machine.BcCounters(); st.CodeMisses+st.CodeHits != 1 {
					t.Fatalf("%s: image executed %d times", tag, st.CodeMisses+st.CodeHits)
				}
				if got, want := ms.Rng.NormFloat64(), oracle.Rng.NormFloat64(); got != want {
					t.Fatalf("%s: RNG streams diverge after the measurement: next draw %v, oracle %v", tag, got, want)
				}
			}
		}
	}
}

// TestTimeMedianFailedRunDrawsNothing: a run that fails consumes no noise
// draw, as the first failing TimeOnce of the old loop did not.
func TestTimeMedianFailedRunDrawsNothing(t *testing.T) {
	img, err := Link(buildSumProgram(32))
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasurement(New(CortexA57()), 0.02, 7)
	if _, _, err := ms.TimeMedian(img, "no_such_entry", 3); !errors.Is(err, ErrNoFunction) {
		t.Fatalf("err = %v, want ErrNoFunction", err)
	}
	if got, want := ms.Rng.NormFloat64(), NewMeasurement(nil, 0, 7).Rng.NormFloat64(); got != want {
		t.Fatalf("failed measurement advanced the RNG: next draw %v, fresh stream %v", got, want)
	}
}
