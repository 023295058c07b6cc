package aibo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/synth"
)

// historyDigest hashes every bit of a run's objective history.
func historyDigest(h []float64) string {
	f := fnv.New64a()
	var b [8]byte
	for _, v := range h {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		f.Write(b[:])
	}
	return fmt.Sprintf("%016x", f.Sum64())
}

// TestSurrogateUpdateGolden pins the History bits of AIBO and TuRBO runs
// whose surrogate is refitted every third iteration, so the runs pass
// through every step of gp.Update: full refits that draw restarts from the
// rng, Appends in between, and — for TuRBO, whose window (MaxGPHistory)
// is smaller than the budget — frozen refits of a window that slid at
// constant length. The digests were recorded before the update policy moved
// into gp.Update; a change that moves one has changed a trajectory.
func TestSurrogateUpdateGolden(t *testing.T) {
	f := synth.Ackley()
	b := boxFor(f, 5)

	ao := fastOpts()
	ao.GPOpts.AdamSteps = 15
	ao.GPOpts.Restarts = 2
	ao.RefitEvery = 3
	ao.Workers = 2

	to := DefaultTuRBOOptions()
	to.InitSamples = 10
	to.Candidates = 60
	to.GPOpts.AdamSteps = 15
	to.GPOpts.Restarts = 2
	to.RefitEvery = 3
	to.MaxGPHistory = 18
	to.Workers = 2

	want := map[string]string{
		"aibo/seed1":  "9194182f9cc3582f",
		"aibo/seed2":  "b16b6fd82d0f837f",
		"aibo/seed3":  "f7823184aa0c8d60",
		"turbo/seed1": "f048085ed2a88e4a",
		"turbo/seed2": "6c9a7f159f2c72b7",
		"turbo/seed3": "47058d41cb9cb354",
	}
	for seed := int64(1); seed <= 3; seed++ {
		ar, err := Minimize(f.Eval, b, 30, ao, seed)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := TuRBOMinimize(f.Eval, b, 36, to, seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, h := range map[string][]float64{
			fmt.Sprintf("aibo/seed%d", seed):  ar.History,
			fmt.Sprintf("turbo/seed%d", seed): tr.History,
		} {
			if got := historyDigest(h); got != want[name] {
				t.Errorf("%s: History digest %s, want %s", name, got, want[name])
			}
		}
	}
}
