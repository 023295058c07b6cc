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
// through every step of gp.Update: full refits, Appends in between, and —
// for TuRBO, whose window (MaxGPHistory) is smaller than the budget — frozen
// refits of a window that slid at constant length. The digests were recorded
// with one Adam run per fit, the shape every run fits with; a change that
// moves one has changed a trajectory.
func TestSurrogateUpdateGolden(t *testing.T) {
	f := synth.Ackley()
	b := boxFor(f, 5)

	ao := fastOpts()
	ao.GPOpts.AdamSteps = 15
	ao.RefitEvery = 3
	ao.Workers = 2

	to := DefaultTuRBOOptions()
	to.InitSamples = 10
	to.Candidates = 60
	to.GPOpts.AdamSteps = 15
	to.RefitEvery = 3
	to.MaxGPHistory = 18
	to.Workers = 2

	want := map[string]string{
		"aibo/seed1":  "f30b8eef39d5a956",
		"aibo/seed2":  "b2ece49f944c85f0",
		"aibo/seed3":  "d741dbb08bd2c0b8",
		"turbo/seed1": "ff1efe3747c0a083",
		"turbo/seed2": "4b985e79aafa72c6",
		"turbo/seed3": "3d67882596e6ddba",
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
