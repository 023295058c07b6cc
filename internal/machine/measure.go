package machine

import (
	"fmt"
	"math"
	"math/rand"
)

// Measurement wraps execution with the noise model of a real timing run:
// modelled cycles are perturbed multiplicatively, mirroring OS jitter and
// thermal variance on the paper's evaluation platforms.
type Measurement struct {
	Machine  *Machine
	NoiseStd float64 // relative std-dev of one timing run (paper-style ~0.5-1%)
	Rng      *rand.Rand
	// OnSample, when set, observes every timing sample's noisy modelled cycle
	// count. The hook is how the observability layer sees samples without the
	// machine depending on it.
	OnSample func(cycles float64)
}

// NewMeasurement returns a measurement harness with the given noise level.
func NewMeasurement(m *Machine, noiseStd float64, seed int64) *Measurement {
	return &Measurement{Machine: m, NoiseStd: noiseStd, Rng: rand.New(rand.NewSource(seed))}
}

// sample draws one noisy timing of a run that took the given clean cycles.
func (ms *Measurement) sample(cycles float64) float64 {
	noise := 1 + ms.NoiseStd*ms.Rng.NormFloat64()
	if noise < 0.5 {
		noise = 0.5
	}
	t := cycles * noise
	if ms.OnSample != nil {
		ms.OnSample(t)
	}
	return t
}

// TimeOnce runs entry once and returns one noisy time sample plus the clean
// result (for output comparison).
func (ms *Measurement) TimeOnce(img *Image, entry string, args ...Val) (float64, *Result, error) {
	res, err := ms.Machine.Run(img, entry, args...)
	if err != nil {
		return 0, nil, err
	}
	return ms.sample(res.Cycles), res, nil
}

// TimeMedian returns the median of `runs` noisy timings of entry, following
// the paper's repeated-measurement protocol, plus the clean result. The
// machine is deterministic — repeated runs of one image differ only in their
// noise draw — so the image executes once and the samples are `runs` draws
// over that run's cycle count (MedianOf): bit for bit what `runs` TimeOnce
// calls and medianIndex give, RNG stream included. A failed run draws
// nothing. The caller owns the result (release it with ReleaseResult when
// done).
func (ms *Measurement) TimeMedian(img *Image, entry string, runs int, args ...Val) (float64, *Result, error) {
	res, err := ms.Machine.Run(img, entry, args...)
	if err != nil {
		return 0, nil, err
	}
	return ms.MedianOf(res.Cycles, runs), res, nil
}

// MedianOf is the noise half of TimeMedian: the median of `runs` samples
// drawn over a run that took the given clean cycles. Machine.Run is the
// deterministic half and safe to call concurrently; the draws share Rng and
// stay on one goroutine.
func (ms *Measurement) MedianOf(cycles float64, runs int) float64 {
	if runs < 1 {
		runs = 1
	}
	samples := make([]float64, runs)
	for i := range samples {
		samples[i] = ms.sample(cycles)
	}
	med, _ := medianIndex(samples, make([]int, runs))
	return med
}

// medianIndex returns the median of v (mean of the two middle samples for
// even lengths) and the index in v of the middle sample (the lower middle
// for even lengths). v is not modified; order is caller-provided scratch of
// the same length.
func medianIndex(v []float64, order []int) (float64, int) {
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && v[order[j]] < v[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	n := len(order)
	if n%2 == 1 {
		return v[order[n/2]], order[n/2]
	}
	return (v[order[n/2-1]] + v[order[n/2]]) / 2, order[n/2-1]
}

// OutputsMatch compares two output streams with a relative tolerance for
// floating values, since reassociating transforms (vectorised reductions)
// legitimately change rounding, mirroring fast-math differential testing.
func OutputsMatch(a, b []OutputEvent, relTol float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("machine: output length mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].IsFloat != b[i].IsFloat {
			return fmt.Errorf("machine: output %d kind mismatch", i)
		}
		if a[i].IsFloat {
			diff := math.Abs(a[i].F - b[i].F)
			scale := math.Max(1, math.Max(math.Abs(a[i].F), math.Abs(b[i].F)))
			if diff > relTol*scale {
				return fmt.Errorf("machine: output %d differs: %g vs %g", i, a[i].F, b[i].F)
			}
		} else if a[i].I != b[i].I {
			return fmt.Errorf("machine: output %d differs: %d vs %d", i, a[i].I, b[i].I)
		}
	}
	return nil
}
