package main

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/numeric"
	"repro/internal/passes"
)

// probeSamples is how many recorded (module, sequence) pairs the layer probe
// replays. Medians over 64 repeat to a few percent; the slowest sequences
// cost tens of milliseconds each, so the probe stays near a second.
const probeSamples = 64

type probeResult struct {
	values  map[string]float64
	skipped int // samples whose sequence the verifier rejected
}

// probeLayers calls each layer's public functions directly on a seeded
// sample of what the tuning runs compiled, one layer at a time and with
// nothing cached, so a layer's cost is known apart from the caches in front
// of it.
func probeLayers(tr *tracer, root int, w *workload, seed int64, recorded []compiled) *probeResult {
	id := tr.begin("probe", root, -1)
	defer tr.end(id)
	prog, plat := w.prog(), w.plat()
	vw := plat.Prof.VecWidth64

	t0 := time.Now()
	pristine := prog.Build(0, vw)
	for ds := 1; ds < len(goldenDatasets); ds++ {
		prog.Build(ds, vw)
	}
	build := time.Since(t0)
	byName := map[string]*ir.Module{}
	for _, m := range pristine {
		ir.CompactModule(m) // as the evaluator stores them
		byName[m.Name] = m
	}

	// Compile workers record in completion order; sort so that the sample is
	// a function of the seed alone.
	recorded = append([]compiled(nil), recorded...)
	sort.Slice(recorded, func(i, j int) bool {
		a, b := recorded[i], recorded[j]
		if a.module != b.module {
			return a.module < b.module
		}
		return strings.Join(a.seq, ",") < strings.Join(b.seq, ",")
	})
	rng := rand.New(rand.NewSource(seed))
	n := probeSamples
	if len(recorded) < n {
		n = len(recorded)
	}
	// samples of each layer's cost, keyed by metric name
	obs := map[string][]float64{}
	timed := func(name string, unit time.Duration, f func() error) error {
		t := time.Now()
		err := f()
		obs[name] = append(obs[name], float64(time.Since(t))/float64(unit))
		return err
	}
	// one replays a recorded compile layer by layer and stops at the first
	// layer that rejects it, as the evaluator would.
	one := func(rec compiled) error {
		seq := rec.seq
		if seq == nil {
			seq = passes.O3Sequence()
		}
		var c *ir.Module
		timed("ir.clone_us", time.Microsecond, func() error { c = byName[rec.module].Clone(); return nil })
		timed("ir.materialize_us", time.Microsecond, func() error { ir.MaterializeModule(c); return nil })
		if err := timed("passes.uncached_seq_ms", time.Millisecond, func() error {
			return passes.NewManager().Run(c, seq, passes.Stats{}, false)
		}); err != nil {
			return err
		}
		obs["passes.ir_instrs_after"] = append(obs["passes.ir_instrs_after"], float64(c.NumInstrs()))
		timed("ir.fingerprint_us", time.Microsecond, func() error { c.Fingerprint(); return nil })
		if err := timed("ir.verify_us", time.Microsecond, func() error { return ir.Verify(c) }); err != nil {
			return err
		}

		mods := make([]*ir.Module, len(pristine))
		for k, m := range pristine {
			if m.Name == rec.module {
				mods[k] = c
			} else {
				mods[k] = m.Clone()
			}
		}
		var img *machine.Image
		if err := timed("machine.link_us", time.Microsecond, func() (err error) { img, err = machine.Link(mods...); return }); err != nil {
			return err
		}
		run := func(name string, mach *machine.Machine) (steps int64, err error) {
			err = timed(name, time.Microsecond, func() error {
				r, err := mach.Run(img, "main")
				if err != nil { // a candidate that traps
					return err
				}
				steps = r.Steps
				machine.ReleaseResult(r)
				return nil
			})
			return steps, err
		}
		mach := machine.New(plat.Prof)
		if _, err := run("machine.lower_run_us", mach); err != nil { // first run lowers to bytecode
			return err
		}
		steps, err := run("machine.run_us", mach)
		if err != nil {
			return err
		}
		warm := obs["machine.run_us"]
		obs["machine.steps_per_s"] = append(obs["machine.steps_per_s"], float64(steps)/(warm[len(warm)-1]/1e6))
		walker := machine.New(plat.Prof)
		walker.TreeWalk = true
		_, err = run("machine.treewalk_run_us", walker)
		return err
	}
	res := &probeResult{values: map[string]float64{"irgen.build_s": build.Seconds()}}
	for _, i := range rng.Perm(len(recorded))[:n] {
		if err := one(recorded[i]); err != nil {
			res.skipped++
		}
	}
	for name, v := range obs {
		res.values[name] = numeric.Median(v)
	}
	return res
}
