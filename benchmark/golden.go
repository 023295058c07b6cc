package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
)

// golden holds, per program and dataset, the output events of the
// unoptimised irgen build run on the tree-walking interpreter. The files are
// committed, so the reference never comes from the pass pipeline, the caches
// or the bytecode engine the benchmark is measuring.
//
//go:embed golden/*.json
var golden embed.FS

// goldenDatasets are the inputs the evaluator differential-tests on.
var goldenDatasets = []int{0, 1}

// outputTolerance is the evaluator's own: reassociating passes legitimately
// change float rounding.
const outputTolerance = 1e-6

func goldenName(program string, dataset int) string {
	return fmt.Sprintf("golden/%s.%d.json", program, dataset)
}

func loadGolden(program string, dataset int) ([]machine.OutputEvent, error) {
	data, err := golden.ReadFile(goldenName(program, dataset))
	if err != nil {
		return nil, err
	}
	var out []machine.OutputEvent
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenName(program, dataset), err)
	}
	return out, nil
}

// runTreeWalk links mods and runs main on the reference interpreter.
func runTreeWalk(plat bench.Platform, mods []*ir.Module) ([]machine.OutputEvent, error) {
	img, err := machine.Link(mods...)
	if err != nil {
		return nil, err
	}
	mach := machine.New(plat.Prof)
	mach.TreeWalk = true
	res, err := mach.Run(img, "main")
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

// checkGolden rebuilds the program under best (missing modules get -O3, as
// in the evaluator) and compares its output with the committed reference on
// every dataset. It returns the number of datasets that did not match.
func checkGolden(prog *bench.Benchmark, plat bench.Platform, best map[string][]string) (bad int, errs []string) {
	for _, ds := range goldenDatasets {
		if err := checkGoldenDataset(prog, plat, best, ds); err != nil {
			bad++
			errs = append(errs, fmt.Sprintf("%s dataset %d: %v", prog.Name, ds, err))
		}
	}
	return bad, errs
}

func checkGoldenDataset(prog *bench.Benchmark, plat bench.Platform, best map[string][]string, ds int) error {
	want, err := loadGolden(prog.Name, ds)
	if err != nil {
		return err
	}
	mods := prog.Build(ds, plat.Prof.VecWidth64)
	for _, m := range mods {
		seq := best[m.Name]
		if seq == nil {
			seq = passes.O3Sequence()
		}
		if err := passes.NewManager().Run(m, seq, passes.Stats{}, false); err != nil {
			return fmt.Errorf("module %s: %w", m.Name, err)
		}
	}
	got, err := runTreeWalk(plat, mods)
	if err != nil {
		return err
	}
	return machine.OutputsMatch(want, got, outputTolerance)
}

// writeGolden regenerates the committed reference files into dir. Only a
// change to irgen's programs or to the interpreter's semantics needs it.
func writeGolden(dir string) error {
	for _, w := range workloads {
		prog, plat := w.prog(), w.plat()
		for _, ds := range goldenDatasets {
			out, err := runTreeWalk(plat, prog.Build(ds, plat.Prof.VecWidth64))
			if err != nil {
				return fmt.Errorf("%s dataset %d: %w", prog.Name, ds, err)
			}
			data, err := json.Marshal(out)
			if err != nil {
				return err
			}
			path := filepath.Join(dir, filepath.Base(goldenName(prog.Name, ds)))
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
