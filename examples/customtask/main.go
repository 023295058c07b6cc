// Customtask: drive CITROEN with a user-defined Task (§5.3.6) — here a
// hand-built IR program compiled and executed directly on the simulated
// machine, the way a user would plug their own build-and-measure pipeline
// into the framework without rewriting the search.
//
//	go run ./examples/customtask
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
)

// buildProgram constructs the user's module: a saturating accumulator over a
// byte stream (frontend-style IR, as a real frontend would emit).
func buildProgram() *ir.Module {
	m := &ir.Module{Name: "user", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	data := bd.AddGlobal("data", ir.I8T, 256)
	data.InitI = make([]int64, 256)
	for i := range data.InitI {
		data.InitI[i] = int64((i*37 + 11) % 251)
	}
	bd.NewFunction("main", ir.VoidT)
	acc := bd.Alloca(ir.I64T, 1)
	i := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), acc)
	bd.Store(ir.ConstInt(ir.I64T, 0), i)
	h := bd.NewBlock("h")
	b := bd.NewBlock("b")
	e := bd.NewBlock("e")
	bd.Jmp(h)
	bd.SetBlock(h)
	iv := bd.Load(ir.I64T, i)
	bd.Br(bd.ICmp(ir.CmpSLT, iv, ir.ConstInt(ir.I64T, 256)), b, e)
	bd.SetBlock(b)
	i2 := bd.Load(ir.I64T, i)
	x := bd.Load(ir.I8T, bd.GEP(data, i2))
	wide := bd.Cast(ir.OpZExt, x, ir.I64T)
	a := bd.Load(ir.I64T, acc)
	sum := bd.Bin(ir.OpAdd, a, wide)
	capped := bd.Call("sim.min.i64", ir.I64T, sum, ir.ConstInt(ir.I64T, 10000))
	bd.Store(capped, acc)
	bd.Store(bd.Bin(ir.OpAdd, i2, ir.ConstInt(ir.I64T, 1)), i)
	bd.Jmp(h)
	bd.SetBlock(e)
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, acc))
	bd.Ret(nil)
	return m
}

func main() {
	mach := machine.New(machine.CortexA57())
	pristine := buildProgram()

	compile := func(seq []string) (*ir.Module, passes.Stats, error) {
		m := pristine.Clone()
		st := passes.Stats{}
		if seq == nil {
			seq = passes.O3Sequence()
		}
		err := passes.NewManager().Run(m, seq, st, false)
		return m, st, err
	}
	refImg, err := machine.Link(pristine.Clone())
	if err != nil {
		log.Fatal(err)
	}
	ref, err := mach.Run(refImg, "main")
	if err != nil {
		log.Fatal(err)
	}
	measure := func(seqs map[string][]string) (float64, error) {
		m, _, err := compile(seqs["user"])
		if err != nil {
			return 0, err
		}
		img, err := machine.Link(m)
		if err != nil {
			return 0, err
		}
		res, err := mach.Run(img, "main")
		if err != nil {
			return 0, err
		}
		// The user's own differential test.
		if err := machine.OutputsMatch(ref.Output, res.Output, 1e-6); err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}

	mO3, _, err := compile(nil)
	if err != nil {
		log.Fatal(err)
	}
	imgO3, _ := machine.Link(mO3)
	resO3, err := mach.Run(imgO3, "main")
	if err != nil {
		log.Fatal(err)
	}
	baseline := resO3.Cycles
	fmt.Printf("custom program: -O3 baseline %.0f cycles\n", baseline)

	task := &core.BenchTask{
		ModulesFn: func() []string { return []string{"user"} },
		CompileFn: func(_ context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error) {
			return compile(seq)
		},
		MeasureFn: func(_ context.Context, seqs map[string][]string) (float64, error) {
			return measure(seqs)
		},
		BaselineFn: func() float64 { return baseline },
		HotFn:      func(float64) ([]string, error) { return []string{"user"}, nil },
	}

	opts := core.DefaultOptions()
	opts.Budget = 30
	res, err := core.NewTuner(task, opts, 5).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best speedup %.3fx with sequence:\n  %s\n",
		res.BestSpeedup, strings.Join(res.BestSeqs["user"], ","))
}
