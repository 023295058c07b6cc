package bench

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/passes"
)

// stubPass swaps the body of a registered pass for the test's duration. dce is
// not part of the O3 pipeline, so baselines and hot-module profiling never
// run the stub.
func stubPass(t *testing.T, run func(m *ir.Module, st passes.Stats)) string {
	t.Helper()
	p := passes.Lookup("dce")
	orig := p.Run
	p.Run = run
	t.Cleanup(func() { p.Run = orig })
	return p.Name
}

// danglingBranch points one branch of every defined function at a block that
// is not in the function — what a buggy CFG pass leaves behind. A slab copy
// of the function (COW materialization, the cache's compaction of a final
// state) panics on it; the verifier reports it.
func danglingBranch(m *ir.Module, _ passes.Stats) {
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		for _, b := range f.Blocks {
			if t := b.Term(); t != nil && len(t.Blocks) > 0 {
				t.Blocks[0] = &ir.Block{Name: "dangling"}
				break
			}
		}
	}
}

// A candidate whose compile panics inside a pass, or whose final state is IR
// the cache's compaction would panic on, must come back as a rejected
// candidate (an error carrying the panic text or the verifier's, for the
// leader and for followers of the same flight), cache nothing, and leave the
// evaluator and a tuning run over it working.
func TestPanickingCompileIsRejectedNotFatal(t *testing.T) {
	cases := []struct {
		name      string
		configure func(ev *Evaluator)
		stub      func(m *ir.Module, st passes.Stats)
		want      string
	}{
		// The stub is the last pass: the final state's compaction would panic
		// in ir's clone, so the verifier must see it first.
		{"final compaction", func(*Evaluator) {}, danglingBranch, "IR invalid after sequence: ir: function"},
		{"pass, uncached path", func(ev *Evaluator) { ev.CacheCap = -1 },
			func(*ir.Module, passes.Stats) { panic("stub pass exploded") }, "stub pass exploded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := NewEvaluator(ByName("automotive_bitcount"), ARM(), 1)
			if err != nil {
				t.Fatal(err)
			}
			tc.configure(ev)
			bad := []string{"mem2reg", "instcombine", "simplifycfg", stubPass(t, tc.stub)}
			_, _, bytesBefore, _ := ev.PrefixCounters()

			var wg sync.WaitGroup
			errs := make([]error, 4)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _, errs[i] = ev.CompileModuleCtx(context.Background(), "bitcnt", bad)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("request %d: err = %v, want one carrying %q", i, err, tc.want)
				}
			}
			if _, _, bytesAfter, _ := ev.PrefixCounters(); bytesAfter != bytesBefore {
				t.Fatalf("failed build was cached: %d -> %d bytes", bytesBefore, bytesAfter)
			}
			if _, _, err := ev.CompileModuleCtx(context.Background(), "bitcnt", []string{"mem2reg", "instcombine"}); err != nil {
				t.Fatalf("evaluator unusable after a rejected candidate: %v", err)
			}

			// The stub is in the default vocabulary: a tuning run proposes it.
			opts := core.DefaultOptions()
			opts.Budget, opts.Lambda, opts.InitRandom, opts.Workers = 6, 6, 3, 2
			opts.GPOpts.AdamSteps = 10
			res, err := core.NewTuner(ev.Task(), opts, 2).Run()
			if err != nil || len(res.Trace) == 0 {
				t.Fatalf("tuning run did not survive panicking candidates: res=%v err=%v", res, err)
			}
		})
	}
}
