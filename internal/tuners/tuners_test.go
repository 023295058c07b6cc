package tuners

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/heuristic"
	"repro/internal/ir"
	"repro/internal/passes"
)

// costTask is a cheap synthetic task: cost = weighted static instruction
// count of the compiled module (see core's tests for the same idea).
type costTask struct {
	build func() *ir.Module
	base  float64
}

func newCostTask(t *testing.T) *costTask {
	ct := &costTask{build: buildKernelModule}
	y, err := ct.cost(nil)
	if err != nil {
		t.Fatal(err)
	}
	ct.base = y
	return ct
}

func buildKernelModule() *ir.Module {
	m := &ir.Module{Name: "mod", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("g", ir.I64T, 32)
	g.InitI = make([]int64, 32)
	for i := range g.InitI {
		g.InitI[i] = int64(i)
	}
	bd.NewFunction("main", ir.VoidT)
	acc := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), acc)
	for i := 0; i < 8; i++ {
		x := bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, int64(i))))
		m8 := bd.Bin(ir.OpMul, x, ir.ConstInt(ir.I64T, 8))
		cur := bd.Load(ir.I64T, acc)
		bd.Store(bd.Bin(ir.OpAdd, cur, m8), acc)
	}
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, acc))
	bd.Ret(nil)
	return m
}

func (c *costTask) cost(seq []string) (float64, error) {
	m := c.build()
	var err error
	if seq == nil {
		err = passes.ApplyLevel(m, "O3", passes.Stats{})
	} else {
		err = passes.Apply(m, seq, passes.Stats{}, false)
	}
	if err != nil {
		return 0, err
	}
	cost := 10.0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpLoad {
					cost += 4
				} else if in.Op == ir.OpMul {
					cost += 3
				} else {
					cost++
				}
			}
		}
	}
	return cost, nil
}

func (c *costTask) Modules() []string { return []string{"mod"} }
func (c *costTask) CompileModule(_ context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error) {
	m := c.build()
	st := passes.Stats{}
	var err error
	if seq == nil {
		err = passes.ApplyLevel(m, "O3", st)
	} else {
		err = passes.Apply(m, seq, st, false)
	}
	return m, st, err
}
func (c *costTask) Measure(_ context.Context, seqs map[string][]string) (float64, error) {
	return c.cost(seqs["mod"])
}
func (c *costTask) BaselineTime() float64                { return c.base }
func (c *costTask) HotModules(float64) ([]string, error) { return []string{"mod"}, nil }

func allTuners() []Tuner {
	return []Tuner{Random{}, GA{}, HillClimb{}, Anneal{}, Ensemble{}, BOCA{}}
}

func TestAllTunersRespectBudgetAndTrace(t *testing.T) {
	task := newCostTask(t)
	for _, tn := range allTuners() {
		res, err := tn.Tune(task, 15, 1)
		if err != nil {
			t.Fatalf("%s: %v", tn.Name(), err)
		}
		if len(res.Trace) != 15 {
			t.Fatalf("%s: trace length %d", tn.Name(), len(res.Trace))
		}
		for i := 1; i < len(res.Trace); i++ {
			if res.Trace[i] < res.Trace[i-1]-1e-9 {
				t.Fatalf("%s: trace not monotone", tn.Name())
			}
		}
		if res.BestSpeedup <= 0 {
			t.Fatalf("%s: no speedup recorded", tn.Name())
		}
		if res.Name != tn.Name() {
			t.Fatalf("name mismatch: %s vs %s", res.Name, tn.Name())
		}
	}
}

func TestHillClimbNeverWorseThanO3ForLongRuns(t *testing.T) {
	// HillClimb seeds from the O3 sequence; its incumbent can only improve,
	// so the final configuration must be at least O3-equivalent.
	task := newCostTask(t)
	res, err := HillClimb{}.Tune(task, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestSpeedup < 0.999 {
		t.Fatalf("hill climbing from O3 fell below baseline: %v", res.BestSpeedup)
	}
}

func TestTunersDeterministic(t *testing.T) {
	task := newCostTask(t)
	for _, tn := range allTuners() {
		a, err := tn.Tune(task, 10, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tn.Tune(task, 10, 42)
		if err != nil {
			t.Fatal(err)
		}
		if a.BestSpeedup != b.BestSpeedup {
			t.Fatalf("%s: non-deterministic", tn.Name())
		}
	}
}

func TestIndicesOfRejectsUnknownPass(t *testing.T) {
	vocab := passes.Names()
	if _, err := indicesOf(vocab, []string{"dce", "no-such-pass"}); err == nil {
		t.Fatal("unknown pass name must error, not silently shorten the sequence")
	}
	idx, err := indicesOf(vocab, passes.O3Sequence())
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(passes.O3Sequence()) {
		t.Fatalf("O3 mapped to %d indices, want %d", len(idx), len(passes.O3Sequence()))
	}
}

func TestSubSeedStreamsDistinct(t *testing.T) {
	// The old additive scheme collided at (family 0, i=100) vs (family 1,
	// i=0) etc.; the hashed derivation must keep every stream distinct well
	// past 100 members per family.
	for _, seed := range []int64{0, 1, 42, -7} {
		seen := map[int64]bool{}
		for family := 0; family < 4; family++ {
			for i := 0; i < 300; i++ {
				s := subSeed(seed, family, i)
				if seen[s] {
					t.Fatalf("seed collision at seed=%d family=%d i=%d", seed, family, i)
				}
				seen[s] = true
			}
		}
	}
}

func TestSeqsKeyUnambiguous(t *testing.T) {
	cases := [][2]map[string][]string{
		// Separator inside a pass name vs two passes.
		{{"m": {"a,b"}}, {"m": {"a", "b"}}},
		// nil (O3 baseline) vs empty (zero passes).
		{{"m": nil}, {"m": {}}},
		// Pass list split across module boundary.
		{{"m": {"a"}, "n": {"b"}}, {"m": {"a", "b"}, "n": {}}},
		// Quote-ish characters in names.
		{{`m"`: {"a"}}, {"m": {`"a`}}},
	}
	for _, c := range cases {
		if seqsKey(c[0]) == seqsKey(c[1]) {
			t.Fatalf("key collision: %v vs %v -> %q", c[0], c[1], seqsKey(c[0]))
		}
	}
	if seqsKey(map[string][]string{"m": {"a"}, "n": {"b"}}) !=
		seqsKey(map[string][]string{"n": {"b"}, "m": {"a"}}) {
		t.Fatal("key depends on map iteration order")
	}
}

// countingTask counts Measure calls so the memoisation is observable.
type countingTask struct {
	*costTask
	measures int
}

func (c *countingTask) Measure(ctx context.Context, seqs map[string][]string) (float64, error) {
	c.measures++
	return c.costTask.Measure(ctx, seqs)
}

// hotErrTask is a costTask whose HotModules fails.
type hotErrTask struct{ *costTask }

var errNoProfile = errors.New("no baseline profile")

func (hotErrTask) HotModules(float64) ([]string, error) { return nil, errNoProfile }

// A HotModules error fails the run, as it fails core.Tuner's, instead of
// quietly tuning every module.
func TestHotModulesErrorFailsTune(t *testing.T) {
	task := hotErrTask{newCostTask(t)}
	for _, tn := range allTuners() {
		if res, err := tn.Tune(task, 5, 1); !errors.Is(err, errNoProfile) {
			t.Fatalf("%s: Tune = %v, %v; want the HotModules error", tn.Name(), res, err)
		}
	}
}

func TestMeasureMemoSkipsRepeatedConfigurations(t *testing.T) {
	ct := &countingTask{costTask: newCostTask(t)}
	h, err := newHarness(ct, 10)
	if err != nil {
		t.Fatal(err)
	}
	seq := []string{"dce", "instcombine"}
	y1, ok := h.measure("mod", seq)
	if !ok {
		t.Fatal("budget exhausted")
	}
	y2, ok := h.measure("mod", seq)
	if !ok {
		t.Fatal("budget exhausted")
	}
	if ct.measures != 1 {
		t.Fatalf("task measured %d times for one configuration", ct.measures)
	}
	if y1 != y2 {
		t.Fatalf("memo returned %v, first measurement was %v", y2, y1)
	}
	// The repeat still consumed budget and extended the trace.
	if h.used != 2 || len(h.trace) != 2 {
		t.Fatalf("used=%d trace=%d, want 2/2", h.used, len(h.trace))
	}
}

// --- random forest ---

func TestForestLearnsSimpleFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	var Y []float64
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		X = append(X, x)
		Y = append(Y, 3*x[0]-x[1])
	}
	f := fitForest(X, Y, defaultRFOptions(), rng)
	mse := 0.0
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		want := 3*x[0] - x[1]
		got, _ := f.Predict(x)
		mse += (got - want) * (got - want)
	}
	mse /= 50
	if mse > 0.15 {
		t.Fatalf("forest mse = %v", mse)
	}
}

func TestForestUncertaintyPositiveOffData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var X [][]float64
	var Y []float64
	for i := 0; i < 60; i++ {
		x := []float64{rng.Float64() * 0.3}
		X = append(X, x)
		Y = append(Y, x[0]*x[0]+0.05*rng.NormFloat64())
	}
	f := fitForest(X, Y, defaultRFOptions(), rng)
	_, sIn := f.Predict([]float64{0.15})
	_, sOut := f.Predict([]float64{0.9})
	if sIn < 0 || sOut < 0 {
		t.Fatal("negative std")
	}
	_ = sIn
	_ = sOut // tree variance off-data is heuristic; just ensure it computes
}

func TestExpectedImprovement(t *testing.T) {
	if expectedImprovement(1.0, 0.5, 1e-12) != 0.5 {
		t.Fatal("deterministic EI wrong")
	}
	if expectedImprovement(1.0, 1.5, 1e-12) != 0 {
		t.Fatal("no-improvement EI should be 0")
	}
	v := expectedImprovement(1.0, 1.0, 0.5)
	if v <= 0 || math.IsNaN(v) {
		t.Fatalf("EI = %v", v)
	}
}

var _ core.Task = (*costTask)(nil)
var _ = heuristic.SeqSpace{}
