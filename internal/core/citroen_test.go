package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/passes"
)

// syntheticTask is an in-memory Task over a tiny real benchmark-like module:
// it compiles the paper's dot-product kernel and returns noisy cycle counts
// from a static cost proxy, keeping core's unit tests independent of the
// bench package (which imports core). CompileModule is called from the
// tuner's evaluation pool, so its counter is mutex-guarded.
type syntheticTask struct {
	build    func() *ir.Module
	baseline float64
	mu       sync.Mutex
	measures int
	compiles int
}

func newSyntheticTask(t *testing.T) *syntheticTask {
	st := &syntheticTask{build: buildDotModule}
	y, err := st.cost(nil)
	if err != nil {
		t.Fatal(err)
	}
	st.baseline = y
	return st
}

// cost compiles with the sequence and returns a static cost: weighted
// instruction count with vector ops discounted (a stand-in for execution).
func (s *syntheticTask) cost(seq []string) (float64, error) {
	m := s.build()
	m.TargetVecWidth64 = 2
	if seq == nil {
		seq = passes.O3Sequence()
	}
	err := passes.NewManager().Run(m, seq, passes.Stats{}, false)
	if err != nil {
		return 0, err
	}
	cost := 0.0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.Op == ir.OpLoad && in.Ty.IsVector():
					cost += 1.5
				case in.Op == ir.OpLoad:
					cost += 4
				case in.Op == ir.OpMul:
					cost += 3
				default:
					cost++
				}
			}
		}
	}
	return cost + 10, nil
}

func (s *syntheticTask) Modules() []string { return []string{"mod"} }

func (s *syntheticTask) CompileModule(_ context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error) {
	s.mu.Lock()
	s.compiles++
	s.mu.Unlock()
	m := s.build()
	m.TargetVecWidth64 = 2
	st := passes.Stats{}
	if seq == nil {
		seq = passes.O3Sequence()
	}
	err := passes.NewManager().Run(m, seq, st, false)
	if err != nil {
		return nil, nil, err
	}
	return m, st, nil
}

func (s *syntheticTask) Measure(_ context.Context, seqs map[string][]string) (float64, error) {
	s.mu.Lock()
	s.measures++
	s.mu.Unlock()
	return s.cost(seqs["mod"])
}

func (s *syntheticTask) BaselineTime() float64 { return s.baseline }

func (s *syntheticTask) HotModules(float64) ([]string, error) { return []string{"mod"}, nil }

// buildDotModule mirrors the paper's Fig 5.1 kernel.
func buildDotModule() *ir.Module {
	m := &ir.Module{Name: "mod"}
	bd := ir.NewBuilder(m)
	w := bd.AddGlobal("w", ir.I16T, 8)
	d := bd.AddGlobal("d", ir.I16T, 8)
	w.InitI = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	d.InitI = []int64{8, 7, 6, 5, 4, 3, 2, 1}
	bd.NewFunction("main", ir.VoidT)
	acc := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), acc)
	for i := 0; i < 8; i++ {
		wl := bd.Load(ir.I16T, bd.GEP(w, ir.ConstInt(ir.I64T, int64(i))))
		dl := bd.Load(ir.I16T, bd.GEP(d, ir.ConstInt(ir.I64T, int64(i))))
		mul := bd.Bin(ir.OpMul, bd.Cast(ir.OpSExt, wl, ir.I32T), bd.Cast(ir.OpSExt, dl, ir.I32T))
		mul.Flags |= ir.FlagNoWrap
		wide := bd.Cast(ir.OpSExt, mul, ir.I64T)
		cur := bd.Load(ir.I64T, acc)
		sum := bd.Bin(ir.OpAdd, cur, wide)
		sum.Flags |= ir.FlagNoWrap
		bd.Store(sum, acc)
	}
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, acc))
	bd.Ret(nil)
	return m
}

func fastOpts() Options {
	o := DefaultOptions()
	o.Budget = 25
	o.Lambda = 6
	o.SeqMin = 4
	o.SeqMax = 30
	o.InitRandom = 4
	o.GPOpts.AdamSteps = 15
	return o
}

func TestCitroenRunsAndImproves(t *testing.T) {
	task := newSyntheticTask(t)
	res, err := NewTuner(task, fastOpts(), 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no measurements recorded")
	}
	if res.BestSpeedup <= 0 {
		t.Fatalf("speedup = %v", res.BestSpeedup)
	}
	// The trace's best speedup must be non-decreasing.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].BestSpeedup < res.Trace[i-1].BestSpeedup-1e-9 {
			t.Fatal("best-so-far trace decreased")
		}
	}
	if res.Breakdown.Measures == 0 || res.Breakdown.Compiles == 0 {
		t.Fatal("breakdown not populated")
	}
	if res.Breakdown.Compiles <= res.Breakdown.Measures {
		t.Fatalf("stats-guided search should compile more than it measures: %d vs %d",
			res.Breakdown.Compiles, res.Breakdown.Measures)
	}
	if len(res.Importance) == 0 {
		t.Fatal("no ARD importance ranking")
	}
	if len(res.HotModules) != 1 {
		t.Fatalf("hot modules = %v", res.HotModules)
	}
}

func TestCitroenBudgetRespected(t *testing.T) {
	task := newSyntheticTask(t)
	o := fastOpts()
	o.Budget = 12
	res, err := NewTuner(task, o, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Measures > o.Budget {
		t.Fatalf("budget exceeded: %d > %d", res.Breakdown.Measures, o.Budget)
	}
	if len(res.Trace) != res.Breakdown.Measures {
		t.Fatalf("trace/measure mismatch: %d vs %d", len(res.Trace), res.Breakdown.Measures)
	}
}

func TestCitroenDeterministic(t *testing.T) {
	a, err := NewTuner(newSyntheticTask(t), fastOpts(), 42).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTuner(newSyntheticTask(t), fastOpts(), 42).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.BestSpeedup != b.BestSpeedup || len(a.Trace) != len(b.Trace) {
		t.Fatalf("non-deterministic: %v vs %v", a.BestSpeedup, b.BestSpeedup)
	}
}

func TestCitroenDedupSavesMeasurements(t *testing.T) {
	task := newSyntheticTask(t)
	o := fastOpts()
	o.Budget = 30
	res, err := NewTuner(task, o, 3).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Many random short sequences over a tiny kernel produce identical
	// statistics; the dedup path must fire.
	if res.SavedMeasurements == 0 && res.CandidateDupRate == 0 {
		t.Fatalf("expected duplicate statistics on a tiny kernel: %+v", res)
	}
}

func TestCitroenFeatureVariants(t *testing.T) {
	for _, feat := range []FeatureKind{FeatStats, FeatAutophase, FeatTokenMix, FeatRawSeq} {
		o := fastOpts()
		o.Budget = 10
		o.Feature = feat
		res, err := NewTuner(newSyntheticTask(t), o, 4).Run()
		if err != nil {
			t.Fatalf("feature %v: %v", feat, err)
		}
		if res.BestSpeedup <= 0 {
			t.Fatalf("feature %v: no result", feat)
		}
	}
}

func TestCitroenAblationsRun(t *testing.T) {
	base := fastOpts()
	base.Budget = 10
	variants := []func(*Options){
		func(o *Options) { o.CoverageAF = false },
		func(o *Options) { o.HeuristicInit = false },
		func(o *Options) { o.Adaptive = false },
	}
	for i, v := range variants {
		o := base
		v(&o)
		if _, err := NewTuner(newSyntheticTask(t), o, int64(i)).Run(); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
}

// TestCitroenWorkersDeterminism pins the tentpole guarantee of the parallel
// evaluation engine: candidate generation and every RNG draw happen outside
// the parallel region, so the serial mode (Workers: 1) and a heavily
// oversubscribed pool must produce bit-identical tuning runs.
func TestCitroenWorkersDeterminism(t *testing.T) {
	run := func(workers int) *Result {
		o := fastOpts()
		o.Workers = workers
		res, err := NewTuner(newSyntheticTask(t), o, 7).Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial.Trace, parallel.Trace) {
		t.Fatalf("trace differs between Workers=1 and Workers=8:\n%v\nvs\n%v",
			serial.Trace, parallel.Trace)
	}
	if serial.BestSpeedup != parallel.BestSpeedup {
		t.Fatalf("best speedup differs: %v vs %v", serial.BestSpeedup, parallel.BestSpeedup)
	}
	if !reflect.DeepEqual(serial.BestSeqs, parallel.BestSeqs) {
		t.Fatalf("best sequences differ: %v vs %v", serial.BestSeqs, parallel.BestSeqs)
	}
}

// TestBestSpeedupTraceInvariant pins the fixed bestSoFar computation:
// BestSpeedup must equal the running max of measured speedups (floored at
// the -O3 observation, speedup 1) and therefore be monotone non-decreasing.
func TestBestSpeedupTraceInvariant(t *testing.T) {
	o := fastOpts()
	o.Budget = 20
	res, err := NewTuner(newSyntheticTask(t), o, 13).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace")
	}
	best := 1.0 // observation 0 is the -O3 build itself
	for i, tp := range res.Trace {
		if tp.Speedup > best {
			best = tp.Speedup
		}
		if diff := tp.BestSpeedup - best; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trace %d: BestSpeedup %v, want running max %v", i, tp.BestSpeedup, best)
		}
		if i > 0 && tp.BestSpeedup < res.Trace[i-1].BestSpeedup {
			t.Fatalf("trace %d: BestSpeedup decreased", i)
		}
	}
	if res.BestSpeedup != res.Trace[len(res.Trace)-1].BestSpeedup {
		t.Fatalf("final BestSpeedup %v != last trace point %v",
			res.BestSpeedup, res.Trace[len(res.Trace)-1].BestSpeedup)
	}
}

func TestFeatureIndexAndSparseVec(t *testing.T) {
	fi := NewFeatureIndex()
	v1 := sparseVec{"a": 1, "b": 2}
	d1 := v1.dense(fi, "m|")
	if len(d1) != 2 || fi.Dim() != 2 {
		t.Fatalf("dense = %v dim=%d", d1, fi.Dim())
	}
	v2 := sparseVec{"b": 2, "c": 3}
	d2 := v2.dense(fi, "m|")
	if len(d2) != 3 {
		t.Fatalf("index did not grow: %v", d2)
	}
	if v1.key() == v2.key() {
		t.Fatal("distinct vectors share a key")
	}
	if v1.key() != (sparseVec{"b": 2, "a": 1}).key() {
		t.Fatal("key not order-independent")
	}
	seen := map[string]bool{}
	if v1.novelDims(seen, "m|") != 2 {
		t.Fatal("novelty count wrong")
	}
	v1.markSeen(seen, "m|")
	if v2.novelDims(seen, "m|") != 1 {
		t.Fatal("novelty after marking wrong")
	}
}

func TestExtractVariantsNonEmpty(t *testing.T) {
	m := buildDotModule()
	st := passes.Stats{}
	if err := passes.NewManager().Run(m, []string{"mem2reg", "slp-vectorizer"}, st, false); err != nil {
		t.Fatal(err)
	}
	seq := []string{"mem2reg", "slp-vectorizer"}
	for _, k := range []FeatureKind{FeatStats, FeatAutophase, FeatTokenMix, FeatRawSeq} {
		v := extract(k, m, st, seq)
		if len(v) == 0 {
			t.Fatalf("feature %v empty", k)
		}
	}
	// Stats features must include the SLP counter.
	sv := extract(FeatStats, m, st, seq)
	if _, ok := sv["SLP.NumVectorInstructions"]; !ok {
		t.Fatalf("stats features missing SLP counter: %v", sv)
	}
	_ = fmt.Sprint(FeatStats, FeatAutophase, FeatTokenMix, FeatRawSeq)
}

// --- resume, cancellation ---

// eventLog captures journal events for assertions.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Emit(e *obs.Event) {
	l.mu.Lock()
	cp := *e
	l.events = append(l.events, cp)
	l.mu.Unlock()
}

func (l *eventLog) types() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.events))
	for i := range l.events {
		out[i] = l.events[i].Type
	}
	return out
}

// cancellingTask cancels a context after a fixed number of measurements.
type cancellingTask struct {
	*syntheticTask
	mu     sync.Mutex
	n      int
	after  int
	cancel context.CancelFunc
}

func (c *cancellingTask) Measure(ctx context.Context, seqs map[string][]string) (float64, error) {
	c.mu.Lock()
	c.n++
	if c.n == c.after {
		c.cancel()
	}
	c.mu.Unlock()
	return c.syntheticTask.Measure(ctx, seqs)
}

// paid reports whether e is a budget-consuming measure event (ok, not
// reused).
func paid(e obs.Event) bool {
	return e.Type == "measure" && obs.FieldBool(e.Fields, "ok") && !obs.FieldBool(e.Fields, "reused")
}

// consumed returns a journal's budget-consuming measure events, in order.
func consumed(events []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if paid(e) {
			out = append(out, e)
		}
	}
	return out
}

// nextIteration is the iteration a run resumed from events continues at:
// one past the last iteration event's iter.
func nextIteration(events []obs.Event) int {
	next := 0
	for _, e := range events {
		if e.Type == "iteration" {
			next = int(obs.FieldFloat(e.Fields, "iter")) + 1
		}
	}
	return next
}

// checkNumbering fails unless the budget-consuming measurements of events
// are numbered 1, 2, ..., want.
func checkNumbering(t *testing.T, events []obs.Event, want int) {
	t.Helper()
	ms := consumed(events)
	for i, e := range ms {
		if got := int(obs.FieldFloat(e.Fields, "measurement")); got != i+1 {
			t.Fatalf("budget-consuming measurement %d is numbered %d", i+1, got)
		}
	}
	if len(ms) != want {
		t.Fatalf("%d budget-consuming measurements, want %d", len(ms), want)
	}
}

// encodeJournal writes events as the JSONL a journal file holds.
func encodeJournal(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	for i := range events {
		sink.Emit(&events[i])
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeJournal reads a journal back as a restarted server does: fresh
// field maps, JSON-decoded values, a torn last line dropped.
func decodeJournal(t *testing.T, data []byte) []obs.Event {
	t.Helper()
	events, err := obs.ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestCancelMidRunResumesFromJournal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	task := &cancellingTask{syntheticTask: newSyntheticTask(t), after: 6, cancel: cancel}

	log1 := &eventLog{}
	opts := fastOpts()
	opts.Budget = 20
	opts.Sink = log1
	res, err := NewTuner(task, opts, 7).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Trace) == 0 {
		t.Fatal("cancelled run must still return the partial result")
	}
	if got := len(consumed(log1.events)); got != len(res.Trace) {
		t.Fatalf("journal has %d budget-consuming measurements, trace %d", got, len(res.Trace))
	}
	if !slices.Contains(log1.types(), "run-end") {
		t.Fatal("cancelled run journal is missing run-end")
	}

	// Resume with the remaining budget: the warm start must preserve the
	// incumbent and consume no extra budget for the replayed observations.
	log2 := &eventLog{}
	opts2 := fastOpts()
	opts2.Budget = opts.Budget
	opts2.ResumeFrom = decodeJournal(t, encodeJournal(t, log1.events))
	opts2.Sink = log2
	res2, err := NewTuner(newSyntheticTask(t), opts2, 7).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.BestSpeedup < res.BestSpeedup {
		t.Fatalf("resumed best %v < interrupted best %v", res2.BestSpeedup, res.BestSpeedup)
	}
	if got := len(res2.Trace); got > opts.Budget-len(res.Trace) {
		t.Fatalf("resumed run measured %d times, budget remainder is %d", got, opts.Budget-len(res.Trace))
	}
	if !slices.Contains(log2.types(), "resume") {
		t.Fatal("resumed run journal is missing the resume event")
	}
}

// TestResumeRejectsBadJournals: a journal the run cannot replay faithfully
// fails the run before anything is replayed, and the error names what it
// refuses.
func TestResumeRejectsBadJournals(t *testing.T) {
	good := interruptedRun(t, fastOpts(), 4)
	if n := len(consumed(good)); n < 2 {
		t.Fatalf("the interrupted run journaled %d measurements, the test needs 2", n)
	}
	// edit returns a fresh copy of the journal with f applied to its events;
	// f returns the events to keep.
	edit := func(f func(events []obs.Event) []obs.Event) []obs.Event {
		return f(decodeJournal(t, encodeJournal(t, good)))
	}
	// nth returns the index of the n-th (1-based) budget-consuming measure.
	nth := func(events []obs.Event, n int) int {
		for i, e := range events {
			if paid(e) {
				if n--; n == 0 {
					return i
				}
			}
		}
		t.Fatal("journal too short")
		return 0
	}
	for _, c := range []struct {
		name, want string
		journal    []obs.Event
	}{
		{"run-start without a seed", "no seed", edit(func(ev []obs.Event) []obs.Event {
			delete(ev[0].Fields, "seed")
			return ev
		})},
		{"module outside the hot set", `"nope"`, edit(func(ev []obs.Event) []obs.Event {
			ev[nth(ev, 2)].Fields["module"] = "nope"
			return ev
		})},
		{"measure without passes", "no passes", edit(func(ev []obs.Event) []obs.Event {
			delete(ev[nth(ev, 2)].Fields, "passes")
			return ev
		})},
		{"non-positive time", "non-positive time", edit(func(ev []obs.Event) []obs.Event {
			ev[nth(ev, 1)].Fields["time_cycles"] = 0.0
			return ev
		})},
	} {
		opts := fastOpts()
		log := &eventLog{}
		opts.ResumeFrom, opts.Sink = c.journal, log
		_, err := NewTuner(newSyntheticTask(t), opts, 7).Run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
		if slices.Contains(log.types(), "resume") || slices.Contains(log.types(), "measure") {
			t.Errorf("%s: the refused journal was partly replayed: %v", c.name, log.types())
		}
	}
}

// TestResumeRejectsOtherSeed: a journal resumed under another seed than the
// one that wrote it fails the run before any replay, naming both seeds.
func TestResumeRejectsOtherSeed(t *testing.T) {
	opts := fastOpts()
	journal := interruptedRun(t, opts, 4)
	log := &eventLog{}
	opts.ResumeFrom, opts.Sink = journal, log
	_, err := NewTuner(newSyntheticTask(t), opts, 8).Run()
	if err == nil {
		t.Fatal("a resume under another seed must fail the run")
	}
	if !strings.Contains(err.Error(), "seed 7") || !strings.Contains(err.Error(), "seed 8") {
		t.Fatalf("error does not name both seeds: %v", err)
	}
	if slices.Contains(log.types(), "resume") {
		t.Fatal("the rejected resume was journaled as a resume")
	}
}

// TestSeedSequenceUnknownPassErrors: a journalled sequence naming a pass this
// binary's vocabulary lacks must fail the resume, naming the pass, instead of
// silently replaying a shorter sequence under its y.
func TestSeedSequenceUnknownPassErrors(t *testing.T) {
	opts := fastOpts()
	journal := interruptedRun(t, opts, 4)
	m := consumed(journal)[0]
	m.Fields["passes"] = []any{"mem2reg", "no-such-pass", "dce"}
	opts.ResumeFrom = journal
	_, err := NewTuner(newSyntheticTask(t), opts, 7).Run()
	if err == nil {
		t.Fatal("unknown pass in a journal must fail the run")
	}
	if !strings.Contains(err.Error(), "no-such-pass") {
		t.Fatalf("error does not name the unknown pass: %v", err)
	}
}

// interruptedRun runs the synthetic task under opts, with its own Sink, until
// the after-th measurement cancels the run, and returns the run's journal
// read back from JSONL.
func interruptedRun(t *testing.T, opts Options, after int) []obs.Event {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	task := &cancellingTask{syntheticTask: newSyntheticTask(t), after: after, cancel: cancel}
	log := &eventLog{}
	opts.Sink = log
	if _, err := NewTuner(task, opts, 7).RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	return decodeJournal(t, encodeJournal(t, log.events))
}

// resumedRun finishes the run a journal interrupted and returns its result
// and journal.
func resumedRun(t *testing.T, opts Options, journal []obs.Event) (*Result, *eventLog) {
	t.Helper()
	log := &eventLog{}
	opts.ResumeFrom = journal
	opts.Sink = log
	res, err := NewTuner(newSyntheticTask(t), opts, 7).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, log
}

// TestResumeSkipsCompletedRandomDesign: a journal holding at least
// InitRandom measurements already paid for the random initial design, so
// the resumed run goes straight from the replay to the model-guided loop.
func TestResumeSkipsCompletedRandomDesign(t *testing.T) {
	opts := fastOpts()
	opts.Budget = 20
	journal := interruptedRun(t, opts, opts.InitRandom+2)
	if n := len(consumed(journal)); n < opts.InitRandom {
		t.Fatalf("journal holds %d measurements, the test needs at least InitRandom = %d", n, opts.InitRandom)
	}
	res, log := resumedRun(t, opts, journal)
	if len(res.Trace) == 0 {
		t.Fatal("resumed run measured nothing")
	}
	resumed := false
	for _, e := range log.events {
		switch {
		case e.Type == "resume":
			resumed = true
		case e.Type == "iteration" && resumed:
			return
		case e.Type == "measure" && resumed:
			t.Fatalf("measure event %v between the resume and the first iteration: the random design ran again", e.Fields)
		}
	}
	t.Fatalf("journal has no iteration after the resume (resume seen: %v)", resumed)
}

// TestResumeContinuesMeasurementNumbering: across a cancel and a resume the
// budget-consuming measurements are numbered 1, 2, ... with no gap or
// repeat, and the model-guided iterations continue one past the journal's
// last.
func TestResumeContinuesMeasurementNumbering(t *testing.T) {
	opts := fastOpts()
	opts.Budget = 16
	journal := interruptedRun(t, opts, opts.InitRandom+3)
	next := nextIteration(journal)
	if next == 0 {
		t.Fatal("the interrupted run never reached the model-guided loop")
	}
	res, log := resumedRun(t, opts, journal)
	checkNumbering(t, append(slices.Clone(journal), log.events...), opts.Budget)
	if n := len(consumed(journal)); len(res.Trace) == 0 || res.Trace[0].Measurement != n+1 {
		t.Fatalf("resumed trace starts at %v, want measurement %d", res.Trace, n+1)
	}
	for _, e := range log.events {
		if e.Type == "iteration" {
			if got := int(obs.FieldFloat(e.Fields, "iter")); got != next {
				t.Fatalf("resumed run's first iteration is %d, want %d", got, next)
			}
			break
		}
	}
}

// TestResumeAtEveryCut cuts a finished run's JSONL journal at every line end,
// and once mid-line (ReadJournal drops the torn tail), and resumes from each
// prefix. Every resumed run finishes, and across the prefix and the resumed
// run the budget-consuming measurements are numbered 1…Budget with no gap or
// repeat. The replay takes in exactly the prefix's measurements: each
// replayed compile rebuilds the prefix's (module, passes) and each replayed
// y equals, bit for bit, the y the uninterrupted run observed. The incumbent
// never falls below the prefix's best. A journal with one measurement
// deleted or doubled is refused as a gap or a repeat.
func TestResumeAtEveryCut(t *testing.T) {
	opts := fastOpts()
	opts.Budget = 12
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	opts.Sink = sink
	full := NewTuner(newSyntheticTask(t), opts, 7)
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	checkNumbering(t, decodeJournal(t, data), opts.Budget)

	var cuts []int
	for i, b := range data {
		if b == '\n' {
			cuts = append(cuts, i+1)
		}
	}
	mid := cuts[len(cuts)/2]
	cuts = append(cuts, mid+(cuts[len(cuts)/2+1]-mid)/2)
	for _, cut := range cuts {
		prefix := decodeJournal(t, data[:cut])
		paid := consumed(prefix)
		prefixBest := 1.0
		for _, e := range paid {
			prefixBest = max(prefixBest, obs.FieldFloat(e.Fields, "best"))
		}
		log := &eventLog{}
		ropts := opts
		ropts.ResumeFrom, ropts.Sink = prefix, log
		tn := NewTuner(newSyntheticTask(t), ropts, 7)
		res, err := tn.Run()
		if err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		checkNumbering(t, append(slices.Clone(prefix), log.events...), opts.Budget)
		for i := range paid {
			if got, want := tn.Y[1+i], full.Y[1+i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cut at byte %d: replayed y %d = %v, the run observed %v", cut, i+1, got, want)
			}
		}
		// The replay's compiles follow the -O3 baselines' new-incumbent and
		// precede the resume event, one per replayed measurement.
		var replays []obs.Event
		for i, e := range log.events {
			if e.Type == "new-incumbent" && len(paid) > 0 {
				for _, r := range log.events[i+1:] {
					if r.Type != "compile" {
						break
					}
					replays = append(replays, r)
				}
				break
			}
		}
		if len(replays) != len(paid) {
			t.Fatalf("cut at byte %d: %d replay compiles for %d measurements", cut, len(replays), len(paid))
		}
		for i, e := range paid {
			passes, _ := obs.FieldStrings(e.Fields, "passes")
			seq, err := tn.seqIndices(passes)
			if err != nil {
				t.Fatal(err)
			}
			r := replays[i].Fields
			if r["module"] != e.Fields["module"] || obs.FieldFloat(r, "seq_hash") != float64(hashSeq(seq)) || int(obs.FieldFloat(r, "seq_len")) != len(seq) {
				t.Fatalf("cut at byte %d: replay %d compiled %v, the journal measured %v %v", cut, i+1, r, e.Fields["module"], passes)
			}
		}
		for _, e := range consumed(log.events) {
			if best := obs.FieldFloat(e.Fields, "best"); best < prefixBest {
				t.Fatalf("cut at byte %d: incumbent %v fell below the prefix's %v", cut, best, prefixBest)
			}
		}
		if res.BestSpeedup < prefixBest {
			t.Fatalf("cut at byte %d: resumed best %v < the prefix's %v", cut, res.BestSpeedup, prefixBest)
		}
	}

	// One measurement deleted leaves a gap, one doubled a repeat.
	events := decodeJournal(t, data)
	at := slices.IndexFunc(events, func(e obs.Event) bool {
		return paid(e) && obs.FieldFloat(e.Fields, "measurement") == 3
	})
	for name, journal := range map[string][]obs.Event{
		"gap":    slices.Delete(slices.Clone(events), at, at+1),
		"repeat": slices.Insert(slices.Clone(events), at, events[at]),
	} {
		ropts := opts
		ropts.ResumeFrom, ropts.Sink = journal, nil
		if _, err := NewTuner(newSyntheticTask(t), ropts, 7).Run(); err == nil || !strings.Contains(err.Error(), "a gap or a repeat") {
			t.Errorf("a journal with a %s: err = %v, want a gap or a repeat refused", name, err)
		}
	}
}

func TestCancelDuringSetupReturnsNilResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewTuner(newSyntheticTask(t), fastOpts(), 1).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("setup-phase cancellation must not fabricate a result")
	}
}
