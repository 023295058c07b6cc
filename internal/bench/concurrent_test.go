package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
)

// serialTimeWithSequences is the one-dataset-at-a-time measurement loop
// timeWithSequences replaced, kept as its oracle: build, link, execute, draw
// and differential-test dataset 0, and only then start on dataset 1. reached
// is the number of datasets it started on.
func serialTimeWithSequences(ev *Evaluator, ctx context.Context, seqs map[string][]string) (t0 float64, stats passes.Stats, reached int, err error) {
	stats = passes.Stats{}
	for ds := 0; ds < ev.Datasets; ds++ {
		reached = ds + 1
		if err := ctx.Err(); err != nil {
			return 0, nil, reached, err
		}
		mods := make([]*ir.Module, 0, len(ev.pristine[ds]))
		for _, pm := range ev.pristine[ds] {
			m, st, err := ev.compiledFor(ctx, ds, pm.Name, seqs[pm.Name])
			if err != nil {
				return 0, nil, reached, err
			}
			if ds == 0 {
				stats.Merge(st)
			}
			mods = append(mods, m)
		}
		img, err := machine.Link(mods...)
		if err != nil {
			return 0, nil, reached, err
		}
		ev.mu.Lock()
		ev.Measurements++
		ev.mu.Unlock()
		t, res, err := ev.meas.TimeMedian(img, "main", ev.Runs)
		if err != nil {
			return 0, nil, reached, err
		}
		if err := machine.OutputsMatch(ev.refOut[ds], res.Output, 1e-6); err != nil {
			return 0, nil, reached, fmt.Errorf("bench: differential test failed: %w", err)
		}
		machine.ReleaseResult(res)
		if ds == 0 {
			t0 = t
		}
	}
	return t0, stats, reached, nil
}

// canonicalCounters renders the rows of Counters() that reach the canonical
// journal (everything that is not Env).
func canonicalCounters(ev *Evaluator) string {
	var b strings.Builder
	for _, r := range ev.Counters() {
		if !r.Env {
			fmt.Fprintf(&b, "%s=%d ", r.Name, r.Value)
		}
	}
	return b.String()
}

// TestMeasureDatasetsConcurrentEqualsSerial: executing the datasets of a
// measurement concurrently and judging them in order gives what the serial
// loop gave — time, statistics, error text, the RNG stream afterwards and the
// canonical counters — for accepted candidates and for every way a candidate
// is rejected. The one allowed difference: when dataset 0 rejects the
// candidate, dataset 1's build and run have already happened, so the
// counters match the serial loop's plus exactly that one dataset run.
// Run with -race -count 20 (a CI step).
func TestMeasureDatasetsConcurrentEqualsSerial(t *testing.T) {
	newEv := func() *Evaluator {
		ev, err := NewEvaluator(ByName("consumer_jpeg"), ARM(), 11)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	conc, serial := newEv(), newEv()

	vocab := passes.Names()
	rng := rand.New(rand.NewSource(20261004))
	randSeq := func() []string {
		seq := make([]string, 8+rng.Intn(113))
		for i := range seq {
			seq[i] = vocab[rng.Intn(len(vocab))]
		}
		return seq
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	bg := context.Background()

	type candidate struct {
		name string
		ctx  context.Context
		seqs map[string][]string
		want string // substring of the error a named case is rejected with
		// breakRef1 perturbs dataset 1's reference output on both evaluators
		// for this candidate: no known sequence miscompiles dataset 1 only.
		breakRef1 bool
	}
	cands := []candidate{
		{name: "O3", ctx: bg},
		{name: "short", ctx: bg, seqs: map[string][]string{"jdct": {"mem2reg", "sroa", "instcombine"}}},
		{name: "both modules", ctx: bg, seqs: map[string][]string{
			"jdct": {"sroa", "loop-rotate", "licm", "gvn"}, "jquant": {"mem2reg", "loop-unroll", "simplifycfg"}}},
		// Reduced from the first invalid-IR and the first miscompile the
		// benchmark's jpeg_random workload records.
		{name: "dataset-0 invalid IR", ctx: bg, want: "IR invalid after", seqs: map[string][]string{
			"jdct": {"loop-rotate", "sroa", "bdce", "early-cse-memssa", "simple-loop-unswitch"}}},
		{name: "dataset-0 miscompile", ctx: bg, want: "differential test failed", seqs: map[string][]string{
			"jdct": {"sroa", "loop-rotate", "loop-instsimplify", "loop-unroll-full", "adce", "simple-loop-unswitch", "simplifycfg"}}},
		{name: "dataset-1-only failure", ctx: bg, want: "differential test failed", breakRef1: true,
			seqs: map[string][]string{"jquant": {"mem2reg", "instcombine", "dce"}}},
		{name: "cancelled", ctx: cancelled, want: "context canceled", seqs: map[string][]string{"jdct": {"mem2reg"}}},
		{name: "after the failures", ctx: bg, seqs: map[string][]string{"jdct": {"mem2reg", "gvn"}}},
	}
	for i := 0; i < 4; i++ {
		cands = append(cands, candidate{name: fmt.Sprintf("random %d", i), ctx: bg,
			seqs: map[string][]string{"jdct": randSeq(), "jquant": randSeq()}})
	}

	for _, c := range cands {
		if c.breakRef1 {
			conc.refOut[1][0].I++
			serial.refOut[1][0].I++
		}
		tc, sc, errC := conc.timeWithSequences(c.ctx, c.seqs, nil)
		ts, ss, reached, errS := serialTimeWithSequences(serial, c.ctx, c.seqs)
		if c.breakRef1 {
			conc.refOut[1][0].I--
			serial.refOut[1][0].I--
		}
		if (errC == nil) != (errS == nil) || errC != nil && errC.Error() != errS.Error() {
			t.Fatalf("%s: concurrent error %v, serial error %v", c.name, errC, errS)
		}
		if c.want != "" && (errS == nil || !strings.Contains(errS.Error(), c.want)) {
			// Random sequences may be rejected too; a named case must be
			// rejected the way it says.
			t.Fatalf("%s: error %v, want one containing %q", c.name, errS, c.want)
		}
		if tc != ts {
			t.Fatalf("%s: concurrent time %v, serial time %v", c.name, tc, ts)
		}
		if jc, js := sc.JSON(), ss.JSON(); jc != js {
			t.Fatalf("%s: stats differ\nconcurrent %s\nserial     %s", c.name, jc, js)
		}
		if a, b := conc.meas.Rng.Int63(), serial.meas.Rng.Int63(); a != b {
			t.Fatalf("%s: the RNG streams diverged (next draw %d vs %d)", c.name, a, b)
		}
		if conc.Measurements != serial.Measurements {
			t.Fatalf("%s: %d measurements counted, the serial loop counts %d", c.name, conc.Measurements, serial.Measurements)
		}
		// Rejected before the last dataset: give the serial evaluator the
		// dataset runs it skipped.
		for ds := reached; ds < serial.Datasets; ds++ {
			if r := serial.runDataset(c.ctx, ds, c.seqs); r.res != nil {
				machine.ReleaseResult(r.res)
			}
		}
		if cc, cs := canonicalCounters(conc), canonicalCounters(serial); cc != cs {
			t.Fatalf("%s: canonical counters differ\nconcurrent %s\nserial     %s", c.name, cc, cs)
		}
	}
}

// A panic on a dataset's own goroutine would take the process down; it must
// surface on the goroutine that called Measure, where the callers' recovery
// (the benchmark harness turns it into a rejected candidate) can see it — the
// value itself, as numeric.ParallelFor re-raises it, not a description of it.
func TestMeasureDatasetPanicReachesCaller(t *testing.T) {
	ev, err := NewEvaluator(ByName("security_sha"), ARM(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ev.pristine[1] = []*ir.Module{nil} // dataset 1's build dereferences it
	defer func() {
		if p, ok := recover().(runtime.Error); !ok || !strings.Contains(p.Error(), "nil pointer dereference") {
			t.Fatalf("recovered %v; want dataset 1's nil dereference, unchanged", p)
		}
	}()
	_, _, err = ev.Measure(nil)
	t.Fatalf("Measure returned %v", err)
}
