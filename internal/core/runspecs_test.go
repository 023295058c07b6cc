package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ir"
	"repro/internal/passes"
)

// hookTask is a Task whose CompileModule hands the spec index (the specs of
// runHooked name their module by index) to compile and then fails, so
// RunSpecs records the call and extracts no features.
type hookTask struct {
	*syntheticTask
	compile func(ctx context.Context, i int)
}

var errHooked = errors.New("hooked compile")

func (h *hookTask) CompileModule(ctx context.Context, mod string, _ []string) (*ir.Module, passes.Stats, error) {
	i, _ := strconv.Atoi(mod)
	h.compile(ctx, i)
	return nil, nil, errHooked
}

func runHooked(ctx context.Context, workers, n int, compile func(ctx context.Context, i int)) ([]CompileOutcome, error) {
	specs := make([]CompileSpec, n)
	for i := range specs {
		specs[i].Module = strconv.Itoa(i)
	}
	out := make([]CompileOutcome, n)
	err := RunSpecs(ctx, workers, &hookTask{compile: compile}, FeatStats, specs, out)
	return out, err
}

func TestRunSpecsCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		counts := make([]int32, 7)
		out, err := runHooked(context.Background(), w, 7, func(_ context.Context, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, c := range counts {
			if c != 1 || out[i].Err != errHooked.Error() {
				t.Fatalf("workers=%d: index %d ran %d times, outcome %+v", w, i, c, out[i])
			}
		}
	}
}

// Cancelling mid-batch stops the workers claiming further specs, and the
// specs never claimed keep empty outcomes.
func TestRunSpecsCancelStopsClaiming(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		out, err := runHooked(ctx, w, 1000, func(context.Context, int) {
			if ran.Add(1) == 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if n := ran.Load(); n > int32(3+w) {
			t.Fatalf("workers=%d: %d specs ran after cancelling at the third", w, n)
		}
		executed := 0
		for _, o := range out {
			if o.Err != "" {
				executed++
			} else if o.Ok || o.Wall != 0 {
				t.Fatalf("workers=%d: unexecuted spec has outcome %+v", w, o)
			}
		}
		if executed != int(ran.Load()) {
			t.Fatalf("workers=%d: %d outcomes written for %d compiles", w, executed, ran.Load())
		}
	}
}

func TestRunSpecsPreCancelledRunsAtMostWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 2, 8} {
		var ran atomic.Int32
		_, err := runHooked(ctx, w, 64, func(context.Context, int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if n := ran.Load(); n > int32(w) {
			t.Fatalf("workers=%d: a cancelled context still ran %d specs", w, n)
		}
	}
}

// A panic inside CompileModule reaches RunSpecs' caller with its value
// unchanged.
func TestRunSpecsPanicReachesCaller(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 2, 8} {
		func() {
			defer func() {
				if r := recover(); r != any(boom) {
					t.Fatalf("workers=%d: recovered %v, want the panic value itself", w, r)
				}
			}()
			runHooked(context.Background(), w, 16, func(_ context.Context, i int) {
				if i == 5 {
					panic(boom)
				}
			})
			t.Fatalf("workers=%d: panic did not propagate", w)
		}()
	}
}

// labelTask records the pprof labels its CompileModule and Measure see.
type labelTask struct {
	*syntheticTask
	mu      sync.Mutex
	compile map[string]int // "phase/module" -> calls
	measure map[string]int // phase -> calls
}

func (l *labelTask) CompileModule(ctx context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error) {
	phase, _ := pprof.Label(ctx, "phase")
	module, _ := pprof.Label(ctx, "module")
	l.mu.Lock()
	l.compile[phase+"/"+module]++
	l.mu.Unlock()
	return l.syntheticTask.CompileModule(ctx, mod, seq)
}

func (l *labelTask) Measure(ctx context.Context, seqs map[string][]string) (float64, error) {
	phase, _ := pprof.Label(ctx, "phase")
	l.mu.Lock()
	l.measure[phase]++
	l.mu.Unlock()
	return l.syntheticTask.Measure(ctx, seqs)
}

// Every compile runs under phase=compile,module=<name> and every measurement
// under phase=measure, so a CPU profile splits by phase with -tagfocus.
func TestTunerPprofLabels(t *testing.T) {
	task := &labelTask{syntheticTask: newSyntheticTask(t), compile: map[string]int{}, measure: map[string]int{}}
	opts := fastOpts()
	opts.Budget = 8
	opts.Workers = 2
	if _, err := NewTuner(task, opts, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if len(task.compile) != 1 || task.compile["compile/mod"] == 0 {
		t.Fatalf("compile labels = %v, want only compile/mod", task.compile)
	}
	if len(task.measure) != 1 || task.measure["measure"] == 0 {
		t.Fatalf("measure labels = %v, want only measure", task.measure)
	}
}
