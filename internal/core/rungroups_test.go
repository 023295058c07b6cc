package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ir"
	"repro/internal/passes"
)

// hookTask is a Task whose CompileModule hands the spec index (the specs of
// runHooked name their module by index) to compile and then fails, so
// RunGroups records the call and extracts no features.
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

func runHooked(ctx context.Context, workers int, groups [][]int, n int, compile func(ctx context.Context, i int)) ([]CompileOutcome, error) {
	specs := make([]CompileSpec, n)
	for i := range specs {
		specs[i].Module = strconv.Itoa(i)
	}
	out := make([]CompileOutcome, n)
	err := RunGroups(ctx, workers, &hookTask{compile: compile}, FeatStats, specs, groups, out)
	return out, err
}

func singletons(n int) [][]int {
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i}
	}
	return groups
}

// goid reads the calling goroutine's id from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestRunGroupsCoversEveryIndexExactlyOnce(t *testing.T) {
	groups := [][]int{{3, 1}, {0}, {4, 2, 5}, {}, {6}}
	for _, w := range []int{1, 2, 8} {
		counts := make([]int32, 7)
		out, err := runHooked(context.Background(), w, groups, 7, func(_ context.Context, i int) {
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

// Within one group the indices run in order on one goroutine, however many
// workers there are; across groups the order is unconstrained.
func TestRunGroupsRunSeriallyInOrder(t *testing.T) {
	groups := [][]int{{5, 3, 9, 0}, {1, 2}, {4, 6, 7, 8}}
	groupOf := map[int]int{}
	for g, idx := range groups {
		for _, i := range idx {
			groupOf[i] = g
		}
	}
	for _, w := range []int{1, 2, 8} {
		var mu sync.Mutex
		got := make([][]int, len(groups))
		gids := make([]map[string]bool, len(groups))
		for g := range gids {
			gids[g] = map[string]bool{}
		}
		if _, err := runHooked(context.Background(), w, groups, 10, func(_ context.Context, i int) {
			mu.Lock()
			defer mu.Unlock()
			g := groupOf[i]
			got[g] = append(got[g], i)
			gids[g][goid()] = true
		}); err != nil {
			t.Fatal(err)
		}
		for g := range groups {
			if len(gids[g]) != 1 {
				t.Fatalf("workers=%d: group %d ran on %d goroutines", w, g, len(gids[g]))
			}
			if !slices.Equal(got[g], groups[g]) {
				t.Fatalf("workers=%d: group %d ran %v, want %v", w, g, got[g], groups[g])
			}
		}
	}
}

// Cancelling inside a group's first spec stops that group: its later specs
// never run and keep empty outcomes.
func TestRunGroupsCancelStopsWithinGroup(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		out, err := runHooked(ctx, w, [][]int{{0, 1, 2, 3}}, 4, func(context.Context, int) {
			if ran.Add(1) == 1 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if n := ran.Load(); n != 1 {
			t.Fatalf("workers=%d: cancellation mid-group still ran %d specs", w, n)
		}
		for i := 1; i < 4; i++ {
			if o := out[i]; o.Ok || o.Err != "" || o.Wall != 0 {
				t.Fatalf("workers=%d: unexecuted spec %d has outcome %+v", w, i, out[i])
			}
		}
	}
}

// Cancelling mid-batch stops the workers claiming further groups.
func TestRunGroupsCancelStopsClaiming(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		_, err := runHooked(ctx, w, singletons(1000), 1000, func(context.Context, int) {
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
	}
}

func TestRunGroupsPreCancelledRunsAtMostWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 2, 8} {
		var ran atomic.Int32
		_, err := runHooked(ctx, w, singletons(64), 64, func(context.Context, int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if n := ran.Load(); n > int32(w) {
			t.Fatalf("workers=%d: a cancelled context still ran %d specs", w, n)
		}
	}
}

// A panic inside CompileModule reaches RunGroups' caller with its value
// unchanged.
func TestRunGroupsPanicReachesCaller(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 2, 8} {
		func() {
			defer func() {
				if r := recover(); r != any(boom) {
					t.Fatalf("workers=%d: recovered %v, want the panic value itself", w, r)
				}
			}()
			runHooked(context.Background(), w, singletons(16), 16, func(_ context.Context, i int) {
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
