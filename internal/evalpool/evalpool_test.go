package evalpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, w := range []int{0, 1, 2, 8, 33} {
		p := New(w)
		if p.Workers() < 1 {
			t.Fatalf("workers(%d) resolved to %d", w, p.Workers())
		}
		const n = 100
		counts := make([]int32, n)
		p.Map(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, c)
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	p := New(8)
	p.Map(0, func(int) { t.Fatal("fn called for n=0") })
	ran := false
	p.Map(1, func(i int) { ran = i == 0 })
	if !ran {
		t.Fatal("single job not run")
	}
}

func TestMapSerialModeRunsInIndexOrder(t *testing.T) {
	p := New(1)
	var got []int
	p.Map(5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order broken: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d of 5 jobs", len(got))
	}
}

func TestMapGroupsCoversEveryIndexExactlyOnce(t *testing.T) {
	groups := [][]int{{3, 1}, {0}, {4, 2, 5}, {}, {6}}
	for _, w := range []int{1, 2, 8} {
		counts := make([]int32, 7)
		if err := New(w).MapGroupsCtx(context.Background(), groups, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, c)
			}
		}
	}
}

func TestMapGroupsRunSeriallyInOrder(t *testing.T) {
	// Within one group indices must run in order on one goroutine even when
	// the pool has many workers; cross-group order is unconstrained.
	group := []int{5, 3, 9, 0}
	var mu sync.Mutex
	var got []int
	New(8).MapGroupsCtx(context.Background(), [][]int{group}, func(i int) {
		mu.Lock()
		got = append(got, i)
		mu.Unlock()
	})
	if len(got) != len(group) {
		t.Fatalf("ran %d of %d group jobs", len(got), len(group))
	}
	for k, v := range got {
		if v != group[k] {
			t.Fatalf("group order broken: got %v want %v", got, group)
		}
	}
}

func TestMapGroupsCancelStopsWithinGroup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := New(1).MapGroupsCtx(ctx, [][]int{{0, 1, 2, 3}}, func(i int) {
		if ran.Add(1) == 1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("cancellation mid-group still ran %d jobs", n)
	}
}

func TestMapCtxCancelStopsClaiming(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := New(w).MapCtx(ctx, 1000, func(i int) {
			if ran.Add(1) == 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: MapCtx err = %v, want context.Canceled", w, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("workers=%d: cancellation did not stop the fan-out (%d jobs ran)", w, n)
		}
	}
}

func TestMapCtxNilAndDoneContext(t *testing.T) {
	p := New(2)
	if err := p.MapCtx(nil, 4, func(int) {}); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	if err := p.MapCtx(ctx, 8, func(int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v", err)
	}
	// Parallel workers may each claim at most one index before observing
	// cancellation; the bulk of the batch must not run.
	if ran.Load() > 2 {
		t.Fatalf("pre-cancelled ctx still ran %d jobs", ran.Load())
	}
}

// TestQueueSubmitUnblocksOnCancel is the regression test for cancellation of
// a blocked submission: with the single worker stalled and the buffer full,
// a pending Submit must return promptly when its context is cancelled, and
// Close must drain the accepted jobs without deadlock.
func TestQueueSubmitUnblocksOnCancel(t *testing.T) {
	q := NewQueue(1, 1)
	block := make(chan struct{})
	var done sync.WaitGroup
	done.Add(2)
	// Job 1 occupies the worker; job 2 fills the 1-slot buffer.
	if err := q.Submit(context.Background(), func() { <-block; done.Done() }); err != nil {
		t.Fatal(err)
	}
	// The first job may not have been claimed yet; make sure the buffer is
	// full before asserting that the next Submit blocks.
	deadline := time.Now().Add(5 * time.Second)
	if err := q.Submit(context.Background(), func() { done.Done() }); err != nil {
		t.Fatal(err)
	}
	for q.Backlog() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- q.Submit(ctx, func() { t.Error("cancelled job ran") }) }()
	select {
	case err := <-errc:
		t.Fatalf("Submit returned %v before cancellation with a full queue", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Submit still blocked after 2s")
	}

	// Unblock the worker; Close must drain both accepted jobs and return.
	close(block)
	closed := make(chan struct{})
	go func() { q.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked draining the queue")
	}
	done.Wait()
	if err := q.Submit(context.Background(), func() {}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Submit after Close = %v, want ErrQueueClosed", err)
	}
}

// TestQueueCloseUnblocksPendingSubmit covers the other unblock path: a
// Submit blocked on a full buffer must return ErrQueueClosed when the queue
// shuts down, even though its own context is never cancelled.
func TestQueueCloseUnblocksPendingSubmit(t *testing.T) {
	q := NewQueue(1, 0)
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	if err := q.Submit(context.Background(), func() { <-block }); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- q.Submit(context.Background(), func() { t.Error("job after close ran") }) }()
	time.Sleep(20 * time.Millisecond) // let the second Submit block
	go func() {
		time.Sleep(20 * time.Millisecond)
		release() // Close drains the running job
	}()
	closed := make(chan struct{})
	go func() { q.Close(); close(closed) }()
	select {
	case err := <-errc:
		// A rare interleaving can accept the job before Close wins; both
		// outcomes are valid as long as nothing deadlocks.
		if err != nil && !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("pending Submit err = %v, want ErrQueueClosed or nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending Submit not unblocked by Close")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

func TestQueueTrySubmitFull(t *testing.T) {
	q := NewQueue(1, 1)
	block := make(chan struct{})
	if err := q.Submit(context.Background(), func() { <-block }); err != nil {
		t.Fatal(err)
	}
	// Fill the buffer (the worker may still be picking up the first job).
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := q.TrySubmit(func() {})
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never reported full")
		}
	}
	close(block)
	q.Close()
	if err := q.TrySubmit(func() {}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("TrySubmit after Close = %v, want ErrQueueClosed", err)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	New(4).Map(8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
	t.Fatal("panic did not propagate")
}
