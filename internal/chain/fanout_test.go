package chain

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestFanOutVisitsEveryIndexOnce: whatever the width, fn runs exactly once
// per index and FanOut — or a started batch's Wait — returns only after all
// of them have.
func TestFanOutVisitsEveryIndexOnce(t *testing.T) {
	runs := []struct {
		name string
		run  func(n, limit int, fn func(i int))
	}{
		{"FanOut", FanOut},
		{"Start+Wait", func(n, limit int, fn func(i int)) { Start(n, limit, fn).Wait() }},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 17, 1000} {
			for _, limit := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("procs=%d/n=%d/limit=%d", procs, n, limit), func(t *testing.T) {
					for _, r := range runs {
						visits := make([]atomic.Int32, n)
						r.run(n, limit, func(i int) { visits[i].Add(1) })
						for i := range visits {
							if got := visits[i].Load(); got != 1 {
								t.Fatalf("%s: index %d visited %d times", r.name, i, got)
							}
						}
					}
				})
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestFanOutInlineAtWidthOne: with one worker everything runs on the
// caller's goroutine, in index order — a single-core process or a limit of
// 1 pays for no goroutine. A started batch of width 1 runs nothing until
// Wait, which then runs it all on the caller.
func TestFanOutInlineAtWidthOne(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var order []int // unsynchronised on purpose: -race flags any second goroutine
	check := func(t *testing.T) {
		t.Helper()
		for i, got := range order {
			if got != i {
				t.Fatalf("position %d ran index %d", i, got)
			}
		}
		if len(order) != 50 {
			t.Fatalf("ran %d of 50 indices", len(order))
		}
	}
	FanOut(50, 1, func(i int) { order = append(order, i) })
	check(t)

	for _, w := range []struct{ procs, limit int }{{4, 1}, {1, 8}} {
		runtime.GOMAXPROCS(w.procs)
		order = nil
		b := Start(50, w.limit, func(i int) { order = append(order, i) })
		if len(order) != 0 {
			t.Fatalf("procs=%d limit=%d: Start ran %d indices before Wait", w.procs, w.limit, len(order))
		}
		b.Wait()
		check(t)
	}
}

var inlineVisits int

func countInline(int) { inlineVisits++ }

// TestFanOutAllocatesNothingAtWidthOne: the inline loop is all FanOut does
// when it has one worker — no batch, counter or goroutine is set up.
func TestFanOutAllocatesNothingAtWidthOne(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if allocs := testing.AllocsPerRun(100, func() { FanOut(64, 1, countInline) }); allocs != 0 {
		t.Fatalf("FanOut at limit 1 allocates %.0f times per call", allocs)
	}
	runtime.GOMAXPROCS(1)
	if allocs := testing.AllocsPerRun(100, func() { FanOut(64, 8, countInline) }); allocs != 0 {
		t.Fatalf("FanOut at GOMAXPROCS 1 allocates %.0f times per call", allocs)
	}
}

// TestStartWaitJoinsRunningHelpers: Wait called while a helper is still
// inside fn returns only once that call has finished.
func TestStartWaitJoinsRunningHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 40
	var visits [n]atomic.Int32
	started, release := make(chan int), make(chan struct{})
	var blocked atomic.Bool
	b := Start(n, 4, func(i int) {
		if blocked.CompareAndSwap(false, true) {
			started <- i
			<-release
		}
		visits[i].Add(1)
	})
	stuck := <-started // a helper holds index stuck; the caller has not joined yet
	done := make(chan struct{})
	go func() {
		b.Wait()
		close(done)
	}()
	for visited := 0; visited < n-1; {
		visited = 0
		for i := range visits {
			visited += int(visits[i].Load())
		}
		runtime.Gosched()
	}
	select {
	case <-done:
		t.Fatalf("Wait returned while index %d was still running", stuck)
	default:
	}
	close(release)
	<-done
	for i := range visits {
		if got := visits[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

// TestStartWaitAfterHelpersFinished: a batch whose helpers already ran
// every index needs nothing from the caller, and Wait returns.
func TestStartWaitAfterHelpersFinished(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 40
	var visits [n]atomic.Int32
	var total atomic.Int32
	finished := make(chan struct{})
	b := Start(n, 4, func(i int) {
		visits[i].Add(1)
		if total.Add(1) == n {
			close(finished)
		}
	})
	<-finished
	b.Wait()
	for i := range visits {
		if got := visits[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

// TestFanOutNests: a fan-out started from inside another one (a matrix
// worker stepping a chain) completes and keeps the exactly-once guarantee,
// whether the inner one is a FanOut or a batch started and then joined.
func TestFanOutNests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const outer, inner = 8, 33
	var visits [outer][inner]atomic.Int32
	FanOut(outer, outer, func(i int) {
		visit := func(j int) { visits[i][j].Add(1) }
		if i%2 == 0 {
			FanOut(inner, inner, visit)
			return
		}
		Start(inner, inner, visit).Wait()
	})
	for i := range visits {
		for j := range visits[i] {
			if got := visits[i][j].Load(); got != 1 {
				t.Fatalf("slot %d/%d visited %d times", i, j, got)
			}
		}
	}
}
