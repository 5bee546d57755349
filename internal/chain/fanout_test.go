package chain

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestFanOutVisitsEveryIndexOnce: whatever the width, fn runs exactly once
// per index and FanOut returns only after all of them have.
func TestFanOutVisitsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 17, 1000} {
			for _, limit := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("procs=%d/n=%d/limit=%d", procs, n, limit), func(t *testing.T) {
					visits := make([]atomic.Int32, n)
					FanOut(n, limit, func(i int) { visits[i].Add(1) })
					for i := range visits {
						if got := visits[i].Load(); got != 1 {
							t.Fatalf("index %d visited %d times", i, got)
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
// 1 pays for no goroutine.
func TestFanOutInlineAtWidthOne(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var order []int // unsynchronised on purpose: -race flags any second goroutine
	FanOut(50, 1, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("position %d ran index %d", i, got)
		}
	}
	if len(order) != 50 {
		t.Fatalf("ran %d of 50 indices", len(order))
	}
}

// TestFanOutNests: a fan-out started from inside another one (a matrix
// worker stepping a chain) completes and keeps the exactly-once guarantee.
func TestFanOutNests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const outer, inner = 8, 33
	var visits [outer][inner]atomic.Int32
	FanOut(outer, outer, func(i int) {
		FanOut(inner, inner, func(j int) { visits[i][j].Add(1) })
	})
	for i := range visits {
		for j := range visits[i] {
			if got := visits[i][j].Load(); got != 1 {
				t.Fatalf("slot %d/%d visited %d times", i, j, got)
			}
		}
	}
}
