package chain

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// FanOut runs fn(i) for every i in [0, n) on up to min(limit, GOMAXPROCS, n)
// goroutines and returns once all calls have finished. The caller is one of
// the workers, and with a width of 1 everything runs inline, so a
// single-core process pays nothing for it. Indices are claimed from a
// shared counter, so which goroutine runs which index is unspecified:
// callers get scheduling-independent results by having fn(i) write only
// slot i of a slice sized before the call and by drawing no randomness,
// fault or telemetry state inside fn. Both chain families use it for
// consensus signing and for batch signature admission.
func FanOut(n, limit int, fn func(i int)) {
	workers := min(limit, runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
