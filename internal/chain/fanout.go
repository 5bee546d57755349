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
// batch signature admission and for sharded execution (RunSharded),
// Algorand for its proposer sortition (through Start); eth's Step also
// reads what its selection needs of the pending pool through it.
func FanOut(n, limit int, fn func(i int)) {
	if min(limit, runtime.GOMAXPROCS(0), n) <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	Start(n, limit, fn).Wait()
}

// Batch is a fan-out that Start launched and Wait finishes.
type Batch struct {
	n    int
	fn   func(i int)
	next atomic.Int64
	wg   sync.WaitGroup
}

// Start is FanOut split at the point where the caller would join: it
// launches min(limit, GOMAXPROCS, n) − 1 helper goroutines on fn and
// returns at once, so the caller can do other work while they run. Wait
// makes the caller the last worker. At a width of 1 no helper starts and
// Wait runs every index itself. A batch nobody waits for is simply
// dropped: its helpers finish the indices on their own and exit, and at
// width 1 nothing runs at all. The determinism rules of FanOut apply, and
// whatever fn writes must also be left alone until Wait returns.
func Start(n, limit int, fn func(i int)) *Batch {
	b := &Batch{n: n, fn: fn}
	for w := min(limit, runtime.GOMAXPROCS(0), n); w > 1; w-- {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.work()
		}()
	}
	return b
}

// Wait runs the indices no helper has claimed yet on the caller and
// returns once every fn(i) has finished.
func (b *Batch) Wait() {
	b.work()
	b.wg.Wait()
}

func (b *Batch) work() {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= b.n {
			return
		}
		b.fn(i)
	}
}
