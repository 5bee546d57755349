package hypercube

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentAccess hammers the DHT from many goroutines; run with
// -race this doubles as the synchronization check for the shared network.
func TestConcurrentAccess(t *testing.T) {
	const r = 8
	n := MustNew(r)
	const workers = 16
	const opsPerWorker = 200
	var wg sync.WaitGroup
	var hops, want atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				target := uint64((w*31 + i*17) % (1 << r))
				via := uint64((w + i) % (1 << r))
				key := fmt.Sprintf("area-%d", target)
				var h int
				var err error
				switch i % 3 {
				case 0:
					h, err = n.Put(via, target, key, &Entry{OLC: key, ContractID: "c"})
				case 1:
					_, h, _, err = n.Get(via, target, key)
				default:
					h, err = n.AppendCID(via, target, key, "c", fmt.Sprintf("bafy-%d-%d", w, i))
				}
				if err != nil {
					t.Error(err)
					return
				}
				hops.Add(int64(h))
				want.Add(int64(bits.OnesCount64(via ^ target)))
			}
		}(w)
	}
	wg.Wait()
	if hops.Load() != want.Load() {
		t.Fatalf("%d hops travelled, want the %d of greedy routing", hops.Load(), want.Load())
	}
}
