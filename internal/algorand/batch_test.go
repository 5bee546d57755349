package algorand

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
)

// batchWorld is a chain of fan-out width two whose rounds each carry one
// counter call per user, spread over 64 applications — the shape of the soak's check-in:
// a global read-modify-write, one log, an 8-byte return value. Groups enter
// the pending pool as already-admitted entries: signing and signature
// verification are the load generator's and the admission pipeline's cost,
// not Step's, and the heap and benchmark measurements below are about Step
// and what it leaves behind.
type batchWorld struct {
	c     *Chain
	users []chain.Address
	apps  []uint64
	round uint64

	// recent is the last retention+1 rounds step certified, oldest first:
	// the window and the round just before it (retained).
	recent []*Block
}

func newBatchWorld(tb testing.TB, users, retention int) *batchWorld {
	w := &batchWorld{c: NewChain(Testnet(), 7), recent: make([]*Block, 0, retention+1)}
	w.c.SetShards(2)
	w.c.SetRetention(retention)
	cl := NewClient(w.c)
	deployer := w.c.NewAccount(100_000_000)
	for i := 0; i < 64; i++ {
		_, id, err := cl.createApp(deployer, counterApp, nil)
		if err != nil {
			tb.Fatal(err)
		}
		w.apps = append(w.apps, id)
	}
	for i := 0; i < users; i++ {
		user := chain.AddressFromBytes([]byte{'u', byte(i), byte(i >> 8)})
		w.c.Fund(user, 1_000_000_000)
		w.users = append(w.users, user)
	}
	return w
}

// queue puts the next round's calls into the pending pool. The round number
// rides along as an unused argument: Algorand transactions carry no nonce,
// so without it every round would repeat the same group hashes.
func (w *batchWorld) queue() {
	w.round++
	entries := make([]*chain.Pending[Group], len(w.users))
	for i, u := range w.users {
		entries[i] = &chain.Pending[Group]{
			Item: Group{{
				Type: TxAppCall, Sender: u, Fee: MinFee, AppID: w.apps[i%len(w.apps)],
				Args: [][]byte{[]byte("bump"), avm.Itob(w.round)},
			}},
			Submitted: w.c.Now(),
		}
	}
	w.c.pool.Restore(entries)
}

// step certifies the queued round and checks that it took every call.
func (w *batchWorld) step(tb testing.TB) *Block {
	blk := w.c.Step()
	if len(blk.Groups) != len(w.users) || w.c.PendingCount() != 0 {
		tb.Fatalf("round %d took %d of %d groups", blk.Round, len(blk.Groups), len(w.users))
	}
	if len(w.recent) == cap(w.recent) {
		copy(w.recent, w.recent[1:])
		w.recent = w.recent[:len(w.recent)-1]
	}
	w.recent = append(w.recent, blk)
	return blk
}

// retained counts the groups of the recent rounds whose receipts the chain
// still holds: the window's, and none of the round before it.
func (w *batchWorld) retained() (groups int) {
	for _, blk := range w.recent {
		for _, h := range blk.Groups {
			if _, ok := w.c.Receipt(h); ok {
				groups++
			}
		}
	}
	return groups
}

// TestFoldAheadMatchesInline: a round whose receipts a helper goroutine
// folds while the round executes is the same round as one whose receipts
// are folded inline. Four rounds of 100 calls (above the helper's
// threshold: a full batch of its ring and a partial one) with a retention
// of two, so that the window is pruned, are certified at GOMAXPROCS 1 and
// 2. Every round's digest and state root, every receipt of every round
// (the pruned ones absent on both sides) and what Each visits, in order,
// must agree: nothing, since Algorand keeps no side bytes.
func TestFoldAheadMatchesInline(t *testing.T) {
	type certified struct {
		digests, roots []chain.Hash32
		receipts       []*chain.Receipt // of every round's calls, nil once pruned
		sides          [][]byte
	}
	certify := func(procs int) (s certified) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w := newBatchWorld(t, 100, 2)
		var hashes []chain.Hash32
		for i := 0; i < 4; i++ {
			w.queue()
			blk := w.step(t)
			s.digests = append(s.digests, w.c.Digest())
			s.roots = append(s.roots, blk.StateRoot)
			hashes = append(hashes, blk.Groups...)
		}
		for _, h := range hashes {
			rc, _ := w.c.Receipt(h)
			s.receipts = append(s.receipts, rc)
		}
		w.c.rcpts.Each(func(side []byte, _ func() *chain.Receipt) { s.sides = append(s.sides, slices.Clone(side)) })
		return s
	}
	inline, folded := certify(1), certify(2)
	if !slices.Equal(inline.digests, folded.digests) || !slices.Equal(inline.roots, folded.roots) {
		t.Fatalf("digests %x / roots %x inline, %x / %x folded ahead", inline.digests, inline.roots, folded.digests, folded.roots)
	}
	if held := slices.IndexFunc(inline.receipts, func(rc *chain.Receipt) bool { return rc != nil }); held != 200 {
		t.Fatalf("the first retained receipt is the %dth, want the 200th: the window was not pruned", held)
	}
	for i := range inline.receipts {
		if !reflect.DeepEqual(inline.receipts[i], folded.receipts[i]) {
			t.Fatalf("receipt %d: inline %+v, folded ahead %+v", i, inline.receipts[i], folded.receipts[i])
		}
	}
	if len(inline.sides) != 0 || len(folded.sides) != 0 {
		t.Fatalf("Each visits %d rows inline, %d folded ahead", len(inline.sides), len(folded.sides))
	}
}

// heapAfterGC is the live heap: what is still reachable after a full
// collection.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle may still be sweeping finalizer-held blocks
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// retainedBytesPerTx is what keeping one more included group costs: two
// worlds certify the same 2 000-call rounds, one retaining 16 rounds and one
// retaining a single round, each is weighed by the live heap with and
// without it reachable, and the difference — fifteen rounds of rows and
// index entries over the same ledger — is divided by the groups it holds.
// The world's own record of recent rounds is dropped before the weighing:
// the chain keeps no round but its head.
func retainedBytesPerTx(tb testing.TB) float64 {
	weigh := func(retention int) (bytes int64, groups int) {
		w := newBatchWorld(tb, 2000, retention)
		for i := 0; i < 18; i++ {
			w.queue()
			w.step(tb)
		}
		if rc, ok := w.c.Receipt(w.c.Head().Groups[0]); !ok || rc.Reverted || len(rc.ReturnValue) != 8 || len(rc.Logs) != 1 {
			tb.Fatalf("call receipt: %v %+v", ok, rc)
		}
		groups = w.retained()
		w.recent = nil
		with := heapAfterGC()
		runtime.KeepAlive(w)
		w = nil
		return int64(with) - int64(heapAfterGC()), groups
	}
	wide, wideGroups := weigh(16)
	narrow, narrowGroups := weigh(1)
	if wideGroups != 16*2000 || narrowGroups != 2000 {
		tb.Fatalf("worlds retain %d and %d groups", wideGroups, narrowGroups)
	}
	return float64(wide-narrow) / float64(wideGroups-narrowGroups)
}

// TestRetainedBytesPerIncludedTx bounds what a node keeps per retained
// group: its record and its index entry. Before the row log it was a
// heap-allocated receipt with its fee, log and return-value objects behind
// a pointer map, 157 B while every round kept a 32-byte slot per group,
// 124 B while the log stored an 8-byte return value with its leading zero
// bytes and its index doubled at half load, 101 B while each row was a
// fixed 64-byte struct and each index slot eight bytes, and 74 B while a
// record kept its "return:" log line beside the return value and its own
// five-byte submit delay.
func TestRetainedBytesPerIncludedTx(t *testing.T) {
	// Measured 54 B (record 42, its offset 4, index 8); the budget is that
	// plus 10 %.
	const budget = 60
	if got := retainedBytesPerTx(t); got > budget {
		t.Fatalf("a retained group costs %.0f B, budget %d B", got, budget)
	} else {
		t.Logf("%.0f B per retained group", got)
	}
}

// TestStepAllocsPerIncludedTx bounds what Step allocates per included
// call on batchWorld's 2 000-call round, executed in canonical order in
// one overlay. It measures 18.52, and the budget is that plus ≈ 3 %.
func TestStepAllocsPerIncludedTx(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget, rounds = 19, 4
	w := newBatchWorld(t, 2000, 16)
	for i := 0; i < 3; i++ {
		w.queue()
		w.step(t)
	}
	var m0, m1 runtime.MemStats
	var allocs uint64
	for i := 0; i < rounds; i++ {
		w.queue()
		runtime.ReadMemStats(&m0)
		w.step(t)
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
	}
	if got := float64(allocs) / float64(rounds*len(w.users)); got > budget {
		t.Fatalf("Step allocates %.2f times per included call, budget %d", got, budget)
	} else {
		t.Logf("%.2f allocations per included call", got)
	}
}

// lowHeap certifies n more rounds and returns the least live heap read
// after any of them. Where one reading falls in the receipt log's chunk
// cycle moves it by up to a chunk; the least of several is the window's
// floor.
func (w *batchWorld) lowHeap(tb testing.TB, n int) uint64 {
	low := uint64(math.MaxUint64)
	for i := 0; i < n; i++ {
		w.queue()
		w.step(tb)
		low = min(low, heapAfterGC())
	}
	return low
}

// TestRetentionHeapFlat: once the retention window is full, certifying more
// rounds does not grow the heap — records, index entries and spans of
// pruned rounds really go away.
func TestRetentionHeapFlat(t *testing.T) {
	// On one P: with more, the readings also count whatever partly used
	// allocation spans the other Ps' caches hold, since the next round's
	// sortition runs there, and the second ran up to 16 KB (half this
	// bound) above its usual value.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := newBatchWorld(t, 250, 16)
	for i := 0; i < 20; i++ {
		w.queue()
		w.step(t)
	}
	before := w.lowHeap(t, 8)
	for i := 0; i < 200; i++ {
		w.queue()
		w.step(t)
	}
	grown := int64(w.lowHeap(t, 8)) - int64(before)
	runtime.KeepAlive(w)
	if perTx := float64(grown) / float64(w.retained()); perTx > 8 {
		t.Fatalf("200 further rounds grew the heap by %d B (%.1f B per retained group)", grown, perTx)
	} else {
		t.Logf("%d B (%.1f B per retained group)", grown, perTx)
	}
}

// TestEmptyRoundsKeepNoHistory: with retention off, the chain still keeps
// only its head round, so certifying empty rounds leaves the live heap
// where it was. Keeping every round cost ≈ 276 B a round.
func TestEmptyRoundsKeepNoHistory(t *testing.T) {
	// On one P, for TestRetentionHeapFlat's reason.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds, budget = 500, 32
	c := newTestChain(t)
	for i := 0; i < 10; i++ {
		c.Step()
	}
	before := heapAfterGC()
	for i := 0; i < rounds; i++ {
		c.Step()
	}
	grown := int64(heapAfterGC()) - int64(before)
	runtime.KeepAlive(c)
	if per := float64(grown) / rounds; per >= budget {
		t.Fatalf("%d empty rounds grew the heap by %d B (%.1f B a round, budget %d)", rounds, grown, per, budget)
	} else {
		t.Logf("%.1f B per empty round", per)
	}
}

// BenchmarkStepBatch is one 2 000-call round per iteration: the proposer
// sortition (the next round's on a second core, when there is one),
// execution in canonical order in the round's overlay and the round's
// tail. Queueing the round happens off the clock; run it at -cpu 1,2 to
// see what the second core buys.
func BenchmarkStepBatch(b *testing.B) {
	w := newBatchWorld(b, 2000, 16)
	for i := 0; i < 3; i++ {
		w.queue()
		w.step(b)
	}
	var m0, m1 runtime.MemStats
	var bytes, allocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.queue()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		w.step(b)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		allocs += m1.Mallocs - m0.Mallocs
		b.StartTimer()
	}
	txs := float64(b.N * len(w.users))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/txs, "ns/tx")
	b.ReportMetric(float64(bytes)/txs, "B/tx")
	b.ReportMetric(float64(allocs)/txs, "allocs/tx")
}

// BenchmarkRetainedPerTx reports the number TestRetainedBytesPerIncludedTx
// bounds. Nothing is timed.
func BenchmarkRetainedPerTx(b *testing.B) {
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(retainedBytesPerTx(b), "B/tx")
}
