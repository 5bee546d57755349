package eth

import (
	"math"
	"math/big"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
)

// checkinCode counts calls per caller and returns the new count as one ABI
// word — the shape of the soak's check-in: two storage accesses, a 32-byte
// return value, no logs.
func checkinCode(tb testing.TB) []byte {
	tb.Helper()
	a := evm.NewAssembler()
	a.Op(evm.CALLER).Op(evm.SLOAD).PushUint(1).Op(evm.ADD)
	a.Op(evm.DUP1).Op(evm.CALLER).Op(evm.SSTORE)
	a.PushUint(0).Op(evm.MSTORE).PushUint(32).PushUint(0).Op(evm.RETURN)
	code, err := a.Assemble()
	if err != nil {
		tb.Fatal(err)
	}
	return code
}

// batchWorld is a chain of fan-out width two whose blocks each carry one
// check-in per user, spread over 64 area contracts. Transactions enter the mempool as
// already-admitted entries: signing and signature verification are the load
// generator's and the admission pipeline's cost, not Step's, and the heap
// and benchmark measurements below are about Step and what it leaves
// behind.
type batchWorld struct {
	c     *Chain
	users []chain.Address
	areas []chain.Address
	nonce uint64 // every user has sent this many transactions

	// recent is the last retention+1 blocks step sealed, oldest first:
	// the window and the block just before it (retained).
	recent []*Block
}

const batchGasLimit = 90_000

func newBatchWorld(tb testing.TB, users, retention int) *batchWorld {
	cfg := Goerli()
	cfg.CongestionMeanGas = 1_000_000
	cfg.SpikeProb = 0
	cfg.CongestionElasticity = 0 // the base fee falls to its floor; demand must not rise to meet it
	cfg.BlockGasLimit = max(cfg.BlockGasLimit, uint64(users)*2*batchGasLimit)
	w := &batchWorld{c: NewChain(cfg, 7), recent: make([]*Block, 0, retention+1)}
	w.c.SetShards(2)
	w.c.SetRetention(retention)
	code := checkinCode(tb)
	for i := 0; i < 64; i++ {
		area := chain.AddressFromBytes([]byte{'a', byte(i)})
		w.c.st.SetCode(area, code)
		w.areas = append(w.areas, area)
	}
	for i := 0; i < users; i++ {
		user := chain.AddressFromBytes([]byte{'u', byte(i), byte(i >> 8)})
		w.c.Fund(user, eth(1))
		w.users = append(w.users, user)
	}
	return w
}

// queue puts the next block's check-ins into the mempool.
func (w *batchWorld) queue() {
	tip := big.NewInt(2_000_000_000)
	maxFee := new(big.Int).Add(new(big.Int).Mul(w.c.BaseFee(), big.NewInt(2)), tip)
	entries := make([]*chain.Pending[*Tx], len(w.users))
	for i, u := range w.users {
		entries[i] = &chain.Pending[*Tx]{
			Item: &Tx{
				From: u, Nonce: w.nonce, To: &w.areas[i%len(w.areas)],
				Value: new(big.Int), GasLimit: batchGasLimit, MaxFee: maxFee, MaxTip: tip,
			},
			Submitted: w.c.Now(),
		}
	}
	w.c.pool.Restore(entries)
	w.nonce++
}

// step seals the queued block and checks that it took every check-in.
func (w *batchWorld) step(tb testing.TB) *Block {
	blk := w.c.Step()
	if len(blk.TxHashes) != len(w.users) || w.c.PendingCount() != 0 {
		tb.Fatalf("block %d took %d of %d check-ins", blk.Number, len(blk.TxHashes), len(w.users))
	}
	if len(w.recent) == cap(w.recent) {
		copy(w.recent, w.recent[1:])
		w.recent = w.recent[:len(w.recent)-1]
	}
	w.recent = append(w.recent, blk)
	return blk
}

// retained counts the transactions of the recent blocks whose receipts the
// chain still holds: the window's, and none of the block before it.
func (w *batchWorld) retained() (txs int) {
	for _, blk := range w.recent {
		for _, h := range blk.TxHashes {
			if _, ok := w.c.Receipt(h); ok {
				txs++
			}
		}
	}
	return txs
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

// retainedBytesPerTx is what keeping one more included transaction costs:
// two worlds seal the same 2 000-check-in blocks, one retaining 16 blocks
// and one retaining a single block, each is weighed by the live heap with
// and without it reachable, and the difference — fifteen blocks of rows
// and index entries over the same state — is divided by the transactions
// it holds. The world's own record of recent blocks is dropped before
// the weighing: the chain keeps no block but its head.
func retainedBytesPerTx(tb testing.TB) float64 {
	weigh := func(retention int) (bytes int64, txs int) {
		w := newBatchWorld(tb, 2000, retention)
		for i := 0; i < 18; i++ {
			w.queue()
			w.step(tb)
		}
		if rc, ok := w.c.Receipt(w.c.Head().TxHashes[0]); !ok || rc.Reverted || len(rc.ReturnValue) != 32 {
			tb.Fatalf("check-in receipt: %v %+v", ok, rc)
		}
		txs = w.retained()
		w.recent = nil
		with := heapAfterGC()
		runtime.KeepAlive(w)
		w = nil
		return int64(with) - int64(heapAfterGC()), txs
	}
	wide, wideTxs := weigh(16)
	narrow, narrowTxs := weigh(1)
	if wideTxs != 16*2000 || narrowTxs != 2000 {
		tb.Fatalf("worlds retain %d and %d transactions", wideTxs, narrowTxs)
	}
	return float64(wide-narrow) / float64(wideTxs-narrowTxs)
}

// TestRetainedBytesPerIncludedTx bounds what a node keeps per retained
// transaction: its record (receipt and explorer columns) and its index
// entry. Before the row log it was ≈ 590 B in six or seven heap objects,
// 210 B while every block body kept a 32-byte slot per transaction, 177 B
// while the log stored a check-in's return word with its 30 leading zero
// bytes and its index doubled at half load, 132 B while each row was a
// fixed 64-byte struct and each index slot eight bytes, 110 B while the
// explorer columns held sender and target as raw 20-byte addresses, and
// 72 B while every record kept its own five-byte submit delay.
func TestRetainedBytesPerIncludedTx(t *testing.T) {
	// Measured 68.55 B (record ≈ 56, of it 9 explorer columns with a
	// two-byte user id and a one-byte area id; its offset 4, index 8);
	// the budget is that plus 10 %.
	const budget = 76
	if got := retainedBytesPerTx(t); got > budget {
		t.Fatalf("a retained transaction costs %.0f B, budget %d B", got, budget)
	} else {
		t.Logf("%.0f B per retained transaction", got)
	}
}

// TestStepAllocsPerIncludedTx bounds what Step allocates per included
// check-in on batchWorld's 2 000-check-in block: trie leaves and their
// hashes, the encoded balances, the nonce and storage writes, the
// receipt's fee and the interpreter's return data. It measures 17.2, and
// the budget is 18.
func TestStepAllocsPerIncludedTx(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget, blocks = 18, 4
	w := newBatchWorld(t, 2000, 16)
	for i := 0; i < 3; i++ {
		w.queue()
		w.step(t)
	}
	var m0, m1 runtime.MemStats
	var allocs uint64
	for i := 0; i < blocks; i++ {
		w.queue()
		runtime.ReadMemStats(&m0)
		w.step(t)
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
	}
	if got := float64(allocs) / float64(blocks*len(w.users)); got > budget {
		t.Fatalf("Step allocates %.2f times per included check-in, budget %d", got, budget)
	} else {
		t.Logf("%.2f allocations per included check-in", got)
	}
}

// TestFoldAheadMatchesInline: a block whose receipts a helper goroutine
// folds while the block executes is the same block as one whose receipts
// are folded inline. Four blocks of 100 check-ins (above the helper's
// threshold: a full batch of its ring and a partial one) with a retention
// of two, so that the window is pruned, are sealed at GOMAXPROCS 1 and 2.
// Every block's digest and state root, every receipt of every block (the
// pruned ones absent on both sides) and the explorer rows, in order, with
// their columns, must agree.
func TestFoldAheadMatchesInline(t *testing.T) {
	type sealed struct {
		digests, roots []chain.Hash32
		receipts       []*chain.Receipt // of every block's check-ins, nil once pruned
		cols           [][]byte
		rows           []*chain.Receipt
	}
	seal := func(procs int) (s sealed) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w := newBatchWorld(t, 100, 2)
		var hashes []chain.Hash32
		for i := 0; i < 4; i++ {
			w.queue()
			blk := w.step(t)
			s.digests = append(s.digests, w.c.Digest())
			s.roots = append(s.roots, blk.StateRoot)
			hashes = append(hashes, blk.TxHashes...)
		}
		for _, h := range hashes {
			rc, _ := w.c.Receipt(h)
			s.receipts = append(s.receipts, rc)
		}
		w.c.rcpts.Each(func(cols []byte, receipt func() *chain.Receipt) {
			s.cols = append(s.cols, slices.Clone(cols))
			s.rows = append(s.rows, receipt())
		})
		return s
	}
	inline, folded := seal(1), seal(2)
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
	if len(inline.rows) != 200 || !reflect.DeepEqual(inline.cols, folded.cols) || !reflect.DeepEqual(inline.rows, folded.rows) {
		t.Fatalf("explorer rows: %d inline, %d folded ahead, or they differ", len(inline.rows), len(folded.rows))
	}
}

// lowHeap seals n more blocks and returns the least live heap read after
// any of them. Where one reading falls in the receipt log's chunk cycle
// moves it by up to a chunk; the least of several is the window's floor.
func (w *batchWorld) lowHeap(tb testing.TB, n int) uint64 {
	low := uint64(math.MaxUint64)
	for i := 0; i < n; i++ {
		w.queue()
		w.step(tb)
		low = min(low, heapAfterGC())
	}
	return low
}

// fillGoroutineFreeLists starts and ends 64 goroutines per P, plus 128,
// at once. The runtime never frees a goroutine's descriptor (448 B): an
// exited one waits on its P's free list, up to 63 of them, before other Ps
// may reuse it. The fan-outs of admission and selection start a helper
// each, which often exits on another P, so until enough descriptors
// circulate new ones are allocated between two heap readings — ≈ 25 KB
// over TestRetentionHeapFlat's 200 blocks on two Ps, most of its bound.
func fillGoroutineFreeLists() {
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 64*(runtime.GOMAXPROCS(0)+2); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	close(release)
	wg.Wait()
}

// TestRetentionHeapFlat: once the retention window is full, sealing more
// blocks does not grow the heap — records, index entries and spans of
// pruned blocks really go away. The explorer's address table, which is
// not pruned, holds each sender and target once: it grows with the
// accounts, not with the blocks.
func TestRetentionHeapFlat(t *testing.T) {
	fillGoroutineFreeLists()
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
	if got, want := len(w.c.addrs.addrs), len(w.users)+len(w.areas); got != want {
		t.Fatalf("the address table holds %d addresses after 236 blocks, want the %d senders and targets", got, want)
	}
	if perTx := float64(grown) / float64(w.retained()); perTx > 8 {
		t.Fatalf("200 further blocks grew the heap by %d B (%.1f B per retained transaction)", grown, perTx)
	} else {
		t.Logf("%d B (%.1f B per retained transaction)", grown, perTx)
	}
}

// TestEmptyBlocksKeepNoHistory: with retention off, the chain still keeps
// only its head block, so sealing empty blocks leaves the live heap where
// it was. Keeping every block body cost ≈ 218 B a block.
func TestEmptyBlocksKeepNoHistory(t *testing.T) {
	const blocks, budget = 4000, 32
	c := newTestChain(t)
	for i := 0; i < 10; i++ {
		c.Step()
	}
	before := heapAfterGC()
	for i := 0; i < blocks; i++ {
		c.Step()
	}
	grown := int64(heapAfterGC()) - int64(before)
	runtime.KeepAlive(c)
	if per := float64(grown) / blocks; per >= budget {
		t.Fatalf("%d empty blocks grew the heap by %d B (%.1f B a block, budget %d)", blocks, grown, per, budget)
	} else {
		t.Logf("%.1f B per empty block", per)
	}
}

// BenchmarkStepBatch is one 2 000-check-in block per iteration: the
// selection reads (on up to two cores), sort, selection, execution and
// inclusion in canonical order, the proposer credit and the state root.
// Queueing the block happens off the clock; run it at -cpu 1,2 to see what
// the second core buys.
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
