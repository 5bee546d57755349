package chain_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"runtime"
	"sync"
	"testing"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/mstate"
)

// The conformance suite: each invariant a chain family must keep is one
// test in conformance_test.go that ranges over families, one subtest per
// family. A row of the table is written against the family's exported API
// alone (family_eth_test.go, family_algorand_test.go); an assertion that
// needs a family's unexported state stays a test of that family.
var families = []*family{ethFamily, algorandFamily}

// node is one chain of a family as the suite drives it: the family's
// client, its side of core.Family, plus the chain calls core.Family does
// not reach.
type node interface {
	core.Family
	Receipt(h chain.Hash32) (*chain.Receipt, bool)
	ShardStats() *chain.ShardStats
	step() sealed
	headHash() chain.Hash32
}

// sealed is what the suite reads of a block Step sealed.
type sealed struct {
	hash, root chain.Hash32
	items      []chain.Hash32
	proposer   any // eth: the proposer's address; Algorand: its whole credential
}

// opts says which chain a row's open builds.
type opts struct {
	seed uint64
	// viaOpen builds the chain with Open, as store, root and ck (a
	// MarshalCheckpoint blob) do; without any of them open is NewChain.
	viaOpen bool
	store   mstate.NodeStore
	root    mstate.Hash
	ck      []byte
	// calm takes the congestion model's background demand and spikes out
	// of an eth network, so that the base fee falls to its floor and
	// every block holds perBlock check-ins.
	calm     bool
	perBlock int
}

// tamper rewrites a checkpoint's pending entries, decoded from its JSON
// with numbers kept as json.Number, before Open reads them back; want is
// the error Open must return (errAny: some error).
type tamper struct {
	name string
	edit func(n node, alice *chain.Account, bob chain.Address, entries []any)
	want error
}

var (
	errAny = errors.New("any error")
	// errBadJSON is open's refusal of a blob that is not the family's
	// checkpoint JSON.
	errBadJSON = errors.New("not a checkpoint")
)

// family is one row of the table.
type family struct {
	name string
	open func(o opts) (node, error)
	// openVoters is Open on the reference network with n validators or
	// participants, which must fail with errNoVoters below one.
	openVoters  func(n int) error
	errNoVoters error
	// errCorruptState is Open's refusal of a store whose state is corrupt;
	// nil on a family whose Open has none.
	errCorruptState error
	// funds is what newAccounts gives each account, in base units.
	funds *big.Int

	// deployCheckins deploys count check-in contracts: a call bumps a
	// counter and returns it, checkinReturn bytes wide, logging checkinLogs
	// lines. checkin and transfer are from's signed nonce-th call and
	// payment.
	deployCheckins             func(tb testing.TB, n node, deployer *chain.Account, count int) []chain.Contract
	checkin                    func(n node, from *chain.Account, nonce uint64, at chain.Contract) chain.Item
	transfer                   func(n node, from *chain.Account, nonce uint64, to chain.Address, amount uint64) chain.Item
	checkinReturn, checkinLogs int
	// submitOne admits one item through Submit, not SubmitBatch, and forge
	// breaks an item's signature. A transfer uses transferGas, and costs
	// flatFee when that is set.
	submitOne   func(n node, item chain.Item) error
	forge       func(item chain.Item)
	transferGas uint64
	flatFee     *big.Int
	// explorer is the family's explorer rows naming the areas, in order;
	// nil on a family that keeps none.
	explorer func(n node, areas []chain.Contract) []any

	// Budgets per included check-in: Step's allocations, and the live heap
	// it costs retained. heapOnOneP: see onOneP.
	allocsPerCheckin, retainedPerCheckin int
	heapOnOneP                           bool
	emptyBlocks                          int // TestEmptyBlocksKeepNoHistory's

	// pendingKey is the checkpoint's JSON key for its pending entries;
	// tampers rewrite them, each with the refusal it must meet.
	pendingKey string
	tampers    []tamper
	// feeFold is the fee as the receipt fold hashes it, and blockTime the
	// simulated time between two blocks.
	feeFold   func(fee *big.Int) []byte
	blockTime func(n node) time.Duration
	// feesHeld is what fees put outside every account a test funded: the
	// validators' balances and the burn on eth, the fee sink on Algorand.
	feesHeld func(tb testing.TB, n node, seed uint64) *big.Int
	// payout deploys an area contract that pays 1 000 base units of its
	// escrow to wallet when called; escrow is the account to fund, and
	// call the signed call by user. A wallet starts with walletFunds.
	payout      func(tb testing.TB, n node, deployer *chain.Account, wallet chain.Address) (escrow chain.Address, call func(user *chain.Account) chain.Item)
	walletFunds int64

	// golden scripts every block-application path once at a fan-out width;
	// its end state is pinned by the three golden hashes.
	golden                        func(t *testing.T, shards int) node
	goldenDigest, goldenStateRoot string
	goldenHeadHash                string
	// mixed drives contract calls and transfers, with failures and a
	// creation inside the batches, through mixedBatches SubmitBatch calls
	// at a fan-out width. It returns the blocks it stepped and the receipts
	// of the creations the client sealed before them.
	mixed        func(t *testing.T, shards int) (node, []sealed, []*chain.Receipt)
	mixedBatches uint64
}

// fresh reports whether o asks for NewChain rather than Open.
func (o opts) fresh() bool {
	return !o.viaOpen && o.store == nil && o.root == (mstate.Hash{}) && o.ck == nil
}

// mustOpen is open that fails the test on an error.
func (f *family) mustOpen(tb testing.TB, o opts) node {
	tb.Helper()
	n, err := f.open(o)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// newAccounts derives count accounts from the seed's test key stream and
// funds each with f.funds, never touching the chain's rng.
func (f *family) newAccounts(n node, seed uint64, count int) []*chain.Account {
	rng := chain.NewRand(seed).Fork("test:keys")
	accts := make([]*chain.Account, count)
	for i := range accts {
		accts[i] = chain.NewAccount(rng)
		n.Fund(accts[i].Address, f.funds)
	}
	return accts
}

// submit submits items as one batch and fails on any refusal.
func submit(tb testing.TB, n node, items ...chain.Item) {
	tb.Helper()
	for i, err := range n.SubmitItems(items) {
		if err != nil {
			tb.Fatalf("item %d: %v", i, err)
		}
	}
}

// drain steps until nothing is pending, and returns the blocks it sealed.
func drain(tb testing.TB, n node) (blocks []sealed) {
	tb.Helper()
	for i := 0; n.PendingCount() > 0; i++ {
		if i == 20 {
			tb.Fatalf("%d items never included", n.PendingCount())
		}
		blocks = append(blocks, n.step())
	}
	return blocks
}

// position is the checkpoint's shared part: the receipt accumulator,
// clock and rng position.
func position(tb testing.TB, n node) chain.Position {
	tb.Helper()
	blob, err := n.MarshalCheckpoint()
	if err != nil {
		tb.Fatal(err)
	}
	var p chain.Position
	if err := json.Unmarshal(blob, &p); err != nil {
		tb.Fatal(err)
	}
	return p
}

// batchWorld is a chain of fan-out width two whose blocks each carry one
// check-in per user, spread over 64 check-in contracts — the shape of the
// soak's check-in: a counter's read-modify-write and its return value.
// The items are signed and admitted before the block is stepped, so the
// heap and allocation measurements below are about Step and what it
// leaves behind, not the load generator or admission.
type batchWorld struct {
	f     *family
	n     node
	users []*chain.Account
	areas []chain.Contract
	nonce uint64 // every user has sent this many check-ins

	// recent is the item hashes of the last retention+1 blocks step sealed,
	// oldest first: the window and the block just before it.
	recent [][]chain.Hash32
}

func newBatchWorld(tb testing.TB, f *family, users, retention int) *batchWorld {
	tb.Helper()
	w := &batchWorld{f: f, n: f.mustOpen(tb, opts{seed: 7, calm: true, perBlock: users}), recent: make([][]chain.Hash32, 0, retention+1)}
	accts := f.newAccounts(w.n, 7, users+1)
	w.areas = f.deployCheckins(tb, w.n, accts[0], 64)
	w.users = accts[1:]
	w.n.SetShards(2)
	w.n.SetRetention(retention)
	return w
}

// queue signs the next block's check-ins on two goroutines and submits
// them.
func (w *batchWorld) queue(tb testing.TB) {
	tb.Helper()
	items := make([]chain.Item, len(w.users))
	chain.FanOut(len(items), 2, func(i int) {
		items[i] = w.f.checkin(w.n, w.users[i], w.nonce, w.areas[i%len(w.areas)])
	})
	submit(tb, w.n, items...)
	w.nonce++
}

// step seals the queued block and checks that it took every check-in.
func (w *batchWorld) step(tb testing.TB) sealed {
	tb.Helper()
	blk := w.n.step()
	if len(blk.items) != len(w.users) || w.n.PendingCount() != 0 {
		tb.Fatalf("a block took %d of %d check-ins", len(blk.items), len(w.users))
	}
	if len(w.recent) == cap(w.recent) {
		copy(w.recent, w.recent[1:])
		w.recent = w.recent[:len(w.recent)-1]
	}
	w.recent = append(w.recent, blk.items)
	return blk
}

// blocks queues and seals k blocks.
func (w *batchWorld) blocks(tb testing.TB, k int) {
	tb.Helper()
	for i := 0; i < k; i++ {
		w.queue(tb)
		w.step(tb)
	}
}

// retained counts the check-ins of the recent blocks whose receipts the
// chain still holds: the window's, and none of the block before it.
func (w *batchWorld) retained() (items int) {
	for _, hashes := range w.recent {
		for _, h := range hashes {
			if _, ok := w.n.Receipt(h); ok {
				items++
			}
		}
	}
	return items
}

// lowHeap seals k more blocks, on one P where the family's readings need
// it (onOneP), and returns the least live heap read after any of them.
// Where one reading falls in the receipt log's chunk cycle moves it by up
// to a chunk; the least of several is the window's floor.
func (w *batchWorld) lowHeap(tb testing.TB, k int) uint64 {
	defer w.f.onOneP()()
	low := uint64(math.MaxUint64)
	for i := 0; i < k; i++ {
		w.blocks(tb, 1)
		low = min(low, heapAfterGC())
	}
	return low
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

// onOneP pins GOMAXPROCS to 1 on a family whose heap readings need it,
// and returns what undoes it: on Algorand a reading on more Ps also counts
// the spans cached by the P the next round's sortition runs on (up to
// 16 KB).
func (f *family) onOneP() func() {
	if !f.heapOnOneP {
		return func() {}
	}
	procs := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(procs) }
}

// fillGoroutineFreeLists starts and ends 64 goroutines per P, plus 128,
// at once, so that the fan-outs' helpers between two heap readings reuse
// descriptors instead of allocating them: the runtime never frees one, and
// a P keeps up to 63 exited ones (≈ 25 KB over 200 blocks on two Ps).
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

// retainedBytesPerCheckin is what keeping one more included check-in
// costs: two worlds seal the same 2 000-check-in blocks, one retaining 16
// blocks and one retaining a single block, each is weighed by the live
// heap with and without it reachable, and the difference — fifteen blocks
// of records and index entries over the same state — is divided by the
// check-ins it holds. The world's own record of recent blocks is dropped
// before the weighing: the chain keeps no block but its head.
func retainedBytesPerCheckin(tb testing.TB, f *family) float64 {
	weigh := func(retention int) (bytes int64, items int) {
		w := newBatchWorld(tb, f, 2000, retention)
		w.blocks(tb, 18)
		head := w.recent[len(w.recent)-1]
		if rc, ok := w.n.Receipt(head[0]); !ok || rc.Reverted || len(rc.ReturnValue) != f.checkinReturn || len(rc.Logs) != f.checkinLogs {
			tb.Fatalf("check-in receipt: %v %+v", ok, rc)
		}
		items = w.retained()
		w.recent = nil
		with := heapAfterGC()
		runtime.KeepAlive(w)
		w = nil
		return int64(with) - int64(heapAfterGC()), items
	}
	wide, wideItems := weigh(16)
	narrow, narrowItems := weigh(1)
	if wideItems != 16*2000 || narrowItems != 2000 {
		tb.Fatalf("worlds retain %d and %d check-ins", wideItems, narrowItems)
	}
	return float64(wide-narrow) / float64(wideItems-narrowItems)
}

// jsonValue is v as the tampers see a checkpoint: decoded JSON with its
// numbers kept exact. v is a test's own value, so neither step can fail.
func jsonValue(v any) any {
	blob, _ := json.Marshal(v)
	out, _ := decodeJSON(blob)
	return out
}

// decodeJSON decodes blob into plain values, numbers as json.Number.
func decodeJSON(blob []byte) (any, error) {
	d := json.NewDecoder(bytes.NewReader(blob))
	d.UseNumber()
	var v any
	err := d.Decode(&v)
	return v, err
}

// BenchmarkStepEmpty is one block with nothing pending on each family:
// Goerli's proposer selection and background demand, Testnet's proposer
// sortition (one VRF per participant), the state root and the block hash
// — what every block costs before it carries an item.
func BenchmarkStepEmpty(b *testing.B) {
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			n := f.mustOpen(b, opts{seed: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.step()
			}
		})
	}
}

// BenchmarkStepBatch is one 2 000-check-in block per iteration on each
// family. On eth: the selection reads (on up to two cores), sort,
// selection, execution and inclusion in canonical order, the proposer
// credit and the state root; on Algorand: the proposer sortition (the next
// round's on a second core, when there is one), execution in canonical
// order in the round's overlay and the round's tail. Signing and
// admitting the block's check-ins happens off the clock; run it at
// -cpu 1,2 to see what the second core buys.
func BenchmarkStepBatch(b *testing.B) {
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			w := newBatchWorld(b, f, 2000, 16)
			w.blocks(b, 3)
			var m0, m1 runtime.MemStats
			var bytes, allocs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w.queue(b)
				runtime.ReadMemStats(&m0)
				b.StartTimer()
				w.step(b)
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				bytes += m1.TotalAlloc - m0.TotalAlloc
				allocs += m1.Mallocs - m0.Mallocs
				b.StartTimer()
			}
			items := float64(b.N * len(w.users))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/items, "ns/tx")
			b.ReportMetric(float64(bytes)/items, "B/tx")
			b.ReportMetric(float64(allocs)/items, "allocs/tx")
		})
	}
}

// BenchmarkRetainedPerTx reports the number TestRetainedBytesPerIncludedTx
// bounds. Nothing is timed.
func BenchmarkRetainedPerTx(b *testing.B) {
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(retainedBytesPerCheckin(b, f), "B/tx")
		})
	}
}
