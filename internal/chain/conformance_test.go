package chain_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/faults"
	"agnopol/internal/lang"
	"agnopol/internal/mstate"
	"agnopol/internal/mstate/diskstore"
	"agnopol/internal/polcrypto"
)

// eachFamily runs test as one subtest per family.
func eachFamily(t *testing.T, test func(t *testing.T, f *family)) {
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) { test(t, f) })
	}
}

// newStore is an empty node store of the named backend.
func newStore(t *testing.T, backend string) (mstate.NodeStore, *diskstore.Store) {
	t.Helper()
	if backend == "memstore" {
		return mstate.NewMemStore(), nil
	}
	d, err := diskstore.Open(t.TempDir(), diskstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, d
}

// commit commits n's state to store and returns the root with n's
// checkpoint blob.
func commit(t testing.TB, n node, store mstate.NodeStore) (mstate.Hash, []byte) {
	t.Helper()
	blob, err := n.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	root, err := n.CommitState(store)
	if err != nil {
		t.Fatal(err)
	}
	return root, blob
}

// TestOpenContinuesBitIdentically: run → checkpoint with an item in flight
// → commit the state → reopen from the root → continue, and the resumed
// chain's digest, state root and head stay bit-identical to the chain that
// never stopped. The run deploys a check-in contract, so that Open must
// rebuild what a deployment left (Algorand's app table among it), and
// then calls it and transfers. The checkpoint is committed beside the root
// when the store is a diskstore, as inside a manifest.
func TestOpenContinuesBitIdentically(t *testing.T) {
	eachFamily(t, func(t *testing.T, f *family) {
		for _, backend := range []string{"memstore", "diskstore"} {
			t.Run(backend, func(t *testing.T) {
				store, disk := newStore(t, backend)
				const seed = 77
				ref := f.mustOpen(t, opts{seed: seed})
				accts := f.newAccounts(ref, seed, 3)
				deployer, alice, bob := accts[0], accts[1], accts[2]
				area := f.deployCheckins(t, ref, deployer, 1)[0]
				// Alice checks in and bob pays her, every block; nonce
				// counts alice's check-ins, and bob's payments trail it
				// by the one in flight across the checkpoint.
				var nonce uint64
				for ; nonce < 5; nonce++ {
					submit(t, ref, f.checkin(ref, alice, nonce, area), f.transfer(ref, bob, nonce, alice.Address, 1_000))
					ref.step()
				}
				inflight := f.checkin(ref, alice, nonce, area)
				submit(t, ref, inflight)

				root, blob := commit(t, ref, store)
				if ref.PendingCount() == 0 {
					t.Fatal("the checkpoint should carry the item in flight")
				}
				if p := position(t, ref); chain.Hash32(root) != p.StateRoot {
					t.Fatalf("committed root %x != checkpoint state root %x", root[:8], p.StateRoot[:8])
				}
				if disk != nil {
					if err := disk.Commit(root, blob); err != nil {
						t.Fatal(err)
					}
				}
				resumed := f.mustOpen(t, opts{seed: seed, store: store, root: root, ck: blob})
				if resumed.Digest() != ref.Digest() || resumed.PendingCount() != ref.PendingCount() {
					t.Fatal("the reopened chain differs before its first block")
				}
				if _, ok := resumed.ContractAt(deployer.Address, 0); !ok {
					t.Fatal("the deployed contract is gone after Open")
				}

				var last [2]chain.Item
				for i := 0; i < 5; i++ {
					for j, n := range []node{ref, resumed} {
						n.step()
						last[j] = f.checkin(n, alice, nonce+1, area)
						submit(t, n, last[j], f.transfer(n, bob, nonce, alice.Address, 1_000))
					}
					nonce++
				}
				for i := 0; i < 3; i++ {
					ref.step()
					resumed.step()
				}

				if ref.Digest() != resumed.Digest() {
					t.Fatalf("digest diverged: ref %x, resumed %x", ref.Digest(), resumed.Digest())
				}
				if ref.StateRoot() != resumed.StateRoot() || ref.headHash() != resumed.headHash() {
					t.Fatal("state root or head hash diverged")
				}
				if ref.Balance(alice.Address).Base.Cmp(resumed.Balance(alice.Address).Base) != 0 || ref.Balance(bob.Address).Base.Cmp(resumed.Balance(bob.Address).Base) != 0 {
					t.Fatal("balances diverged")
				}
				// The restored entry is included under its own hash.
				if got, ok := resumed.Receipt(inflight.Hash()); !ok || got.Reverted {
					t.Fatalf("the item in flight: %v %+v", ok, got)
				}
				want, _ := ref.Receipt(last[0].Hash())
				got, _ := resumed.Receipt(last[1].Hash())
				if want == nil || got == nil || !reflect.DeepEqual(got.ReturnValue, want.ReturnValue) || new(big.Int).SetBytes(got.ReturnValue).Sign() == 0 {
					t.Fatalf("the last check-in: %+v on the reopened chain, %+v on the reference", got, want)
				}
			})
		}
	})
}

func TestOpenInMemoryMatchesNewChain(t *testing.T) {
	eachFamily(t, func(t *testing.T, f *family) {
		a := f.mustOpen(t, opts{seed: 5})
		b := f.mustOpen(t, opts{seed: 5, viaOpen: true})
		for i := 0; i < 3; i++ {
			a.step()
			b.step()
		}
		if a.Digest() != b.Digest() {
			t.Fatal("Open without a store must behave exactly like NewChain")
		}
	})
}

func TestOpenRejectsMisuse(t *testing.T) {
	eachFamily(t, func(t *testing.T, f *family) {
		if _, err := f.open(opts{seed: 1, root: mstate.Hash{9}}); err == nil {
			t.Fatal("root without store must be rejected")
		}
		// A store without its checkpoint: Algorand's app table and
		// sequence counters would start empty, and the next creation
		// would take id 1 over app 1's globals.
		n := f.mustOpen(t, opts{seed: 4})
		f.deployCheckins(t, n, f.newAccounts(n, 4, 1)[0], 1)
		store := mstate.NewMemStore()
		root, blob := commit(t, n, store)
		if _, err := f.open(opts{seed: 4, store: store, root: root}); err == nil {
			t.Fatal("store without checkpoint must be rejected")
		}
		if _, err := f.open(opts{seed: 4, store: store, root: root, ck: blob}); err != nil {
			t.Fatalf("the untampered checkpoint: %v", err)
		}
		for key, v := range map[string]any{"Name": "not-this-chain", "StateRoot": jsonValue(chain.Hash32{1, 2, 3})} {
			doc, _ := decodeJSON(blob) // MarshalCheckpoint's JSON decodes
			doc.(map[string]any)[key] = v
			ck, _ := json.Marshal(doc)
			if _, err := f.open(opts{seed: 4, store: store, root: root, ck: ck}); !errors.Is(err, chain.ErrBadCheckpoint) {
				t.Fatalf("checkpoint with another %s: Open returned %v, want ErrBadCheckpoint", key, err)
			}
		}
		// A network without validators or participants has no proposer
		// for the first block.
		for _, voters := range []int{0, -1} {
			if err := f.openVoters(voters); !errors.Is(err, f.errNoVoters) {
				t.Fatalf("%d voters: Open returned %v, want %v", voters, err, f.errNoVoters)
			}
		}
	})
}

// TestCheckpointRefusesFaultInjection: a faulted chain gives no checkpoint.
func TestCheckpointRefusesFaultInjection(t *testing.T) {
	eachFamily(t, func(t *testing.T, f *family) {
		n := f.mustOpen(t, opts{seed: 3})
		n.SetFaults(faults.NewInjector(&faults.Plan{}, 3, nil))
		if _, err := n.MarshalCheckpoint(); err == nil {
			t.Fatal("checkpoint with fault injection must be refused")
		}
	})
}

// TestOpenRefusesTamperedPending: a checkpointed pending entry passes
// admission's state-free half again on the way back in — signatures,
// amounts and, on eth, gas limit and fee floor — and a tampered one fails
// Open with the entry's typed error instead of being executed on the
// resumed chain. Alice has three transfers to bob in flight, of 0, 5 and
// 1 000 base units. A null eth Value used to panic in Open, a Value
// rewritten to -5 used to be restored and executed as a successful
// transaction, a signed gas limit of 100 used to be restored and charged
// 21 000 gas, and an empty Algorand group used to be restored and
// included as a successful zero-fee receipt.
func TestOpenRefusesTamperedPending(t *testing.T) {
	eachFamily(t, func(t *testing.T, f *family) {
		n := f.mustOpen(t, opts{seed: 9})
		accts := f.newAccounts(n, 9, 2)
		alice, bob := accts[0], accts[1]
		for nonce, v := range []uint64{0, 5, 1_000} {
			submit(t, n, f.transfer(n, alice, uint64(nonce), bob.Address, v))
		}
		store := mstate.NewMemStore()
		root, blob := commit(t, n, store)
		cases := append([]tamper{
			{"untampered", func(node, *chain.Account, chain.Address, []any) {}, nil},
			{"null entry", func(_ node, _ *chain.Account, _ chain.Address, e []any) { e[0] = nil }, errAny},
			{"null item", func(_ node, _ *chain.Account, _ chain.Address, e []any) { e[0].(map[string]any)["Item"] = nil }, errAny},
		}, f.tampers...)
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				doc, err := decodeJSON(blob)
				if err != nil {
					t.Fatal(err)
				}
				tc.edit(n, alice, bob.Address, doc.(map[string]any)[f.pendingKey].([]any))
				ck, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				_, err = f.open(opts{seed: 9, store: store, root: root, ck: ck})
				if tc.want == nil && err != nil || tc.want == errAny && err == nil ||
					tc.want != nil && tc.want != errAny && !errors.Is(err, tc.want) {
					t.Fatalf("Open = %v, want %v", err, tc.want)
				}
			})
		}
	})
}

// FuzzOpenCheckpointEth and FuzzOpenCheckpointAlgorand open a chain of
// their family from a committed store with a mutated checkpoint: the seed
// is the valid checkpoint of the store, with a contract deployed and an
// item in flight. Whatever JSON decodes into the family's checkpoint, Open
// must return a chain or a typed error (ErrBadCheckpoint's class, or a
// corrupt state), and two Steps on a chain it returns must not panic.
func FuzzOpenCheckpointEth(f *testing.F)      { fuzzOpenCheckpoint(f, ethFamily) }
func FuzzOpenCheckpointAlgorand(f *testing.F) { fuzzOpenCheckpoint(f, algorandFamily) }

func fuzzOpenCheckpoint(f *testing.F, fam *family) {
	const seed = 77
	n := fam.mustOpen(f, opts{seed: seed})
	accts := fam.newAccounts(n, seed, 3)
	area := fam.deployCheckins(f, n, accts[0], 1)[0]
	for nonce := uint64(0); nonce < 3; nonce++ {
		submit(f, n, fam.checkin(n, accts[1], nonce, area), fam.transfer(n, accts[2], nonce, accts[1].Address, 1_000))
		n.step()
	}
	submit(f, n, fam.transfer(n, accts[2], 3, accts[1].Address, 1_000))
	store := mstate.NewMemStore()
	root, blob := commit(f, n, store)
	f.Add(blob)
	f.Fuzz(func(t *testing.T, blob []byte) {
		n, err := fam.open(opts{seed: seed, store: store, root: root, ck: blob})
		if err == nil {
			n.step()
			n.step()
		} else if !errors.Is(err, errBadJSON) && !errors.Is(err, chain.ErrBadCheckpoint) && (fam.errCorruptState == nil || !errors.Is(err, fam.errCorruptState)) {
			t.Fatalf("Open: untyped error: %v", err)
		}
	})
}

// TestPaymentFlow: a transfer moves its amount, and the sender pays the
// amount plus the receipt's fee: 21 000 gas at the base fee and tip on
// eth, the flat minimum fee on Algorand.
func TestPaymentFlow(t *testing.T) {
	eachFamily(t, func(t *testing.T, f *family) {
		n := f.mustOpen(t, opts{seed: 1, calm: true})
		alice, bob := f.newAccounts(n, 1, 1)[0], chain.AddressFromBytes([]byte("bob"))
		pay := f.transfer(n, alice, 0, bob, 12_345)
		submit(t, n, pay)
		n.step()
		rcpt, ok := n.Receipt(pay.Hash())
		if !ok || rcpt.Reverted || rcpt.GasUsed != f.transferGas || f.flatFee != nil && rcpt.Fee.Base.Cmp(f.flatFee) != 0 {
			t.Fatalf("payment receipt: %v %+v", ok, rcpt)
		}
		want := new(big.Int).Sub(f.funds, big.NewInt(12_345))
		if got := n.Balance(bob).Base.Int64(); got != 12_345 || n.Balance(alice.Address).Base.Cmp(want.Sub(want, rcpt.Fee.Base)) != 0 {
			t.Fatalf("bob holds %d, alice %s, want 12345 and %s", got, n.Balance(alice.Address).Base, want)
		}
	})
}

// TestSubmitBatchMatchesSerialSubmit: a batch admitted through SubmitBatch
// at fan-out width four refuses what one Submit call per item refuses — a
// forged signature, at its own index — and builds the same block.
func TestSubmitBatchMatchesSerialSubmit(t *testing.T) {
	eachFamily(t, func(t *testing.T, f *family) {
		run := func(t *testing.T, batch bool) chain.Hash32 {
			n := f.mustOpen(t, opts{seed: 1, calm: true})
			n.SetShards(4)
			accts := f.newAccounts(n, 1, 6)
			var items []chain.Item
			for i, u := range accts {
				items = append(items, f.transfer(n, u, 0, accts[(i+1)%len(accts)].Address, 500))
			}
			const bad = 2
			f.forge(items[bad])
			errs := make([]error, len(items))
			if batch {
				errs = n.SubmitItems(items)
			} else {
				for i, item := range items {
					errs[i] = f.submitOne(n, item)
				}
			}
			n.step()
			for i, item := range items {
				if _, ok := n.Receipt(item.Hash()); ok == (i == bad) || (i == bad) != errors.Is(errs[i], polcrypto.ErrBadSignature) {
					t.Fatalf("item %d included %v, refused with %v", i, ok, errs[i])
				}
			}
			return n.Digest()
		}
		var batched, serial chain.Hash32
		t.Run("SubmitBatch", func(t *testing.T) { batched = run(t, true) })
		t.Run("Submit", func(t *testing.T) { serial = run(t, false) })
		if batched != serial {
			t.Fatal("batched submission must be indistinguishable from serial submission")
		}
	})
}

// TestRetentionHeapFlat: once the retention window is full, sealing more
// blocks does not grow the heap — records, index entries and spans of
// pruned blocks really go away.
func TestRetentionHeapFlat(t *testing.T) {
	eachFamily(t, func(t *testing.T, f *family) {
		fillGoroutineFreeLists()
		w := newBatchWorld(t, f, 250, 16)
		w.blocks(t, 20)
		before := w.lowHeap(t, 8)
		w.blocks(t, 200)
		grown := int64(w.lowHeap(t, 8)) - int64(before)
		runtime.KeepAlive(w)
		if perItem := float64(grown) / float64(w.retained()); perItem > 8 {
			t.Fatalf("200 further blocks grew the heap by %d B (%.1f B per retained check-in)", grown, perItem)
		} else {
			t.Logf("%d B (%.1f B per retained check-in)", grown, perItem)
		}
	})
}

// TestRetainedBytesPerIncludedTx bounds what a node keeps per retained
// check-in: its record (receipt and, on eth, explorer columns) and its
// index entry. Since the row log's first version it fell from 210 to 68.55
// B on eth and from 157 to 54 B on Algorand.
func TestRetainedBytesPerIncludedTx(t *testing.T) {
	eachFamily(t, func(t *testing.T, f *family) {
		if got := retainedBytesPerCheckin(t, f); got > float64(f.retainedPerCheckin) {
			t.Fatalf("a retained check-in costs %.0f B, budget %d B", got, f.retainedPerCheckin)
		} else {
			t.Logf("%.0f B per retained check-in", got)
		}
	})
}

// TestStepAllocsPerIncludedTx bounds what Step allocates per included
// check-in on batchWorld's 2 000-check-in block: trie leaves and their
// hashes, the encoded balances, the state writes and the interpreter's
// return data; the receipt's fee reaches the receipt log as bytes, not as
// a big.Int.
func TestStepAllocsPerIncludedTx(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eachFamily(t, func(t *testing.T, f *family) {
		const blocks = 4
		w := newBatchWorld(t, f, 2000, 16)
		w.blocks(t, 3)
		var m0, m1 runtime.MemStats
		var allocs uint64
		for i := 0; i < blocks; i++ {
			w.queue(t)
			runtime.ReadMemStats(&m0)
			w.step(t)
			runtime.ReadMemStats(&m1)
			allocs += m1.Mallocs - m0.Mallocs
		}
		if got := float64(allocs) / float64(blocks*len(w.users)); got > float64(f.allocsPerCheckin) {
			t.Fatalf("Step allocates %.2f times per included check-in, budget %d", got, f.allocsPerCheckin)
		} else {
			t.Logf("%.2f allocations per included check-in", got)
		}
	})
}

// TestFoldAheadMatchesInline: a block whose receipts a helper goroutine
// folds while the block executes is the same block as one whose receipts
// are folded inline. Four blocks of 100 check-ins (above the helper's
// threshold: a full batch of its ring and a partial one) with a retention
// of two, so that the window is pruned, are sealed at GOMAXPROCS 1 and 2.
// Every block's digest and state root, every receipt of every block (the
// pruned ones absent on both sides) and, on eth, the explorer's rows, in
// order, must agree.
func TestFoldAheadMatchesInline(t *testing.T) {
	type run struct {
		digests, roots []chain.Hash32
		receipts       []*chain.Receipt // of every block's check-ins, nil once pruned
		rows           []any
	}
	eachFamily(t, func(t *testing.T, f *family) {
		seal := func(procs int) (s run) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			w := newBatchWorld(t, f, 100, 2)
			var hashes []chain.Hash32
			for i := 0; i < 4; i++ {
				w.queue(t)
				blk := w.step(t)
				s.digests = append(s.digests, w.n.Digest())
				s.roots = append(s.roots, blk.root)
				hashes = append(hashes, blk.items...)
			}
			for _, h := range hashes {
				rc, _ := w.n.Receipt(h)
				s.receipts = append(s.receipts, rc)
			}
			if f.explorer != nil {
				s.rows = f.explorer(w.n, w.areas)
			}
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
		if f.explorer != nil && len(inline.rows) != 200 || !reflect.DeepEqual(inline.rows, folded.rows) {
			t.Fatalf("explorer rows: %d inline, %d folded ahead, or they differ", len(inline.rows), len(folded.rows))
		}
	})
}

// TestEmptyBlocksKeepNoHistory: with retention off, the chain still keeps
// only its head block, so sealing empty blocks leaves the live heap where
// it was. Keeping every block cost ≈ 218 B a block on eth and ≈ 276 B a
// round on Algorand.
func TestEmptyBlocksKeepNoHistory(t *testing.T) {
	const budget = 32
	eachFamily(t, func(t *testing.T, f *family) {
		defer f.onOneP()()
		n := f.mustOpen(t, opts{seed: 1, calm: true})
		for i := 0; i < 10; i++ {
			n.step()
		}
		before := heapAfterGC()
		for i := 0; i < f.emptyBlocks; i++ {
			n.step()
		}
		grown := int64(heapAfterGC()) - int64(before)
		runtime.KeepAlive(n)
		if per := float64(grown) / float64(f.emptyBlocks); per >= budget {
			t.Fatalf("%d empty blocks grew the heap by %d B (%.1f B a block, budget %d)", f.emptyBlocks, grown, per, budget)
		} else {
			t.Logf("%.1f B per empty block", per)
		}
	})
}

// TestTwoAreasPayOneWallet: two area contracts each pay 1 000 base units
// to one wallet, called by two users in one block. At every SetShards
// width and on one, two and four cores the wallet ends 2 000 up, what Fund
// minted is all in some balance or in the fees, and the digest is the
// width-1 run's. The control pays two wallets, 1 000 each. Nothing about
// the two calls says they touch one account (ROADMAP item 15).
func TestTwoAreasPayOneWallet(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eachFamily(t, func(t *testing.T, f *family) {
		for _, shared := range []bool{true, false} {
			t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
				var ref chain.Hash32
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					for shards := 1; shards <= 8; shards++ {
						d := payTwoWallets(t, f, shards, shared)
						if procs == 1 && shards == 1 {
							ref = d
						} else if d != ref {
							t.Fatalf("procs=%d shards=%d: digest diverges from the width-1 run", procs, shards)
						}
					}
				}
			})
		}
	})
}

// payTwoWallets seals one block in which two users call one area contract
// each, and checks the wallets' balances and conservation.
func payTwoWallets(t *testing.T, f *family, shards int, shared bool) chain.Hash32 {
	t.Helper()
	const seed = 15
	n := f.mustOpen(t, opts{seed: seed, calm: true})
	n.SetShards(shards)

	minted := new(big.Int)
	var holders []chain.Address
	fund := func(addr chain.Address, amount *big.Int) {
		n.Fund(addr, amount)
		minted.Add(minted, amount)
		holders = append(holders, addr)
	}
	wallets := []chain.Address{chain.AddressFromBytes([]byte("wallet")), chain.AddressFromBytes([]byte("wallet 2"))}
	paid := wallets
	if shared {
		wallets[1], paid = wallets[0], wallets[:1]
	}
	for _, w := range paid {
		fund(w, big.NewInt(f.walletFunds))
	}
	rng := chain.NewRand(seed).Fork("test:keys")
	deployer := chain.NewAccount(rng)
	fund(deployer.Address, f.funds)
	var calls []chain.Item
	for _, wallet := range wallets {
		escrow, call := f.payout(t, n, deployer, wallet)
		fund(escrow, big.NewInt(1_000_000))
		user := chain.NewAccount(rng)
		fund(user.Address, f.funds)
		calls = append(calls, call(user))
	}
	submit(t, n, calls...)
	if blk := n.step(); len(blk.items) != len(calls) {
		t.Fatalf("shards=%d: the block took %d of %d calls", shards, len(blk.items), len(calls))
	}
	for _, call := range calls {
		if rcpt, _ := n.Receipt(call.Hash()); rcpt.Reverted {
			t.Fatalf("shards=%d: a payout reverted: %s", shards, rcpt.RevertMsg)
		}
	}
	want := big.NewInt(f.walletFunds + int64(len(wallets)/len(paid))*1_000)
	for _, w := range paid {
		if got := n.Balance(w).Base; got.Cmp(want) != 0 {
			t.Errorf("shards=%d: wallet %s holds %s, want %s", shards, w, got, want)
		}
	}
	sum := f.feesHeld(t, n, seed)
	for _, h := range holders {
		sum.Add(sum, n.Balance(h).Base)
	}
	if sum.Cmp(minted) != 0 {
		t.Errorf("shards=%d: balances and fees sum to %s, Fund minted %s", shards, sum, minted)
	}
	return n.Digest()
}

// checkin is the shipped check-in contract, area-checkin.pol, with its
// checkin API.
func checkin(t *testing.T) (*lang.Compiled, *lang.API) {
	t.Helper()
	compiled, err := core.CompileCheckin()
	if err != nil {
		t.Fatal(err)
	}
	return compiled, compiled.Program.FindAPI("checkin")
}

// checkinArea is the check-in contract's constructor argument.
var checkinArea = []lang.Value{lang.BytesValue([]byte("8FPHF8VV+"))}

// TestDeterministicRuns: the latencies a client observes are simulated, so
// two runs of the same seed observe the same ones.
func TestDeterministicRuns(t *testing.T) {
	compiled, api := checkin(t)
	eachFamily(t, func(t *testing.T, f *family) {
		run := func() []float64 {
			n := f.mustOpen(t, opts{seed: 42})
			acct := f.newAccounts(n, 42, 1)[0]
			_, at, err := n.Deploy(acct, compiled, checkinArea)
			if err != nil {
				t.Fatal(err)
			}
			var out []float64
			for i := uint64(0); i < 5; i++ {
				rcpt, _, err := n.Call(acct, at, compiled, api, []lang.Value{lang.Uint64Value(7), lang.Uint64Value(i)}, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, (rcpt.Included - rcpt.Submitted).Seconds())
			}
			return out
		}
		if a, b := run(), run(); !slices.Equal(a, b) {
			t.Fatalf("runs diverged: %v vs %v", a, b)
		}
	})
}

// TestSubmitAndWaitLeavesTheChainsReceiptAlone: the receipt a client hands
// back for a deployment carries the times the client observed — from the
// submit call to the confirmed (eth) or indexed (Algorand) read, the
// latency the paper's figures plot — and the chain's own answer for the
// same hash stays what was folded into the digest: when the network saw
// the item and when the block that took it was sealed.
func TestSubmitAndWaitLeavesTheChainsReceiptAlone(t *testing.T) {
	compiled, _ := checkin(t)
	eachFamily(t, func(t *testing.T, f *family) {
		n := f.mustOpen(t, opts{seed: 1, calm: true})
		acct := f.newAccounts(n, 1, 1)[0]
		p0 := position(t, n)
		start := n.Now()
		rcpt, _, err := n.Deploy(acct, compiled, checkinArea)
		if err != nil {
			t.Fatal(err)
		}
		if rcpt.Submitted != start || rcpt.Included != n.Now() || (rcpt.Included-rcpt.Submitted) != n.Now()-start {
			t.Fatalf("client receipt spans %v–%v, the client saw %v–%v", rcpt.Submitted, rcpt.Included, start, n.Now())
		}
		stored, ok := n.Receipt(rcpt.TxHash)
		if !ok {
			t.Fatal("chain has no receipt for the confirmed item")
		}
		if stored.Included != f.blockTime(n)*time.Duration(stored.BlockNumber) ||
			stored.Submitted <= start || stored.Submitted >= stored.Included || stored.Included >= rcpt.Included {
			t.Fatalf("chain receipt spans %v–%v (block %d), client %v–%v", stored.Submitted, stored.Included, stored.BlockNumber, start, rcpt.Included)
		}
		// Folding the chain's answer over the accumulator from before the
		// item must give the accumulator of now: it is what was hashed.
		var h chain.Hasher
		h.Bytes(p0.RcptAcc[:])
		h.Bytes(stored.TxHash[:])
		h.U64(stored.BlockNumber)
		h.U64(stored.GasUsed)
		h.U64(uint64(stored.Submitted))
		h.U64(uint64(stored.Included))
		h.U64(0) // not reverted
		h.Bytes(nil)
		h.Bytes(stored.ReturnValue)
		h.Bytes(f.feeFold(stored.Fee.Base))
		if p1 := position(t, n); p1.RcptCount != p0.RcptCount+1 || h.Sum() != p1.RcptAcc || stored.Reverted {
			t.Fatal("Receipt(h) after the client's wait is not the receipt the digest folded")
		}
	})
}

// TestFanOutWidthBitIdentity: admission, selection reads and sortition fan
// out across SetShards widths, and the blocks must not show it — the mixed
// workload on one core at widths one to eight seals the same blocks, elects
// the same proposers, takes the client's creations in the same blocks and
// ends in the same digest as at width one.
func TestFanOutWidthBitIdentity(t *testing.T) { sameAsOneCoreAtWidthOne(t, 1) }

// TestConsensusBitIdentityAcrossGOMAXPROCS: the same on two and four cores,
// where the fanned-out work runs in parallel.
func TestConsensusBitIdentityAcrossGOMAXPROCS(t *testing.T) { sameAsOneCoreAtWidthOne(t, 2, 4) }

func sameAsOneCoreAtWidthOne(t *testing.T, cores ...int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eachFamily(t, func(t *testing.T, f *family) {
		runtime.GOMAXPROCS(1)
		ref, refBlocks, refCreations := f.mixed(t, 1)
		for _, procs := range cores {
			runtime.GOMAXPROCS(procs)
			for _, shards := range []int{1, 2, 3, 4, 8} {
				n, blocks, creations := f.mixed(t, shards)
				if len(blocks) != len(refBlocks) || n.Height() != ref.Height() {
					t.Fatalf("procs=%d shards=%d: %d blocks to %d vs %d to %d",
						procs, shards, len(blocks), n.Height(), len(refBlocks), ref.Height())
				}
				for i, rcpt := range creations {
					if rcpt.BlockNumber != refCreations[i].BlockNumber {
						t.Fatalf("procs=%d shards=%d: creation %d in block %d, on one core %d", procs, shards, i, rcpt.BlockNumber, refCreations[i].BlockNumber)
					}
				}
				// Each hash covers its parent's, so the blocks the client
				// sealed are compared too.
				for i, blk := range blocks {
					if blk.hash != refBlocks[i].hash || len(blk.items) != len(refBlocks[i].items) || blk.proposer != refBlocks[i].proposer {
						t.Fatalf("procs=%d shards=%d: block %d diverges", procs, shards, i)
					}
				}
				if n.Digest() != ref.Digest() {
					t.Fatalf("procs=%d shards=%d: digest diverges", procs, shards)
				}
			}
		}
	})
}

// TestShardStatsRecordParallelWork: the tallies count every included item
// and its gas (Algorand: opcode cost) on the one lane, and ParallelBatches
// counts the mixed workload's SubmitBatch calls when two cores admit them,
// none on one.
func TestShardStatsRecordParallelWork(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eachFamily(t, func(t *testing.T, f *family) {
		runtime.GOMAXPROCS(1)
		if n, _, _ := f.mixed(t, 4); n.ShardStats().ParallelBatches != 0 {
			t.Fatalf("%d parallel batches on one core", n.ShardStats().ParallelBatches)
		}
		runtime.GOMAXPROCS(2)
		n, blocks, creations := f.mixed(t, 4)
		stats := n.ShardStats()
		// The creations' blocks carry nothing else.
		var items, gas uint64
		for _, rcpt := range creations {
			items++
			gas += rcpt.GasUsed
		}
		for _, blk := range blocks {
			for _, h := range blk.items {
				rcpt, _ := n.Receipt(h)
				items++
				gas += rcpt.GasUsed
			}
		}
		if stats == nil || len(stats.Txs) != 1 || stats.Txs[0] != items || stats.Gas[0] != gas || stats.ParallelBatches != f.mixedBatches {
			t.Fatalf("stats %+v; want one lane of %d items and %d gas, %d parallel batches", stats, items, gas, f.mixedBatches)
		}
	})
}

// TestGoldenDigest pins each family's golden scenario at fan-out widths one
// and four to absolute digests, state roots and head hashes captured
// across commits: the bit-identity tests compare two runs of one build,
// so a change that shifts every run the same way fails only here. A
// failure means a refactor changed chain behaviour.
func TestGoldenDigest(t *testing.T) {
	eachFamily(t, func(t *testing.T, f *family) {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
				n := f.golden(t, shards)
				d, root, head := n.Digest(), n.StateRoot(), n.headHash()
				for _, g := range []struct{ name, got, want string }{
					{"digest", fmt.Sprintf("%x", d[:]), f.goldenDigest},
					{"state root", fmt.Sprintf("%x", root[:]), f.goldenStateRoot},
					{"head hash", fmt.Sprintf("%x", head[:]), f.goldenHeadHash},
				} {
					if g.got != g.want {
						t.Errorf("%s = %s, want %s", g.name, g.got, g.want)
					}
				}
			})
		}
	})
}
