package eth

import (
	"math/big"
	"runtime"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
)

func TestTxConflictKeysTable(t *testing.T) {
	sender := chain.AddressFromBytes([]byte("sender"))
	contract := chain.AddressFromBytes([]byte("contract"))
	cases := []struct {
		name string
		tx   *Tx
		want []chain.ConflictKey
	}{
		{
			name: "call keys sender account and target account+contract",
			tx:   &Tx{From: sender, To: &contract},
			want: []chain.ConflictKey{
				chain.AccountKey(sender),
				chain.AccountKey(contract),
				chain.ContractKey(contract),
			},
		},
		{
			name: "deploy keys the deterministic contract address",
			tx:   &Tx{From: sender, Nonce: 3},
			want: []chain.ConflictKey{
				chain.AccountKey(sender),
				chain.AccountKey(chain.ContractAddress(sender, 3)),
				chain.ContractKey(chain.ContractAddress(sender, 3)),
			},
		},
		{
			name: "zero target still yields distinct account and contract keys",
			tx:   &Tx{From: sender, To: &chain.Address{}},
			want: []chain.ConflictKey{
				chain.AccountKey(sender),
				chain.AccountKey(chain.Address{}),
				chain.ContractKey(chain.Address{}),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.tx.ConflictKeys()
			if len(got) != len(tc.want) {
				t.Fatalf("got %d keys, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("key[%d] = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
	// Cross-derivation properties the partitioner relies on.
	a := &Tx{From: sender, To: &contract}
	b := &Tx{From: chain.AddressFromBytes([]byte("other")), To: &contract}
	if a.ConflictKeys()[2] != b.ConflictKeys()[2] {
		t.Fatal("same target contract from different senders must share a key")
	}
	other := chain.AddressFromBytes([]byte("elsewhere"))
	c1 := &Tx{From: sender, To: &contract}
	c2 := &Tx{From: sender, To: &other}
	if c1.ConflictKeys()[0] != c2.ConflictKeys()[0] {
		t.Fatal("same sender across different areas must share a key")
	}
}

func TestShardStateOverlay(t *testing.T) {
	base := newState()
	alice := chain.AddressFromBytes([]byte("alice"))
	bob := chain.AddressFromBytes([]byte("bob"))
	key := chain.Hash32{1}
	base.AddBalance(alice, big.NewInt(100))
	base.SetNonce(alice, 5)
	base.SetCode(bob, []byte{0x01})
	base.SetStorage(bob, key, chain.Hash32{9})

	ov := newShardState(base)
	if ov.GetBalance(alice).Int64() != 100 || ov.Nonce(alice) != 5 {
		t.Fatal("overlay must read through to base")
	}
	ov.SubBalance(alice, big.NewInt(30))
	ov.SetNonce(alice, 6)
	ov.SetStorage(bob, key, chain.Hash32{})
	ov.SetStorage(alice, key, chain.Hash32{7})
	ov.DeleteCode(bob)
	if base.GetBalance(alice).Int64() != 100 {
		t.Fatal("overlay writes must not touch base before commit")
	}
	if _, ok := base.Code(bob); !ok {
		t.Fatal("base code deleted before commit")
	}
	if ov.GetBalance(alice).Int64() != 70 || ov.Nonce(alice) != 6 {
		t.Fatal("overlay must serve its own writes")
	}
	if ov.GetStorage(bob, key) != (chain.Hash32{}) {
		t.Fatal("overlay must serve a zero storage overwrite")
	}
	if _, ok := ov.Code(bob); ok {
		t.Fatal("overlay must hide deleted code")
	}
	if ov.AccountExists(bob) {
		t.Fatal("bob had only code; deletion removes the account")
	}

	ov.commit()
	if base.GetBalance(alice).Int64() != 70 || base.Nonce(alice) != 6 {
		t.Fatal("commit must fold balances and nonces into base")
	}
	if base.kv.Has(storKey(bob, key)) {
		t.Fatal("commit of a zero write must delete the base slot")
	}
	if base.GetStorage(alice, key) != (chain.Hash32{7}) {
		t.Fatal("commit must fold storage writes into base")
	}
	if _, ok := base.Code(bob); ok {
		t.Fatal("commit must fold code deletion into base")
	}
}

// counterCode increments a per-caller storage slot on every call — enough
// contract state to make cross-shard divergence visible.
func counterCode(t *testing.T) []byte {
	t.Helper()
	a := evm.NewAssembler()
	a.Op(evm.CALLER).Op(evm.SLOAD).PushUint(1).Op(evm.ADD)
	a.Op(evm.CALLER).Op(evm.SSTORE).Op(evm.STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// runShardedWorkload drives a mixed workload — per-area contract calls plus
// peer-to-peer transfers, and among them a call that runs out of gas, a
// deployment inside a batch and transfers sent by the validator about to
// propose the block that carries them — through a chain configured with the
// given shard count and returns the chain. Everything about the workload is
// deterministic, so any digest difference across shard counts or GOMAXPROCS
// is a sharding bug.
func runShardedWorkload(t *testing.T, shards int) *Chain {
	t.Helper()
	cfg := Goerli()
	cfg.CongestionMeanGas = 1_000_000
	cfg.SpikeProb = 0
	c := NewChain(cfg, 1234)
	c.SetShards(shards)
	cl := NewClient(c)

	deployer := c.NewAccount(eth(10))
	code := counterCode(t)
	const areas = 4
	var contracts []chain.Address
	for i := 0; i < areas; i++ {
		_, addr, err := cl.deploy(deployer, code, nil, nil, 300000)
		if err != nil {
			t.Fatal(err)
		}
		contracts = append(contracts, addr)
	}

	const users = 16
	accts := make([]*Account, users)
	nonces := make([]uint64, users)
	for i := range accts {
		accts[i] = c.NewAccount(eth(1))
	}

	tip := big.NewInt(2_000_000_000)
	for round := 0; round < 10; round++ {
		maxFee := new(big.Int).Add(new(big.Int).Mul(c.BaseFee(), big.NewInt(2)), tip)
		var txs []*Tx
		var starved *Tx
		send := func(from *Account, nonce uint64, to *chain.Address, value int64, data []byte, gasLimit uint64) *Tx {
			tx := &Tx{
				From: from.Address, Nonce: nonce, To: to, Data: data,
				Value: big.NewInt(value), GasLimit: gasLimit,
				MaxFee: maxFee, MaxTip: tip,
			}
			tx.Sign(from)
			txs = append(txs, tx)
			return tx
		}
		for ui, u := range accts {
			send(u, nonces[ui], &contracts[ui%areas], 0, nil, 90000)
			nonces[ui]++
			if round%2 == 0 {
				// Pair transfers keep components small but non-trivial.
				send(u, nonces[ui], &accts[ui^1].Address, 1000, nil, 21000)
				nonces[ui]++
			}
			switch {
			case round == 3 && ui == 1:
				// Too little gas for the counter's storage write: reverts.
				starved = send(u, nonces[ui], &contracts[ui%areas], 0, nil, 21100)
				nonces[ui]++
			case round == 5 && ui == 2:
				send(u, nonces[ui], nil, 0, PackDeployData(code, nil), 300000)
				nonces[ui]++
			}
		}
		// The next block's proposer sends a transfer in it: its balance is
		// debited by a shard and credited the block's tips by the tail.
		next := c.pickProposer(c.Head().Hash, c.Head().Number+1)
		proposer := &Account{Key: next.Key, Address: next.Address}
		c.Fund(proposer.Address, eth(1))
		own := send(proposer, c.PendingNonce(proposer.Address), &accts[3].Address, 777, nil, 21000)
		before := c.Balance(proposer.Address).Base

		_, errs := c.SubmitBatch(txs)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d tx %d: %v", round, i, err)
			}
		}
		blk := c.Step()

		// before − (value + fee of its own transfer) + every transaction's tip.
		want := before.Sub(before, big.NewInt(777))
		for _, h := range blk.TxHashes {
			rcpt, ok := c.Receipt(h)
			if !ok {
				t.Fatalf("round %d: no receipt for an included transaction", round)
			}
			if h == own.Hash() {
				want.Sub(want, rcpt.Fee.Base)
			}
			burn := new(big.Int).Mul(blk.BaseFee, new(big.Int).SetUint64(rcpt.GasUsed))
			want.Add(want, burn.Sub(rcpt.Fee.Base, burn))
		}
		if got := c.Balance(blk.Proposer).Base; blk.Proposer != proposer.Address || len(blk.TxHashes) != len(txs) || got.Cmp(want) != 0 {
			t.Fatalf("round %d: proposer %s (want %s) took %d of %d transactions and holds %s, want %s",
				round, blk.Proposer, proposer.Address, len(blk.TxHashes), len(txs), got, want)
		}
		if starved != nil {
			if rcpt, _ := c.Receipt(starved.Hash()); !rcpt.Reverted || rcpt.RevertMsg == "" {
				t.Fatalf("the starved call did not revert: %+v", rcpt)
			}
		}
		if round == 5 {
			if _, ok := c.ContractCode(chain.ContractAddress(accts[2].Address, nonces[2]-1)); !ok {
				t.Fatal("the deployment inside the batch left no code")
			}
		}
	}
	for i := 0; i < 20 && c.PendingCount() > 0; i++ {
		c.Step()
	}
	if c.PendingCount() != 0 {
		t.Fatalf("%d transactions never included", c.PendingCount())
	}
	return c
}

// TestShardedBlockBitIdentity: the same workload at every combination of
// one, two and four cores with one to eight shards — blocks that run on the
// canonical state with their tail inline, and blocks that fan out with the
// state side and the receipt side of the tail running side by side — builds
// the same blocks and the same digest.
func TestShardedBlockBitIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref := runShardedWorkload(t, 1)
	refDigest := ref.Digest()
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 3, 4, 8} {
			c := runShardedWorkload(t, shards)
			if len(c.blocks) != len(ref.blocks) {
				t.Fatalf("procs=%d shards=%d: %d blocks vs %d serial", procs, shards, len(c.blocks), len(ref.blocks))
			}
			for i := range ref.blocks {
				if c.blocks[i].Hash != ref.blocks[i].Hash {
					t.Fatalf("procs=%d shards=%d: block %d hash diverges", procs, shards, i)
				}
				if len(c.blocks[i].TxHashes) != len(ref.blocks[i].TxHashes) {
					t.Fatalf("procs=%d shards=%d: block %d tx count diverges", procs, shards, i)
				}
			}
			if d := c.Digest(); d != refDigest {
				t.Fatalf("procs=%d shards=%d: state digest diverges from serial run", procs, shards)
			}
			if stats := c.ShardStats(); (stats.ParallelBatches > 0) != (shards > 1) {
				t.Fatalf("procs=%d shards=%d: %d blocks fanned out", procs, shards, stats.ParallelBatches)
			}
		}
	}
}

// TestConsensusBitIdentityAcrossGOMAXPROCS: batch admission, execution
// and the block's tail fan out across cores, and the blocks must not show
// it — the same seeded chain stepped on one, two and four cores with one,
// two and four shards carries the same hashes and the same digest.
func TestConsensusBitIdentityAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref := runShardedWorkload(t, 2)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 4} {
			c := runShardedWorkload(t, shards)
			if len(c.blocks) != len(ref.blocks) {
				t.Fatalf("procs=%d shards=%d: %d blocks vs %d on one core", procs, shards, len(c.blocks), len(ref.blocks))
			}
			for i, blk := range c.blocks {
				if blk.Hash != ref.blocks[i].Hash {
					t.Fatalf("procs=%d shards=%d: block %d hash depends on GOMAXPROCS", procs, shards, i)
				}
			}
			if c.Digest() != ref.Digest() {
				t.Fatalf("procs=%d shards=%d: digest depends on GOMAXPROCS", procs, shards)
			}
		}
	}
}

func TestShardStatsRecordParallelWork(t *testing.T) {
	c := runShardedWorkload(t, 4)
	stats := c.ShardStats()
	if stats == nil {
		t.Fatal("stats must exist after SetShards")
	}
	if stats.ParallelBatches == 0 {
		t.Fatal("workload with disjoint areas must fan out at least once")
	}
	busy := 0
	for _, n := range stats.Txs {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d shards did work, want >= 2 (txs=%v)", busy, stats.Txs)
	}
}

func TestSubmitBatchMatchesSerialSubmit(t *testing.T) {
	run := func(batch bool) *Chain {
		c := newTestChain(t)
		c.SetShards(4)
		accts := make([]*Account, 6)
		for i := range accts {
			accts[i] = c.NewAccount(eth(1))
		}
		tip := big.NewInt(2_000_000_000)
		maxFee := new(big.Int).Add(new(big.Int).Mul(c.BaseFee(), big.NewInt(2)), tip)
		var txs []*Tx
		for i, u := range accts {
			to := accts[(i+1)%len(accts)].Address
			tx := &Tx{
				From: u.Address, Nonce: 0, To: &to,
				Value: big.NewInt(500), GasLimit: 21000,
				MaxFee: maxFee, MaxTip: tip,
			}
			tx.Sign(u)
			txs = append(txs, tx)
		}
		if batch {
			_, errs := c.SubmitBatch(txs)
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, tx := range txs {
				if _, err := c.Submit(tx); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.Step()
		return c
	}
	if run(true).Digest() != run(false).Digest() {
		t.Fatal("batched submission must be indistinguishable from serial submission")
	}
}

func TestSubmitBatchReportsPerTxErrors(t *testing.T) {
	c := newTestChain(t)
	c.SetShards(2)
	alice := c.NewAccount(eth(1))
	bob := chain.AddressFromBytes([]byte("bob"))
	tip := big.NewInt(2_000_000_000)
	maxFee := new(big.Int).Add(c.BaseFee(), tip)
	good := &Tx{From: alice.Address, Nonce: 0, To: &bob, Value: big.NewInt(1),
		GasLimit: 21000, MaxFee: maxFee, MaxTip: tip}
	good.Sign(alice)
	bad := &Tx{From: alice.Address, Nonce: 1, To: &bob, Value: big.NewInt(1),
		GasLimit: 21000, MaxFee: maxFee, MaxTip: tip}
	bad.Sign(alice)
	bad.Sig[0] ^= 0xff
	hashes, errs := c.SubmitBatch([]*Tx{good, bad})
	if errs[0] != nil {
		t.Fatalf("good tx rejected: %v", errs[0])
	}
	if hashes[0] == (chain.Hash32{}) {
		t.Fatal("good tx must get a hash")
	}
	if errs[1] == nil {
		t.Fatal("tampered signature must be rejected")
	}
}
