package eth

import (
	"math/big"
	"runtime"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/polcrypto"
)

// counterCode increments a per-caller storage slot on every call — enough
// contract state to make a divergence across fan-out widths visible.
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

// validatorAccounts re-derives the validators' keys from the chain's
// validators stream, as newChain does to derive their addresses, so that a
// test can sign as the proposer.
func validatorAccounts(cfg Config, seed uint64) map[chain.Address]*Account {
	rng := chain.NewRand(seed).Fork("eth:" + cfg.Name)
	rng.Fork("client")
	keyRng := rng.Fork("validators")
	accts := make(map[chain.Address]*Account, cfg.ValidatorCount)
	for i := 0; i < cfg.ValidatorCount; i++ {
		kp := polcrypto.MustGenerateKeyPair(keyRng)
		addr := chain.AddressFromPublicKey(kp.Public)
		accts[addr] = &Account{Key: kp, Address: addr}
	}
	return accts
}

// runShardedWorkload drives a mixed workload — per-area contract calls plus
// peer-to-peer transfers, and among them a call that runs out of gas, a
// deployment inside a batch and transfers sent by the validator about to
// propose the block that carries them — through a chain configured with the
// given fan-out width. It returns the chain, the blocks the workload
// stepped, and the receipts of the deployments before them, whose blocks
// the client sealed. Everything about the workload is deterministic, so
// any digest difference across widths or GOMAXPROCS is a scheduling bug.
func runShardedWorkload(t *testing.T, shards int) (*Chain, []*Block, []*chain.Receipt) {
	t.Helper()
	cfg := Goerli()
	cfg.CongestionMeanGas = 1_000_000
	cfg.SpikeProb = 0
	c := NewChain(cfg, 1234)
	validators := validatorAccounts(cfg, 1234)
	c.SetShards(shards)
	cl := NewClient(c)

	deployer := c.NewAccount(eth(10))
	code := counterCode(t)
	const areas = 4
	var contracts []chain.Address
	var deploys []*chain.Receipt
	for i := 0; i < areas; i++ {
		rcpt, addr, err := cl.deploy(deployer, code, nil, nil, 300000)
		if err != nil {
			t.Fatal(err)
		}
		contracts = append(contracts, addr)
		deploys = append(deploys, rcpt)
	}
	var blocks []*Block

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
		// debited by execution and credited the block's tips by the tail.
		proposer := validators[c.pickProposer(c.Head().Hash, c.Head().Number+1)]
		if proposer == nil {
			t.Fatal("the proposer is not one of the re-derived validators")
		}
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
		blocks = append(blocks, blk)

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
			burn := new(big.Int).Mul(blk.BaseFee.ToBig(), new(big.Int).SetUint64(rcpt.GasUsed))
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
		blocks = append(blocks, c.Step())
	}
	if c.PendingCount() != 0 {
		t.Fatalf("%d transactions never included", c.PendingCount())
	}
	return c, blocks, deploys
}

// TestShardedBlockBitIdentity: the same workload at every combination of
// one, two and four cores with a fan-out width of one to eight builds the
// same blocks and the same digest.
func TestShardedBlockBitIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref, refBlocks, _ := runShardedWorkload(t, 1)
	refDigest := ref.Digest()
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 3, 4, 8} {
			c, blocks, _ := runShardedWorkload(t, shards)
			if len(blocks) != len(refBlocks) || c.Head().Number != ref.Head().Number {
				t.Fatalf("procs=%d shards=%d: %d blocks to %d vs %d to %d serial",
					procs, shards, len(blocks), c.Head().Number, len(refBlocks), ref.Head().Number)
			}
			// Each hash covers its parent's, so the blocks the client
			// sealed are compared too.
			for i := range refBlocks {
				if blocks[i].Hash != refBlocks[i].Hash {
					t.Fatalf("procs=%d shards=%d: block %d hash diverges", procs, shards, i)
				}
				if len(blocks[i].TxHashes) != len(refBlocks[i].TxHashes) {
					t.Fatalf("procs=%d shards=%d: block %d tx count diverges", procs, shards, i)
				}
			}
			if d := c.Digest(); d != refDigest {
				t.Fatalf("procs=%d shards=%d: state digest diverges from serial run", procs, shards)
			}
		}
	}
}

// TestConsensusBitIdentityAcrossGOMAXPROCS: batch admission and the
// selection reads fan out across cores, and the blocks must not show it —
// the same seeded chain stepped on one, two and four cores at widths one,
// two and four carries the same hashes and the same digest.
func TestConsensusBitIdentityAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref, refBlocks, _ := runShardedWorkload(t, 2)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 4} {
			c, blocks, _ := runShardedWorkload(t, shards)
			if len(blocks) != len(refBlocks) || c.Head().Number != ref.Head().Number {
				t.Fatalf("procs=%d shards=%d: %d blocks to %d vs %d to %d on one core",
					procs, shards, len(blocks), c.Head().Number, len(refBlocks), ref.Head().Number)
			}
			for i, blk := range blocks {
				if blk.Hash != refBlocks[i].Hash {
					t.Fatalf("procs=%d shards=%d: block %d hash depends on GOMAXPROCS", procs, shards, i)
				}
			}
			if c.Digest() != ref.Digest() {
				t.Fatalf("procs=%d shards=%d: digest depends on GOMAXPROCS", procs, shards)
			}
		}
	}
}

// TestShardStatsRecordParallelWork: the tallies count every included
// transaction and its gas on the one lane, and ParallelBatches counts the
// workload's ten SubmitBatch calls when two cores admit them, none on one.
func TestShardStatsRecordParallelWork(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if c, _, _ := runShardedWorkload(t, 4); c.ShardStats().ParallelBatches != 0 {
		t.Fatalf("%d parallel batches on one core", c.ShardStats().ParallelBatches)
	}
	runtime.GOMAXPROCS(2)
	c, blocks, deploys := runShardedWorkload(t, 4)
	stats := c.ShardStats()
	if stats == nil {
		t.Fatal("stats must exist after SetShards")
	}
	// The deployments' blocks carry nothing else.
	var txs, gas uint64
	for _, rcpt := range deploys {
		txs++
		gas += rcpt.GasUsed
	}
	for _, blk := range blocks {
		for _, h := range blk.TxHashes {
			rcpt, _ := c.Receipt(h)
			txs++
			gas += rcpt.GasUsed
		}
	}
	if len(stats.Txs) != 1 || stats.Txs[0] != txs || stats.Gas[0] != gas || stats.ParallelBatches != 10 {
		t.Fatalf("stats %+v; want one lane of %d transactions and %d gas, 10 parallel batches", stats, txs, gas)
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
