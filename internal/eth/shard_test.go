package eth

import (
	"math/big"
	"reflect"
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
// peer-to-peer transfers — through a chain configured with the given shard
// count and returns the chain and its end-state digest. Everything about
// the workload is deterministic, so any digest difference across shard
// counts is a sharding bug.
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
		_, addr, err := cl.Deploy(deployer, code, nil, nil, 300000)
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
		for ui, u := range accts {
			to := contracts[ui%areas]
			call := &Tx{
				From: u.Address, Nonce: nonces[ui], To: &to,
				Value: big.NewInt(0), GasLimit: 90000,
				MaxFee: maxFee, MaxTip: tip,
			}
			call.Sign(u)
			nonces[ui]++
			txs = append(txs, call)
			if round%2 == 0 {
				// Pair transfers keep components small but non-trivial.
				peer := accts[ui^1].Address
				pay := &Tx{
					From: u.Address, Nonce: nonces[ui], To: &peer,
					Value: big.NewInt(1000), GasLimit: 21000,
					MaxFee: maxFee, MaxTip: tip,
				}
				pay.Sign(u)
				nonces[ui]++
				txs = append(txs, pay)
			}
		}
		_, errs := c.SubmitBatch(txs)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d tx %d: %v", round, i, err)
			}
		}
		c.Step()
	}
	for i := 0; i < 20 && c.PendingCount() > 0; i++ {
		c.Step()
	}
	if c.PendingCount() != 0 {
		t.Fatalf("%d transactions never included", c.PendingCount())
	}
	return c
}

func TestShardedBlockBitIdentity(t *testing.T) {
	ref := runShardedWorkload(t, 1)
	refDigest := ref.Digest()
	for _, shards := range []int{2, 3, 4, 8} {
		c := runShardedWorkload(t, shards)
		if len(c.blocks) != len(ref.blocks) {
			t.Fatalf("shards=%d: %d blocks vs %d serial", shards, len(c.blocks), len(ref.blocks))
		}
		for i := range ref.blocks {
			if c.blocks[i].Hash != ref.blocks[i].Hash {
				t.Fatalf("shards=%d: block %d hash diverges", shards, i)
			}
			if len(c.blocks[i].TxHashes) != len(ref.blocks[i].TxHashes) {
				t.Fatalf("shards=%d: block %d tx count diverges", shards, i)
			}
		}
		if d := c.Digest(); d != refDigest {
			t.Fatalf("shards=%d: state digest diverges from serial run", shards)
		}
	}
}

// TestConsensusBitIdentityAcrossGOMAXPROCS: committee attestation and batch
// admission fan out across cores, and the blocks must not show it — the
// same seeded chain stepped on one core and on four carries the same
// hashes, the same attestations in the same order, and the same digest, and
// every block still verifies.
func TestConsensusBitIdentityAcrossGOMAXPROCS(t *testing.T) {
	// attestAll asks for every block's attestations at the current
	// GOMAXPROCS: evidence is derived on request, so the fan-out under test
	// runs here.
	attestAll := func(c *Chain) [][]Attestation {
		out := make([][]Attestation, len(c.blocks))
		for i, blk := range c.blocks {
			out[i] = c.Attestations(blk)
		}
		return out
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	ref := runShardedWorkload(t, 2)
	refAtts := attestAll(ref)
	runtime.GOMAXPROCS(4)
	c := runShardedWorkload(t, 2)
	atts := attestAll(c)

	if len(c.blocks) != len(ref.blocks) {
		t.Fatalf("%d blocks on 4 cores vs %d on 1", len(c.blocks), len(ref.blocks))
	}
	for i, blk := range c.blocks {
		if blk.Hash != ref.blocks[i].Hash {
			t.Fatalf("block %d hash depends on GOMAXPROCS", i)
		}
		if !reflect.DeepEqual(atts[i], refAtts[i]) {
			t.Fatalf("block %d attestations depend on GOMAXPROCS", i)
		}
		if i == 0 {
			continue // genesis carries no attestations
		}
		if len(atts[i]) == 0 {
			t.Fatalf("block %d has no attestations", i)
		}
		if err := c.VerifyBlock(blk, atts[i]); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	if c.Digest() != ref.Digest() {
		t.Fatal("digest depends on GOMAXPROCS")
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
