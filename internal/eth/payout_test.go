package eth

import (
	"fmt"
	"math/big"
	"runtime"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
)

// payToCode sends 1 000 wei to wallet through a raw CALL with value: what
// an area contract does when it releases a reward.
func payToCode(tb testing.TB, wallet chain.Address) []byte {
	tb.Helper()
	a := evm.NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0) // out/in
	a.PushUint(1_000).PushBytes(wallet[:])            // value, to
	a.PushUint(0).Op(evm.CALL).Op(evm.STOP)           // gas
	code, err := a.Assemble()
	if err != nil {
		tb.Fatal(err)
	}
	return code
}

// TestTwoAreasPayOneWallet: two area contracts each pay 1 000 wei to a
// wallet holding 1 wei, called by two users in one block. At every
// SetShards width and on one, two and four cores the wallet ends at
// 2 001 wei, the wei Fund minted is all in some balance or burned, and
// the digest is the width-1 run's. The control pays two wallets, 1 001
// wei each. The wallet is named only in the contracts' code, so nothing
// about the two transactions says they touch one account (ROADMAP item
// 15).
func TestTwoAreasPayOneWallet(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, shared := range []bool{true, false} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			var ref chain.Hash32
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for shards := 1; shards <= 8; shards++ {
					d := payTwoWallets(t, shards, shared)
					if procs == 1 && shards == 1 {
						ref = d
					} else if d != ref {
						t.Fatalf("procs=%d shards=%d: digest diverges from the width-1 run", procs, shards)
					}
				}
			}
		})
	}
}

// payTwoWallets runs one block in which two users call one area contract
// each, and checks the wallets' balances and conservation.
func payTwoWallets(t *testing.T, shards int, shared bool) chain.Hash32 {
	t.Helper()
	cfg := Goerli()
	cfg.CongestionMeanGas = 1_000_000
	cfg.SpikeProb = 0
	cfg.ValidatorCount = 4
	c := NewChain(cfg, 15)
	c.SetShards(shards)

	minted := new(big.Int)
	var holders []chain.Address
	fund := func(addr chain.Address, amount *big.Int) {
		c.Fund(addr, amount)
		minted.Add(minted, amount)
		holders = append(holders, addr)
	}
	wallets := []chain.Address{chain.AddressFromBytes([]byte("wallet")), chain.AddressFromBytes([]byte("wallet 2"))}
	if shared {
		wallets[1] = wallets[0]
	}
	fund(wallets[0], big.NewInt(1))
	if !shared {
		fund(wallets[1], big.NewInt(1))
	}
	rng := chain.NewRand(15).Fork("test:keys")
	var txs []*Tx
	for i, wallet := range wallets {
		area := chain.AddressFromBytes([]byte{'a', byte(i)})
		c.st.SetCode(area, payToCode(t, wallet))
		fund(area, big.NewInt(1_000_000))
		user := chain.NewAccount(rng)
		fund(user.Address, eth(1))
		tx := &Tx{
			From: user.Address, To: &area, Value: new(big.Int), GasLimit: 100_000,
			MaxFee: big.NewInt(100_000_000_000), MaxTip: big.NewInt(2_000_000_000),
		}
		tx.Sign(user)
		txs = append(txs, tx)
	}
	holders = append(holders, c.proposers...)

	_, errs := c.SubmitBatch(txs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shards=%d: tx %d: %v", shards, i, err)
		}
	}
	if blk := c.Step(); len(blk.TxHashes) != len(txs) {
		t.Fatalf("shards=%d: the block took %d of %d calls", shards, len(blk.TxHashes), len(txs))
	}
	for _, tx := range txs {
		if rcpt, _ := c.Receipt(tx.Hash()); rcpt.Reverted {
			t.Fatalf("shards=%d: a payout reverted: %s", shards, rcpt.RevertMsg)
		}
	}
	want := int64(1_001)
	if shared {
		want = 2_001
	}
	paid := wallets
	if shared {
		paid = wallets[:1]
	}
	for _, w := range paid {
		if got := c.Balance(w).Base; got.Cmp(big.NewInt(want)) != 0 {
			t.Errorf("shards=%d: wallet %s holds %s wei, want %d", shards, w, got, want)
		}
	}
	sum := c.burned.ToBig()
	for _, h := range holders {
		sum.Add(sum, c.Balance(h).Base)
	}
	if sum.Cmp(minted) != 0 {
		t.Errorf("shards=%d: balances and burned sum to %s, Fund minted %s", shards, sum, minted)
	}
	return c.Digest()
}
