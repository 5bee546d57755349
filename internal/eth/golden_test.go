package eth

import (
	"fmt"
	"math/big"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
)

// Golden end state of runGoldenScenario, captured on commit d034bf1 (the
// last one with a scheduler, pending pool and receipt accumulator per
// family). The bit-identity suites compare two runs of one build; these
// constants pin absolute values, so a change that shifts every run the
// same way still fails.
const (
	goldenDigest    = "b313c736ee79fc8be1f19d2447944c0d89cada8fe13277baf75ac63913431df4"
	goldenStateRoot = "c56fa27e7c1decc9d96b369bbaf645eb6199e79282ebf942e1826f277b28c93e"
	goldenHeadHash  = "2af0b722ba21c7fc92cd0728b56f82bff34dc465a0b7be0a5ddf348db8c12fc7"
)

// pickyCode is a contract that reverts every call carrying calldata and
// accepts everything else — so it deploys (empty constructor data) and
// then reverts on demand.
func pickyCode(t *testing.T) []byte {
	t.Helper()
	a := evm.NewAssembler()
	a.Op(evm.CALLDATASIZE).PushLabel("boom").Op(evm.JUMPI).Op(evm.STOP)
	a.Label("boom").PushUint(0).PushUint(0).Op(evm.REVERT)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// runGoldenScenario scripts every block-application path once: deployments
// (succeeding, reverting in the constructor, and short of the code
// deposit), successful calls, a reverting call, an out-of-gas call, value
// transfers, a sender whose second transaction is deferred at selection
// until a transfer tops the balance up, and admission through both Submit
// and SubmitBatch.
func runGoldenScenario(t *testing.T, shards int) *Chain {
	t.Helper()
	cfg := Goerli()
	cfg.CongestionMeanGas = 1_000_000
	cfg.SpikeProb = 0
	c := NewChain(cfg, 20221117)
	c.SetShards(shards)
	cl := NewClient(c)

	deployer := c.NewAccount(eth(10))
	var counters []chain.Address
	for i := 0; i < 3; i++ {
		_, addr, err := cl.deploy(deployer, counterCode(t), nil, nil, 300000)
		if err != nil {
			t.Fatal(err)
		}
		counters = append(counters, addr)
	}
	_, picky, err := cl.deploy(deployer, pickyCode(t), nil, nil, 300000)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.deploy(deployer, pickyCode(t), []byte{1}, nil, 300000); err == nil {
		t.Fatal("a constructor that reverts must fail the deployment")
	}
	// Gas covers the intrinsic cost but not the per-byte code deposit.
	short := cl.NewTx(deployer, nil, nil, PackDeployData(make([]byte, 600), nil), 0)
	short.GasLimit = evm.IntrinsicGas(short.Data, true) + 1000
	short.Sign(deployer)
	rcpt, err := cl.SubmitAndWait(short)
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.Reverted || rcpt.RevertMsg != "out of gas: code deposit" {
		t.Fatalf("code-deposit failure not exercised: %+v", rcpt)
	}

	const users = 8
	accts := make([]*Account, users)
	nonces := make([]uint64, users)
	for i := range accts {
		accts[i] = c.NewAccount(eth(1))
	}
	tip := big.NewInt(2_000_000_000)
	feeCap := func() *big.Int {
		return new(big.Int).Add(new(big.Int).Mul(c.BaseFee(), big.NewInt(2)), tip)
	}
	// poor can reserve one transfer's worst case, not two.
	upfront := new(big.Int).Mul(feeCap(), big.NewInt(21000))
	poor := c.NewAccount(new(big.Int).Add(upfront, new(big.Int).Rsh(upfront, 1)))
	sink := chain.AddressFromBytes([]byte("golden-sink"))

	for round := 0; round < 4; round++ {
		maxFee := feeCap()
		var txs []*Tx
		add := func(u *Account, nonce uint64, to chain.Address, value int64, data []byte, gas uint64) *Tx {
			tx := &Tx{
				From: u.Address, Nonce: nonce, To: &to,
				Value: big.NewInt(value), Data: data, GasLimit: gas,
				MaxFee: maxFee, MaxTip: tip,
			}
			tx.Sign(u)
			txs = append(txs, tx)
			return tx
		}
		for ui, u := range accts {
			add(u, nonces[ui], counters[ui%len(counters)], 0, nil, 90000)
			nonces[ui]++
			if round%2 == 0 {
				add(u, nonces[ui], accts[ui^1].Address, 1000+int64(ui), nil, 21000)
				nonces[ui]++
			}
		}
		// A REVERT, and a counter bump that runs out of gas at its SSTORE.
		failing := []*Tx{
			add(accts[1], nonces[1], picky, 7, []byte{0xff}, 60000),
			add(accts[2], nonces[2], counters[0], 0, nil, 23500),
		}
		nonces[1]++
		nonces[2]++
		switch round {
		case 0:
			// Both transfers pass admission one by one; selection reserves
			// the first and defers the second.
			add(poor, 0, sink, 1, nil, 21000)
			add(poor, 1, sink, 1, nil, 21000)
		case 2:
			// The top-up makes the deferred transfer affordable.
			add(accts[3], nonces[3], poor.Address, 5e16, nil, 21000)
			nonces[3]++
		}
		if round == 1 {
			for i, tx := range txs {
				if _, err := c.Submit(tx); err != nil {
					t.Fatalf("round %d tx %d: %v", round, i, err)
				}
			}
		} else {
			_, errs := c.SubmitBatch(txs)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("round %d tx %d: %v", round, i, err)
				}
			}
		}
		c.Step()
		if round == 0 && c.PendingCount() == 0 {
			t.Fatal("poor's second transfer was not deferred")
		}
		for _, tx := range failing {
			if rcpt, ok := c.Receipt(tx.Hash()); !ok || !rcpt.Reverted {
				t.Fatalf("round %d: failing call did not fail: %+v", round, rcpt)
			}
		}
	}
	for i := 0; i < 20 && c.PendingCount() > 0; i++ {
		c.Step()
	}
	if n := c.PendingCount(); n != 0 {
		t.Fatalf("%d transactions never included", n)
	}
	if got := c.Balance(sink).Base.Int64(); got != 2 {
		t.Fatalf("sink holds %d wei, want both of poor's transfers", got)
	}
	if got := c.Balance(picky).Base.Sign(); got != 0 {
		t.Fatal("a reverted call kept its value")
	}
	return c
}

func TestGoldenDigest(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := runGoldenScenario(t, shards)
			d, root, head := c.Digest(), c.StateRoot(), c.Head().Hash
			for _, g := range []struct{ name, got, want string }{
				{"digest", fmt.Sprintf("%x", d[:]), goldenDigest},
				{"state root", fmt.Sprintf("%x", root[:]), goldenStateRoot},
				{"head hash", fmt.Sprintf("%x", head[:]), goldenHeadHash},
			} {
				if g.got != g.want {
					t.Errorf("%s = %s, want %s", g.name, g.got, g.want)
				}
			}
		})
	}
}
