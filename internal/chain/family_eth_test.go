package chain_test

import (
	"encoding/json"
	"fmt"
	"math/big"
	"testing"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/eth"
	"agnopol/internal/evm"
	"agnopol/internal/polcrypto"
)

// ethNode is an eth chain behind its client.
type ethNode struct{ *eth.Client }

func (n ethNode) step() sealed {
	b := n.Step()
	return sealed{b.Hash, b.StateRoot, b.TxHashes, b.Proposer}
}

func (n ethNode) headHash() chain.Hash32 { return n.Head().Hash }

var ethFamily = &family{
	name:        "eth",
	open:        openEth,
	errNoVoters: eth.ErrNoValidators,
	openVoters: func(n int) error {
		cfg := eth.Goerli()
		cfg.ValidatorCount = n
		_, err := eth.Open(eth.Options{Config: cfg, Seed: 1})
		return err
	},
	funds: ether(10),

	deployCheckins: func(tb testing.TB, n node, deployer *chain.Account, count int) []chain.Contract {
		tb.Helper()
		code := checkinCode(tb)
		items := make([]chain.Item, count)
		for i := range items {
			items[i] = ethTx(n, deployer, uint64(i), nil, 0, eth.PackDeployData(code, nil), 300_000)
		}
		submit(tb, n, items...)
		drain(tb, n)
		areas := make([]chain.Contract, count)
		for i, item := range items {
			if rc, ok := n.Receipt(item.Hash()); !ok || rc.Reverted {
				tb.Fatalf("check-in contract %d: %v %+v", i, ok, rc)
			}
			areas[i] = chain.Contract{Addr: chain.ContractAddress(deployer.Address, uint64(i))}
		}
		return areas
	},
	checkin: func(n node, from *chain.Account, nonce uint64, at chain.Contract) chain.Item {
		return ethTx(n, from, nonce, &at.Addr, 0, nil, 90_000)
	},
	transfer: func(n node, from *chain.Account, nonce uint64, to chain.Address, amount uint64) chain.Item {
		return ethTx(n, from, nonce, &to, int64(amount), nil, 50_000)
	},
	checkinReturn: 32,
	submitOne: func(n node, item chain.Item) error {
		_, err := n.(ethNode).Submit(item.(*eth.Tx))
		return err
	},
	forge:       func(item chain.Item) { item.(*eth.Tx).Sig[0] ^= 0xff },
	transferGas: 21_000,
	explorer: func(n node, areas []chain.Contract) []any {
		var rows []any
		for _, a := range areas {
			for _, r := range n.(ethNode).HistoryOf(a.Addr) {
				rows = append(rows, r)
			}
		}
		return rows
	},

	// Step measures 15.2 allocations per check-in; a retained check-in
	// costs 68.55 B (record ≈ 56, of it 9 explorer columns with a two-byte
	// user id and a one-byte area id; its offset 4, index 8), and the
	// budget is that plus 10 %.
	allocsPerCheckin:   16,
	retainedPerCheckin: 76,
	emptyBlocks:        4000,

	pendingKey: "Mempool",
	tampers: []tamper{
		// Entry i sends value 0, 5 and 1 000: the zero value signs the
		// bytes a null one does, and 5 those of -5, so neither tamper
		// breaks its signature.
		{"null value", func(_ node, _ *chain.Account, _ chain.Address, e []any) { item(e, 0)["Value"] = nil }, eth.ErrMissingAmount},
		{"5 rewritten to -5", func(_ node, _ *chain.Account, _ chain.Address, e []any) { item(e, 1)["Value"] = json.Number("-5") }, eth.ErrNegativeAmount},
		{"1000 rewritten to -5", func(_ node, _ *chain.Account, _ chain.Address, e []any) { item(e, 2)["Value"] = json.Number("-5") }, polcrypto.ErrBadSignature},
		// Signed by alice, but with a gas limit Submit refuses.
		{"signed gas limit of 100", func(n node, alice *chain.Account, bob chain.Address, e []any) {
			e[0].(map[string]any)["Item"] = jsonValue(ethTx(n, alice, 0, &bob, 0, nil, 100))
		}, eth.ErrGasLimitTooLow},
	},
	feeFold:   func(fee *big.Int) []byte { return append([]byte{byte(fee.Sign())}, fee.Bytes()...) },
	blockTime: func(n node) time.Duration { return n.(ethNode).Config().SlotDuration },
	feesHeld: func(tb testing.TB, n node, seed uint64) *big.Int {
		tb.Helper()
		blob, err := n.MarshalCheckpoint()
		if err != nil {
			tb.Fatal(err)
		}
		var ck eth.Checkpoint
		if err := json.Unmarshal(blob, &ck); err != nil {
			tb.Fatal(err)
		}
		held := new(big.Int).SetBytes(ck.Burned)
		for _, v := range validatorAccounts(n.(ethNode).Config(), seed) {
			held.Add(held, n.Balance(v.Address).Base)
		}
		return held
	},
	payout: func(tb testing.TB, n node, deployer *chain.Account, wallet chain.Address) (chain.Address, func(*chain.Account) chain.Item) {
		tb.Helper()
		_, area, err := deployCode(n.(ethNode).Client, deployer, payToCode(tb, wallet), nil, 300_000)
		if err != nil {
			tb.Fatal(err)
		}
		return area, func(user *chain.Account) chain.Item { return ethTx(n, user, 0, &area, 0, nil, 100_000) }
	},
	walletFunds: 1,

	// Golden end state of ethGolden, captured on commit d034bf1 (the last
	// one with a scheduler, pending pool and receipt accumulator per
	// family).
	golden:          ethGolden,
	goldenDigest:    "b313c736ee79fc8be1f19d2447944c0d89cada8fe13277baf75ac63913431df4",
	goldenStateRoot: "c56fa27e7c1decc9d96b369bbaf645eb6199e79282ebf942e1826f277b28c93e",
	goldenHeadHash:  "2af0b722ba21c7fc92cd0728b56f82bff34dc465a0b7be0a5ddf348db8c12fc7",
	mixed:           ethMixed,
	mixedBatches:    10,
}

func openEth(o opts) (node, error) {
	cfg := eth.Goerli()
	if o.calm {
		cfg = calmGoerli()
	}
	if o.perBlock > 0 {
		cfg.CongestionElasticity = 0 // the base fee falls to its floor; demand must not rise to meet it
		cfg.BlockGasLimit = max(cfg.BlockGasLimit, uint64(o.perBlock)*2*90_000)
	}
	if o.fresh() {
		return ethNode{eth.NewClient(eth.NewChain(cfg, o.seed))}, nil
	}
	var ck *eth.Checkpoint
	if o.ck != nil {
		ck = new(eth.Checkpoint)
		if err := json.Unmarshal(o.ck, ck); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadJSON, err)
		}
	}
	c, err := eth.Open(eth.Options{Config: cfg, Seed: o.seed, Store: o.store, Root: o.root, Checkpoint: ck})
	if err != nil {
		return nil, err
	}
	return ethNode{eth.NewClient(c)}, nil
}

// ether is f ETH in wei.
func ether(f float64) *big.Int {
	v, _ := new(big.Float).Mul(big.NewFloat(f), big.NewFloat(1e18)).Int(nil)
	return v
}

// ethTx is from's signed nonce-th transaction, its fee cap twice the base
// fee plus a 2 gwei tip.
func ethTx(n node, from *chain.Account, nonce uint64, to *chain.Address, value int64, data []byte, gas uint64) *eth.Tx {
	tip := big.NewInt(2_000_000_000)
	tx := &eth.Tx{
		From: from.Address, Nonce: nonce, To: to, Value: big.NewInt(value), Data: data, GasLimit: gas,
		MaxFee: new(big.Int).Add(new(big.Int).Mul(n.(ethNode).BaseFee(), big.NewInt(2)), tip), MaxTip: tip,
	}
	tx.Sign(from)
	return tx
}

// item is a decoded checkpoint entry's transaction.
func item(entries []any, i int) map[string]any {
	return entries[i].(map[string]any)["Item"].(map[string]any)
}

// assemble assembles code built on a fresh assembler.
func assemble(tb testing.TB, build func(a *evm.Assembler)) []byte {
	tb.Helper()
	a := evm.NewAssembler()
	build(a)
	code, err := a.Assemble()
	if err != nil {
		tb.Fatal(err)
	}
	return code
}

// checkinCode counts calls per caller and returns the new count as one ABI
// word — the shape of the soak's check-in: two storage accesses, a 32-byte
// return value, no logs.
func checkinCode(tb testing.TB) []byte {
	return assemble(tb, func(a *evm.Assembler) {
		a.Op(evm.CALLER).Op(evm.SLOAD).PushUint(1).Op(evm.ADD)
		a.Op(evm.DUP1).Op(evm.CALLER).Op(evm.SSTORE)
		a.PushUint(0).Op(evm.MSTORE).PushUint(32).PushUint(0).Op(evm.RETURN)
	})
}

// counterCode increments a per-caller storage slot on every call.
func counterCode(tb testing.TB) []byte {
	return assemble(tb, func(a *evm.Assembler) {
		a.Op(evm.CALLER).Op(evm.SLOAD).PushUint(1).Op(evm.ADD)
		a.Op(evm.CALLER).Op(evm.SSTORE).Op(evm.STOP)
	})
}

// pickyCode reverts every call carrying calldata and accepts everything
// else — so it deploys (empty constructor data) and then reverts on
// demand.
func pickyCode(tb testing.TB) []byte {
	return assemble(tb, func(a *evm.Assembler) {
		a.Op(evm.CALLDATASIZE).PushLabel("boom").Op(evm.JUMPI).Op(evm.STOP)
		a.Label("boom").PushUint(0).PushUint(0).Op(evm.REVERT)
	})
}

// payToCode sends 1 000 wei to wallet through a raw CALL with value: what
// an area contract does when it releases a reward. The wallet is named
// only in the code, so nothing about a call says it touches the wallet.
func payToCode(tb testing.TB, wallet chain.Address) []byte {
	return assemble(tb, func(a *evm.Assembler) {
		a.PushUint(0).PushUint(0).PushUint(0).PushUint(0) // out/in
		a.PushUint(1_000).PushBytes(wallet[:])            // value, to
		a.PushUint(0).Op(evm.CALL).Op(evm.STOP)           // gas
	})
}

// deployCode is a client deployment: code with constructor data ctor, at
// the client's fee policy, submitted and waited for.
func deployCode(cl *eth.Client, acct *chain.Account, code, ctor []byte, gas uint64) (*chain.Receipt, chain.Address, error) {
	tx := cl.NewTx(acct, nil, nil, eth.PackDeployData(code, ctor), gas)
	addr := chain.ContractAddress(acct.Address, tx.Nonce)
	rcpt, err := cl.SubmitAndWait(tx)
	if err != nil {
		return nil, chain.Address{}, err
	}
	if rcpt.Reverted {
		return rcpt, chain.Address{}, fmt.Errorf("deployment reverted: %s", rcpt.RevertMsg)
	}
	return rcpt, addr, nil
}

// validatorAccounts re-derives the validators' keys from the chain's
// validators stream, as eth.NewChain does to derive their addresses, so
// that a test can sign as a validator.
func validatorAccounts(cfg eth.Config, seed uint64) []*chain.Account {
	rng := chain.NewRand(seed).Fork("eth:" + cfg.Name)
	rng.Fork("client")
	keyRng := rng.Fork("validators")
	accts := make([]*chain.Account, cfg.ValidatorCount)
	for i := range accts {
		kp := polcrypto.MustGenerateKeyPair(keyRng)
		accts[i] = &chain.Account{Key: kp, Address: chain.AddressFromPublicKey(kp.Public)}
	}
	return accts
}

// calmGoerli is Goerli without background demand or congestion spikes.
func calmGoerli() eth.Config {
	cfg := eth.Goerli()
	cfg.CongestionMeanGas = 1_000_000
	cfg.SpikeProb = 0
	return cfg
}

// deployCounters deploys count counterCode contracts from deployer through
// the client.
func deployCounters(t *testing.T, cl *eth.Client, deployer *chain.Account, count int) ([]chain.Address, []*chain.Receipt) {
	t.Helper()
	var addrs []chain.Address
	var rcpts []*chain.Receipt
	for i := 0; i < count; i++ {
		rcpt, addr, err := deployCode(cl, deployer, counterCode(t), nil, 300000)
		if err != nil {
			t.Fatal(err)
		}
		addrs, rcpts = append(addrs, addr), append(rcpts, rcpt)
	}
	return addrs, rcpts
}

// ethBatch collects signed transactions at one fee cap and tip.
type ethBatch struct {
	maxFee, tip *big.Int
	items       []chain.Item
}

func (b *ethBatch) add(from *chain.Account, nonce uint64, to *chain.Address, value int64, data []byte, gas uint64) *eth.Tx {
	tx := &eth.Tx{
		From: from.Address, Nonce: nonce, To: to, Value: big.NewInt(value), Data: data, GasLimit: gas,
		MaxFee: b.maxFee, MaxTip: b.tip,
	}
	tx.Sign(from)
	b.items = append(b.items, tx)
	return tx
}

// ethGolden scripts every block-application path once: deployments
// (succeeding, reverting in the constructor, and short of the code
// deposit), successful calls, a reverting call, an out-of-gas call, value
// transfers, a sender whose second transaction is deferred at selection
// until a transfer tops the balance up, and admission through both Submit
// and SubmitBatch.
func ethGolden(t *testing.T, shards int) node {
	t.Helper()
	c := eth.NewChain(calmGoerli(), 20221117)
	c.SetShards(shards)
	cl := eth.NewClient(c)
	n := ethNode{cl}

	deployer := c.NewAccount(ether(10))
	counters, _ := deployCounters(t, cl, deployer, 3)
	_, picky, err := deployCode(cl, deployer, pickyCode(t), nil, 300000)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := deployCode(cl, deployer, pickyCode(t), []byte{1}, 300000); err == nil {
		t.Fatal("a constructor that reverts must fail the deployment")
	}
	// Gas covers the intrinsic cost but not the per-byte code deposit.
	short := cl.NewTx(deployer, nil, nil, eth.PackDeployData(make([]byte, 600), nil), 0)
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
	accts := make([]*chain.Account, users)
	nonces := make([]uint64, users)
	for i := range accts {
		accts[i] = c.NewAccount(ether(1))
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
		b := &ethBatch{maxFee: feeCap(), tip: tip}
		for ui, u := range accts {
			b.add(u, nonces[ui], &counters[ui%len(counters)], 0, nil, 90000)
			nonces[ui]++
			if round%2 == 0 {
				b.add(u, nonces[ui], &accts[ui^1].Address, 1000+int64(ui), nil, 21000)
				nonces[ui]++
			}
		}
		// A REVERT, and a counter bump that runs out of gas at its SSTORE.
		failing := []*eth.Tx{
			b.add(accts[1], nonces[1], &picky, 7, []byte{0xff}, 60000),
			b.add(accts[2], nonces[2], &counters[0], 0, nil, 23500),
		}
		nonces[1]++
		nonces[2]++
		switch round {
		case 0:
			// Both transfers pass admission one by one; selection reserves
			// the first and defers the second.
			b.add(poor, 0, &sink, 1, nil, 21000)
			b.add(poor, 1, &sink, 1, nil, 21000)
		case 2:
			// The top-up makes the deferred transfer affordable.
			b.add(accts[3], nonces[3], &poor.Address, 5e16, nil, 21000)
			nonces[3]++
		}
		if round == 1 {
			for i, item := range b.items {
				if _, err := c.Submit(item.(*eth.Tx)); err != nil {
					t.Fatalf("round %d tx %d: %v", round, i, err)
				}
			}
		} else {
			submit(t, n, b.items...)
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
	drain(t, n)
	if got := c.Balance(sink).Base.Int64(); got != 2 {
		t.Fatalf("sink holds %d wei, want both of poor's transfers", got)
	}
	if got := c.Balance(picky).Base.Sign(); got != 0 {
		t.Fatal("a reverted call kept its value")
	}
	return n
}

// ethMixed drives per-area contract calls plus peer-to-peer transfers —
// among them a call that runs out of gas, a deployment inside a batch, and
// a transfer from every validator, so that one comes from the validator
// proposing the block that carries it: its balance is debited by execution
// and credited the block's tips by the tail.
func ethMixed(t *testing.T, shards int) (node, []sealed, []*chain.Receipt) {
	t.Helper()
	cfg := calmGoerli()
	cfg.ValidatorCount = 4
	c := eth.NewChain(cfg, 1234)
	validators := validatorAccounts(cfg, 1234)
	c.SetShards(shards)
	cl := eth.NewClient(c)
	n := ethNode{cl}

	const areas, users = 4, 16
	contracts, deploys := deployCounters(t, cl, c.NewAccount(ether(10)), areas)
	var blocks []sealed
	accts := make([]*chain.Account, users)
	nonces := make([]uint64, users)
	for i := range accts {
		accts[i] = c.NewAccount(ether(1))
	}

	tip := big.NewInt(2_000_000_000)
	for round := 0; round < 10; round++ {
		b := &ethBatch{maxFee: new(big.Int).Add(new(big.Int).Mul(c.BaseFee(), big.NewInt(2)), tip), tip: tip}
		var starved *eth.Tx
		for ui, u := range accts {
			b.add(u, nonces[ui], &contracts[ui%areas], 0, nil, 90000)
			nonces[ui]++
			if round%2 == 0 {
				// Pair transfers keep components small but non-trivial.
				b.add(u, nonces[ui], &accts[ui^1].Address, 1000, nil, 21000)
				nonces[ui]++
			}
			switch {
			case round == 3 && ui == 1:
				// Too little gas for the counter's storage write: reverts.
				starved = b.add(u, nonces[ui], &contracts[ui%areas], 0, nil, 21100)
				nonces[ui]++
			case round == 5 && ui == 2:
				b.add(u, nonces[ui], nil, 0, eth.PackDeployData(counterCode(t), nil), 300000)
				nonces[ui]++
			}
		}
		own := map[chain.Address]*eth.Tx{}
		before := map[chain.Address]*big.Int{}
		for _, v := range validators {
			c.Fund(v.Address, ether(1))
			own[v.Address] = b.add(v, c.PendingNonce(v.Address), &accts[3].Address, 777, nil, 21000)
			before[v.Address] = c.Balance(v.Address).Base
		}
		submit(t, n, b.items...)
		blk := n.step()
		blocks = append(blocks, blk)
		proposer := blk.proposer.(chain.Address)

		// before − (value + fee of its own transfer) + every transaction's tip.
		mine, ok := own[proposer]
		if !ok {
			t.Fatalf("round %d: the proposer %s is not one of the re-derived validators", round, proposer)
		}
		want := new(big.Int).Sub(before[proposer], big.NewInt(777))
		baseFee := c.Head().BaseFee.ToBig()
		for _, h := range blk.items {
			rcpt, ok := c.Receipt(h)
			if !ok {
				t.Fatalf("round %d: no receipt for an included transaction", round)
			}
			if h == mine.Hash() {
				want.Sub(want, rcpt.Fee.Base)
			}
			burn := new(big.Int).Mul(baseFee, new(big.Int).SetUint64(rcpt.GasUsed))
			want.Add(want, burn.Sub(rcpt.Fee.Base, burn))
		}
		if got := c.Balance(proposer).Base; len(blk.items) != len(b.items) || got.Cmp(want) != 0 {
			t.Fatalf("round %d: proposer %s took %d of %d transactions and holds %s, want %s",
				round, proposer, len(blk.items), len(b.items), got, want)
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
	return n, append(blocks, drain(t, n)...), deploys
}
