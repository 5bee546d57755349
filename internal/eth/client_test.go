package eth

import (
	"math/big"
	"testing"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/u256"
)

func wordKey(v uint64) chain.Hash32 {
	var h chain.Hash32
	new(big.Int).SetUint64(v).FillBytes(h[:])
	return h
}

func TestViewDoesNotMutateState(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	// Contract: SSTORE(1, 7) then return 1 — a view that tries to write.
	a := evm.NewAssembler()
	a.PushUint(7).PushUint(1).Op(evm.SSTORE)
	a.PushUint(1).PushUint(0).Op(evm.MSTORE).PushUint(32).PushUint(0).Op(evm.RETURN)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	_, addr, err := cl.deploy(alice, code, nil, nil, 300000)
	if err != nil {
		t.Fatal(err)
	}
	// Note: deployment executed the code once (ctor semantics), writing
	// slot 1. Clear it so the view's write is observable.
	c.st.SetStorage(addr, wordKey(1), chain.Hash32{})
	if _, err := cl.view(addr, nil); err != nil {
		t.Fatal(err)
	}
	if c.st.GetStorage(addr, wordKey(1)) != (chain.Hash32{}) {
		t.Fatal("view write leaked into chain state")
	}
}

func TestPendingNonceSeesMempool(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	to := chain.AddressFromBytes([]byte("x"))
	if n := c.PendingNonce(alice.Address); n != 0 {
		t.Fatalf("fresh account nonce %d", n)
	}
	tx1 := cl.NewTx(alice, &to, big.NewInt(1), nil, 21000)
	if _, err := c.Submit(tx1); err != nil {
		t.Fatal(err)
	}
	if n := c.PendingNonce(alice.Address); n != 1 {
		t.Fatalf("pending nonce %d, want 1", n)
	}
	// Second tx queued with the next nonce; both land in one block.
	tx2 := cl.NewTx(alice, &to, big.NewInt(2), nil, 21000)
	if tx2.Nonce != 1 {
		t.Fatalf("tx2 nonce %d", tx2.Nonce)
	}
	if _, err := c.Submit(tx2); err != nil {
		t.Fatal(err)
	}
	blk := c.Step()
	if len(blk.TxHashes) != 2 {
		t.Fatalf("block includes %d txs, want both", len(blk.TxHashes))
	}
	if got := c.Balance(to).Base.Int64(); got != 3 {
		t.Fatalf("recipient got %d", got)
	}
}

func TestPolygonCheaperAndFasterThanGoerli(t *testing.T) {
	run := func(cfg Config) (latency float64, feeWei *big.Int) {
		cfg.APIExtraDelayMean = 0
		cfg.APIExtraDelayJitter = 0
		c := NewChain(cfg, 5)
		cl := NewClient(c)
		alice := c.NewAccount(eth(10))
		to := chain.AddressFromBytes([]byte("y"))
		rcpt, err := cl.SubmitAndWait(cl.NewTx(alice, &to, big.NewInt(1), nil, 21000))
		if err != nil {
			t.Fatal(err)
		}
		return (rcpt.Included - rcpt.Submitted).Seconds(), rcpt.Fee.Base
	}
	gLat, gFee := run(Goerli())
	pLat, pFee := run(PolygonMumbai())
	if pLat >= gLat {
		t.Fatalf("polygon tx latency %.1fs not below goerli %.1fs", pLat, gLat)
	}
	if pFee.Cmp(gFee) >= 0 {
		t.Fatalf("polygon fee %s not below goerli %s", pFee, gFee)
	}
}

func TestAPIExtraDelayAdvancesClock(t *testing.T) {
	c := NewChain(Goerli(), 6)
	cl := NewClient(c)
	before := c.Now()
	d := cl.apiExtraDelay()
	if d <= 0 {
		t.Fatal("no delay sampled")
	}
	if c.Now()-before != d {
		t.Fatal("delay not applied to the clock")
	}
}

func TestSpikeEpisodesPersist(t *testing.T) {
	cfg := Goerli()
	cfg.SpikeProb = 1 // enter a spike immediately
	cfg.SpikeBlocksMean = 4
	c := NewChain(cfg, 7)
	c.Step()
	if c.spikeBlocksLeft == 0 {
		// With prob 1 we must be inside an episode (unless it drew
		// length 1, in which case a new one starts next block anyway).
		c.Step()
		if c.spikeBlocksLeft == 0 {
			c.Step()
		}
	}
	// Just assert the field is exercised; persistence is statistical.
	if c.Head().Number < 1 {
		t.Fatal("no blocks produced")
	}
}

func TestRevertedCallStillChargesFees(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	// The contract reverts only when calldata is present, so deployment
	// (which executes the code with empty ctor calldata) succeeds and
	// later calls revert.
	b := evm.NewAssembler()
	b.Op(evm.CALLDATASIZE).PushLabel("rev").Op(evm.JUMPI)
	b.Op(evm.STOP)
	b.Label("rev").PushUint(0).PushUint(0).Op(evm.REVERT)
	code, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	_, addr, err := cl.deploy(alice, code, nil, nil, 200000)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Balance(alice.Address).Base
	rcpt, err := cl.call(alice, addr, []byte{1}, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.Reverted {
		t.Fatal("call should revert")
	}
	after := c.Balance(alice.Address).Base
	if after.Cmp(before) >= 0 {
		t.Fatal("reverted call did not charge fees")
	}
	if diff := new(big.Int).Sub(before, after); diff.Cmp(rcpt.Fee.Base) != 0 {
		t.Fatalf("charged %s, receipt fee %s", diff, rcpt.Fee.Base)
	}
}

func TestUnderpricedTxWaitsForBaseFeeDrop(t *testing.T) {
	cfg := Goerli()
	cfg.CongestionMeanGas = 1_000_000 // calm: base fee decays fast
	cfg.SpikeProb = 0
	c := NewChain(cfg, 8)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	to := chain.AddressFromBytes([]byte("z"))
	// Cap the max fee below the current base fee: the tx must wait until
	// EIP-1559 decay brings the base fee under the cap.
	tx := cl.NewTx(alice, &to, big.NewInt(1), nil, 21000)
	tx.MaxFee = new(big.Int).Div(c.BaseFee(), big.NewInt(2))
	tx.MaxTip = new(big.Int).Set(tx.MaxFee)
	tx.Sign(alice)
	rcpt, err := cl.SubmitAndWait(tx)
	if err != nil {
		t.Fatal(err)
	}
	// Base fee halves in ≥ log(2)/log(1.125) ≈ 6 blocks of decay.
	if rcpt.BlockNumber < 4 {
		t.Fatalf("capped tx included at block %d, expected to wait for decay", rcpt.BlockNumber)
	}
}

// TestSubmitAndWaitLeavesTheChainsReceiptAlone: the receipt a client hands
// back carries the times the client observed — from the submit call to the
// confirmed read, the latency the paper's figures plot — and the chain's own
// answer for the same hash stays what was folded into the digest: when the
// network saw the transaction and when the block that took it was produced.
func TestSubmitAndWaitLeavesTheChainsReceiptAlone(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	bob := chain.AddressFromBytes([]byte("bob"))
	acc0, n0 := c.rcpts.Position()
	start := c.Now()
	tx := cl.NewTx(alice, &bob, big.NewInt(5), nil, 21000)
	rcpt, err := cl.SubmitAndWait(tx)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Submitted != start || rcpt.Included != c.Now() || (rcpt.Included-rcpt.Submitted) != c.Now()-start {
		t.Fatalf("client receipt spans %v–%v, the client saw %v–%v", rcpt.Submitted, rcpt.Included, start, c.Now())
	}
	stored, ok := c.Receipt(tx.Hash())
	if !ok {
		t.Fatal("chain has no receipt for the confirmed transaction")
	}
	if stored.Included != time.Duration(stored.BlockNumber)*c.cfg.SlotDuration ||
		stored.Submitted <= start || stored.Submitted >= stored.Included || stored.Included >= rcpt.Included {
		t.Fatalf("chain receipt spans %v–%v (block %d), client %v–%v", stored.Submitted, stored.Included, stored.BlockNumber, start, rcpt.Included)
	}
	// Folding the chain's answer over the accumulator from before the
	// transaction must give the accumulator of now: it is what was hashed.
	var h chain.Hasher
	h.Bytes(acc0[:])
	h.Bytes(stored.TxHash[:])
	h.U64(stored.BlockNumber)
	h.U64(stored.GasUsed)
	h.U64(uint64(stored.Submitted))
	h.U64(uint64(stored.Included))
	h.U64(0) // not reverted
	h.Bytes(nil)
	h.Bytes(stored.ReturnValue)
	h.Bytes(encodeBalance(u256.FromBig(stored.Fee.Base)))
	if acc1, n1 := c.rcpts.Position(); n1 != n0+1 || h.Sum() != acc1 || stored.Reverted {
		t.Fatal("Receipt(h) after SubmitAndWait is not the receipt the digest folded")
	}
}
