package eth

import (
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
)

func newTestChain(t *testing.T) *Chain {
	t.Helper()
	cfg := Goerli()
	// Calm network for deterministic unit tests.
	cfg.CongestionMeanGas = 1_000_000
	cfg.SpikeProb = 0
	return NewChain(cfg, 1)
}

func eth(f float64) *big.Int {
	v, _ := new(big.Float).Mul(big.NewFloat(f), big.NewFloat(1e18)).Int(nil)
	return v
}

func TestSimplePaymentFlow(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	bobAddr := chain.AddressFromBytes([]byte("bob"))
	tx := cl.NewTx(alice, &bobAddr, big.NewInt(12345), nil, 21000)
	rcpt, err := cl.SubmitAndWait(tx)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Reverted {
		t.Fatalf("payment reverted: %s", rcpt.RevertMsg)
	}
	if rcpt.GasUsed != 21000 {
		t.Fatalf("gas = %d, want 21000", rcpt.GasUsed)
	}
	if got := c.Balance(bobAddr).Base.Int64(); got != 12345 {
		t.Fatalf("bob balance %d", got)
	}
	if (rcpt.Included - rcpt.Submitted) <= 0 {
		t.Fatal("latency must be positive")
	}
	// Sender paid value + fee.
	fee := rcpt.Fee.Base
	want := new(big.Int).Sub(eth(1), big.NewInt(12345))
	want.Sub(want, fee)
	if got := c.Balance(alice.Address).Base; got.Cmp(want) != 0 {
		t.Fatalf("alice balance %s, want %s", got, want)
	}
}

func TestSubmitValidation(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	to := chain.AddressFromBytes([]byte("x"))

	// Unsigned/forged signature.
	tx := cl.NewTx(alice, &to, big.NewInt(1), nil, 21000)
	tx.Sig[0] ^= 1
	if _, err := c.Submit(tx); err == nil {
		t.Fatal("tampered signature accepted")
	}

	// Wrong sender address.
	mallory := c.NewAccount(eth(1))
	tx = cl.NewTx(alice, &to, big.NewInt(1), nil, 21000)
	tx.From = mallory.Address
	tx.Sign(alice)
	if _, err := c.Submit(tx); err == nil {
		t.Fatal("address/key mismatch accepted")
	}

	// Gas below intrinsic.
	tx = cl.NewTx(alice, &to, big.NewInt(1), []byte{1, 2, 3}, 21000)
	if _, err := c.Submit(tx); !errors.Is(err, ErrGasLimitTooLow) {
		t.Fatalf("err = %v, want gas too low", err)
	}

	// Insufficient balance for gas + value.
	poor := c.NewAccount(big.NewInt(1000))
	tx = cl.NewTx(poor, &to, big.NewInt(1), nil, 21000)
	if _, err := c.Submit(tx); !errors.Is(err, ErrInsufficientEth) {
		t.Fatalf("err = %v, want insufficient", err)
	}

	// Nonce reuse.
	tx = cl.NewTx(alice, &to, big.NewInt(1), nil, 21000)
	if _, err := cl.SubmitAndWait(tx); err != nil {
		t.Fatal(err)
	}
	replay := *tx
	if _, err := c.Submit(&replay); !errors.Is(err, ErrNonceTooLow) {
		t.Fatalf("err = %v, want nonce too low", err)
	}
}

// TestBaseFeeBoundedPerBlock: EIP-1559 moves the base fee by at most 12.5%
// per block in either direction.
func TestBaseFeeBoundedPerBlock(t *testing.T) {
	cfg := Goerli()
	cfg.CongestionSigma = 1.2
	cfg.SpikeProb = 0.3
	cfg.SpikeFactor = 4
	c := NewChain(cfg, 3)
	prev := c.BaseFee()
	for i := 0; i < 300; i++ {
		c.Step()
		cur := c.BaseFee()
		up := new(big.Int).Div(new(big.Int).Mul(prev, big.NewInt(9)), big.NewInt(8))
		down := new(big.Int).Div(new(big.Int).Mul(prev, big.NewInt(7)), big.NewInt(8))
		if cur.Cmp(up) > 0 {
			t.Fatalf("block %d: base fee rose more than 12.5%%: %s -> %s", i, prev, cur)
		}
		// Allow one wei of rounding slack on the way down.
		down.Sub(down, big.NewInt(1))
		if cur.Cmp(down) < 0 && cur.Cmp(cfg.MinBaseFee) != 0 {
			t.Fatalf("block %d: base fee fell more than 12.5%%: %s -> %s", i, prev, cur)
		}
		prev = cur
	}
}

func TestBaseFeeRespondsToDemand(t *testing.T) {
	cfg := Goerli()
	cfg.CongestionMeanGas = 28_000_000 // far above the 15M target
	cfg.CongestionSigma = 0.05
	cfg.CongestionElasticity = 0
	cfg.SpikeProb = 0
	c := NewChain(cfg, 4)
	start := c.BaseFee()
	for i := 0; i < 30; i++ {
		c.Step()
	}
	if c.BaseFee().Cmp(start) <= 0 {
		t.Fatal("base fee did not rise under sustained demand")
	}

	cfg.CongestionMeanGas = 2_000_000 // far below target
	c2 := NewChain(cfg, 5)
	start = c2.BaseFee()
	for i := 0; i < 30; i++ {
		c2.Step()
	}
	if c2.BaseFee().Cmp(start) >= 0 {
		t.Fatal("base fee did not fall under low demand")
	}
}

func TestProposerSelectionIsStakeWeightedAndDeterministic(t *testing.T) {
	c := newTestChain(t)
	p1 := c.pickProposer(c.Head().Hash, 1)
	p2 := c.pickProposer(c.Head().Hash, 1)
	if p1 != p2 {
		t.Fatal("proposer selection not deterministic per slot")
	}
	// Different slots usually give different proposers over many slots.
	seen := map[chain.Address]bool{}
	for s := uint64(0); s < 64; s++ {
		seen[c.pickProposer(c.Head().Hash, s)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct proposers over 64 slots", len(seen))
	}
}

func TestFeesBurnedAndTipped(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	to := chain.AddressFromBytes([]byte("x"))
	rcpt, err := cl.SubmitAndWait(cl.NewTx(alice, &to, big.NewInt(1), nil, 21000))
	if err != nil {
		t.Fatal(err)
	}
	burned, tipped := c.burned, c.tipped
	if sum := burned.Add(tipped); sum.ToBig().Cmp(rcpt.Fee.Base) != 0 {
		t.Fatalf("burned+tipped = %s, fee = %s", sum, rcpt.Fee.Base)
	}
	if burned.IsZero() || tipped.IsZero() {
		t.Fatalf("burned=%s tipped=%s, both must be positive", burned, tipped)
	}
}

func TestContractDeployAndCallThroughChain(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))

	// Code: return 42.
	a := evm.NewAssembler()
	a.PushUint(42).PushUint(0).Op(evm.MSTORE).PushUint(32).PushUint(0).Op(evm.RETURN)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	rcpt, addr, err := cl.deploy(alice, code, nil, nil, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.GasUsed <= evm.GasTransaction+evm.GasTxCreate {
		t.Fatalf("deploy gas %d too low", rcpt.GasUsed)
	}
	stored, ok := c.ContractCode(addr)
	if !ok || string(stored) != string(code) {
		t.Fatal("code not stored at contract address")
	}

	callRcpt, err := cl.call(alice, addr, nil, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if got := new(big.Int).SetBytes(callRcpt.ReturnValue).Uint64(); got != 42 {
		t.Fatalf("call returned %d", got)
	}

	// Views are free and instantaneous.
	before := c.Now()
	out, err := cl.view(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := new(big.Int).SetBytes(out).Uint64(); got != 42 {
		t.Fatalf("view returned %d", got)
	}
	if c.Now() != before {
		t.Fatal("view advanced the clock")
	}
}

func TestRevertedDeployKeepsNoCode(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	a := evm.NewAssembler()
	a.PushUint(0).PushUint(0).Op(evm.REVERT)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	_, addr, err := cl.deploy(alice, code, nil, nil, 100000)
	if err == nil {
		t.Fatal("reverting deployment succeeded")
	}
	if _, ok := c.ContractCode(addr); ok {
		t.Fatal("reverted deployment left code behind")
	}
}

// TestFailedCallKeepsNoLogs: a call that emits a log and then reverts, or
// halts exceptionally, leaves no log on its receipt; Ethereum drops the
// logs of a failed frame.
func TestFailedCallKeepsNoLogs(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	alice := c.NewAccount(eth(1))
	for _, end := range []evm.Opcode{evm.REVERT, evm.Opcode(0xfe)} {
		// Deployment runs with no calldata and stops; a call with calldata
		// logs, then ends with end.
		a := evm.NewAssembler()
		a.Op(evm.CALLDATASIZE).PushLabel("call").Op(evm.JUMPI, evm.STOP)
		a.Label("call").PushUint(0).PushUint(0).PushUint(0).Op(evm.LOG1)
		a.PushUint(0).PushUint(0).Op(end)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		_, addr, err := cl.deploy(alice, code, nil, nil, 200000)
		if err != nil {
			t.Fatal(err)
		}
		rcpt, err := cl.call(alice, addr, []byte{1}, nil, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if !rcpt.Reverted || len(rcpt.Logs) != 0 {
			t.Fatalf("%s: reverted %v with logs %q, want reverted with none", end, rcpt.Reverted, rcpt.Logs)
		}
	}
}

func TestCongestionDelaysInclusion(t *testing.T) {
	busy := Goerli()
	busy.CongestionMeanGas = 40_000_000
	busy.CongestionElasticity = 0
	busy.CongestionSigma = 0.3
	busy.APIExtraDelayMean = 0
	calm := busy
	calm.CongestionMeanGas = 1_000_000

	latency := func(cfg Config) float64 {
		c := NewChain(cfg, 9)
		cl := NewClient(c)
		alice := c.NewAccount(eth(10))
		sum := 0.0
		for i := 0; i < 10; i++ {
			to := chain.AddressFromBytes([]byte{byte(i)})
			rcpt, err := cl.SubmitAndWait(cl.NewTx(alice, &to, big.NewInt(1), nil, 21000))
			if err != nil {
				t.Fatal(err)
			}
			sum += (rcpt.Included - rcpt.Submitted).Seconds()
		}
		return sum / 10
	}
	if lb, lc := latency(busy), latency(calm); lb <= lc {
		t.Fatalf("busy network latency %.1fs not above calm %.1fs", lb, lc)
	}
}

func TestPackSplitDeployData(t *testing.T) {
	err := quick.Check(func(code, ctor []byte) bool {
		gotCode, gotCtor := splitDeployData(PackDeployData(code, ctor))
		return string(gotCode) == string(code) && string(gotCtor) == string(ctor)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	runOnce := func() []float64 {
		c := NewChain(Goerli(), 42)
		cl := NewClient(c)
		alice := c.NewAccount(eth(10))
		var out []float64
		for i := 0; i < 5; i++ {
			to := chain.AddressFromBytes([]byte{byte(i)})
			rcpt, err := cl.SubmitAndWait(cl.NewTx(alice, &to, big.NewInt(1), nil, 21000))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, (rcpt.Included - rcpt.Submitted).Seconds())
		}
		return out
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at tx %d: %v vs %v", i, a[i], b[i])
		}
	}
}
