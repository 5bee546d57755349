package eth

import (
	"errors"
	"math/big"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
)

// Bits of FuzzTxAmounts' shape byte: which amounts are nil, which negative.
const (
	nilValue = 1 << iota
	nilMaxFee
	nilMaxTip
	negValue
	negMaxFee
	negMaxTip
)

// fuzzAmount is one fuzzed amount: b as a big-endian magnitude of at most
// 300 bits, negated or replaced by nil as the shape bits say.
func fuzzAmount(b []byte, isNil, negative bool) *big.Int {
	if isNil {
		return nil
	}
	v := new(big.Int).SetBytes(b)
	if n := v.BitLen(); n > 300 {
		v.Rsh(v, uint(n-300))
	}
	if negative {
		v.Neg(v)
	}
	return v
}

// payoutCode pays half of the contract's balance to its caller: a value
// transfer out of a contract, the debit the EVM checks itself.
func payoutCode(tb testing.TB) []byte {
	tb.Helper()
	a := evm.NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0) // out/in
	a.PushUint(2).Op(evm.SELFBALANCE).Op(evm.DIV)     // value
	a.Op(evm.CALLER)                                  // to
	a.PushUint(0).Op(evm.CALL).Op(evm.STOP)           // gas
	code, err := a.Assemble()
	if err != nil {
		tb.Fatal(err)
	}
	return code
}

// FuzzTxAmounts sends fuzzer-chosen Value, MaxFee and MaxTip through Sign,
// SubmitBatch and Step on a chain of fan-out width two: a call of a
// contract that pays out, and a transfer between two funded accounts, both
// carrying the fuzzed amounts. Nothing may panic, every refusal must be one of eth's
// typed errors, and after every block the wei Fund minted must all be
// somewhere — in a funded account, the contract or a validator, or burned.
// The sum is the test's own: the chain keeps no supply figure.
func FuzzTxAmounts(f *testing.F) {
	gwei := func(n int64) []byte { return big.NewInt(n * 1_000_000_000).Bytes() }
	pow2 := func(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }
	two256 := pow2(256)
	ok, tip := gwei(100), gwei(2)
	const gas = 100_000
	// MaxFee × gas at 2^256-1 and one gas price past it.
	fitting := new(big.Int).Div(new(big.Int).Sub(two256, big.NewInt(1)), big.NewInt(gas))
	past := new(big.Int).Add(fitting, big.NewInt(1))
	for _, seed := range []struct {
		value, maxFee, maxTip []byte
		shape                 uint8
		gas                   uint32
	}{
		{big.NewInt(1_000).Bytes(), ok, tip, 0, gas},
		{nil, ok, tip, 0, gas}, // zero value
		{nil, ok, tip, nilValue, gas},
		{nil, ok, tip, nilMaxFee, gas},
		{nil, ok, tip, nilMaxTip, gas},
		{[]byte{5}, ok, tip, negValue, gas},
		{nil, ok, tip, negMaxFee, gas},
		{nil, ok, tip, negMaxTip, gas},
		{pow2(249).Bytes(), ok, tip, 0, gas}, // affordable: a quarter of a funded balance
		{new(big.Int).Sub(two256, big.NewInt(1)).Bytes(), ok, tip, 0, gas},
		{two256.Bytes(), ok, tip, 0, gas},
		{pow2(300).Bytes(), ok, tip, 0, gas},
		{nil, two256.Bytes(), tip, 0, gas},
		{nil, ok, two256.Bytes(), 0, gas},
		{nil, fitting.Bytes(), tip, 0, gas},
		{nil, past.Bytes(), tip, 0, gas},
		{nil, past.Bytes(), past.Bytes(), 0, gas},
		{nil, []byte{1}, nil, 0, gas},                          // below the base fee floor
		{nil, ok, ok, 0, 20_000},                               // below intrinsic gas
		{nil, ok, tip, 0, 1 << 31},                             // above the block gas limit
		{nil, pow2(200).Bytes(), tip, 0, 21_000},               // a huge fee cap the balance still covers
		{nil, pow2(200).Bytes(), pow2(199).Bytes(), 0, 21_000}, // and a tip past 64 bits
	} {
		f.Add(seed.value, seed.maxFee, seed.maxTip, seed.shape, seed.gas)
	}
	code := payoutCode(f)
	typed := []error{
		ErrUnderpriced, ErrInsufficientEth, ErrNonceTooLow, ErrGasLimitTooLow, ErrGasAboveBlockCap,
		ErrNegativeAmount, ErrMissingAmount, ErrAmountTooLarge,
	}
	f.Fuzz(func(t *testing.T, value, maxFee, maxTip []byte, shape uint8, gas uint32) {
		cfg := Goerli()
		cfg.CongestionMeanGas = 1_000_000
		cfg.SpikeProb = 0
		cfg.ValidatorCount = 4
		c := NewChain(cfg, 3)
		c.SetShards(2)

		minted := new(big.Int)
		fund := func(addr chain.Address, amount *big.Int) {
			c.Fund(addr, amount)
			minted.Add(minted, amount)
		}
		// Three balances of 2^250 wei and the contract's 2^200: the supply
		// stays below 2^256, so no credit can pass a word.
		rng := chain.NewRand(3).Fork("fuzz:keys")
		var accts []*Account
		for i := 0; i < 3; i++ {
			accts = append(accts, chain.NewAccount(rng))
			fund(accts[i].Address, new(big.Int).Lsh(big.NewInt(1), 250))
		}
		contract := chain.AddressFromBytes([]byte("payout"))
		c.st.SetCode(contract, code)
		fund(contract, new(big.Int).Lsh(big.NewInt(1), 200))

		holders := []chain.Address{contract}
		for _, a := range accts {
			holders = append(holders, a.Address)
		}
		holders = append(holders, c.proposers...)
		conserved := func(when string) {
			sum := c.burned.ToBig()
			for _, h := range holders {
				sum.Add(sum, c.Balance(h).Base)
			}
			if sum.Cmp(minted) != 0 {
				t.Fatalf("%s: balances and burned sum to %s, Fund minted %s", when, sum, minted)
			}
		}

		txs := make([]*Tx, 2)
		for i, to := range []chain.Address{contract, accts[2].Address} {
			txs[i] = &Tx{
				From: accts[i].Address, To: &to, GasLimit: uint64(gas),
				Value:  fuzzAmount(value, shape&nilValue != 0, shape&negValue != 0),
				MaxFee: fuzzAmount(maxFee, shape&nilMaxFee != 0, shape&negMaxFee != 0),
				MaxTip: fuzzAmount(maxTip, shape&nilMaxTip != 0, shape&negMaxTip != 0),
			}
			txs[i].Sign(accts[i])
		}
		_, errs := c.SubmitBatch(txs)
		for i, err := range errs {
			if err == nil {
				continue
			}
			found := false
			for _, want := range typed {
				found = found || errors.Is(err, want)
			}
			if !found {
				t.Fatalf("transaction %d refused with an untyped error: %v", i, err)
			}
		}
		conserved("after admission")
		for i := 0; i < 3; i++ {
			c.Step()
			conserved("after a block")
		}
	})
}
