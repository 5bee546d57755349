package core

import (
	"errors"
	"math"
	"math/big"
	"testing"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
)

// TestConnectorEquivalence drives the SAME compiled contract through the
// same sequence of calls on both connector families and checks that every
// observable — return values, view results, map/global state reads,
// contract balances, acceptance/rejection of each call — agrees. This is
// the "blockchain agnostic" property the paper's single-source contract
// rests on.
func TestConnectorEquivalence(t *testing.T) {
	compiled, err := CompilePoL()
	if err != nil {
		t.Fatal(err)
	}

	type obs struct {
		kind  string
		value string
		fail  bool
	}

	drive := func(conn Connector) []obs {
		var out []obs
		record := func(kind string, v lang.Value, err error) {
			out = append(out, obs{kind: kind, value: v.String(), fail: err != nil})
		}
		alice, err := conn.NewAccount(10)
		if err != nil {
			t.Fatal(err)
		}
		bob, err := conn.NewAccount(10)
		if err != nil {
			t.Fatal(err)
		}
		verifier, err := conn.NewAccount(10)
		if err != nil {
			t.Fatal(err)
		}

		const reward = 1000
		h, _, err := conn.Deploy(alice, compiled, []lang.Value{
			lang.BytesValue([]byte("8FPHF8VV+X2")),
			lang.Uint64Value(111),
			lang.Uint64Value(reward),
		})
		if err != nil {
			t.Fatalf("%s deploy: %v", conn.Name(), err)
		}

		// Creator inserts (with escrow funding where the chain needs it).
		v, _, err := conn.Invoke(alice, h, "insert_data", CallOpts{EscrowFund: true},
			lang.BytesValue([]byte("data-alice")), lang.Uint64Value(111))
		record("creator insert", v, err)

		// Attacher inserts.
		v, _, err = conn.Invoke(bob, h, "insert_data", CallOpts{},
			lang.BytesValue([]byte("data-bob")), lang.Uint64Value(222))
		record("attach", v, err)

		// Duplicate DID rejected.
		v, _, err = conn.Invoke(bob, h, "insert_data", CallOpts{},
			lang.BytesValue([]byte("dup")), lang.Uint64Value(222))
		record("duplicate attach", v, err)

		// Views and state reads.
		v, err = conn.View(h, "getAvailableSits")
		record("view sits", v, err)
		v, err = conn.View(h, "getReward")
		record("view reward", v, err)
		v, err = conn.ReadGlobal(h, PositionGlobal)
		record("read position", v, err)
		v, err = conn.ReadGlobal(h, CreatorDidGlobal)
		record("read creatorDid", v, err)
		mv, ok, err := conn.ReadMap(h, EasyMapName, 222)
		record("read map bob", mv, err)
		out = append(out, obs{kind: "map bob present", value: boolStr(ok)})
		_, ok, err = conn.ReadMap(h, EasyMapName, 999)
		if err != nil {
			t.Fatalf("%s read missing map key: %v", conn.Name(), err)
		}
		out = append(out, obs{kind: "map missing", value: boolStr(ok)})

		// Verify without funds: accepted on-chain but no reward branch.
		// The API returns the wallet address — account keys differ per
		// chain, so record whether it equals bob's address instead.
		v, _, err = conn.Invoke(verifier, h, "verify", CallOpts{},
			lang.Uint64Value(222), lang.AddressValue(bob.Address()))
		out = append(out, obs{kind: "verify unfunded returns wallet",
			value: boolStr(err == nil && v.Addr == bob.Address()), fail: err != nil})
		mv, ok, err = conn.ReadMap(h, EasyMapName, 222)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, obs{kind: "map bob after unfunded verify", value: boolStr(ok)})

		// Fund, then verify for real.
		v, _, err = conn.Invoke(verifier, h, "insert_money", CallOpts{Pay: 2 * reward}, lang.Uint64Value(2*reward))
		record("fund", v, err)
		out = append(out, obs{kind: "contract balance", value: uintStr(conn.ContractBalance(h))})

		bobBefore := conn.Balance(bob).Base.Uint64()
		v, _, err = conn.Invoke(verifier, h, "verify", CallOpts{},
			lang.Uint64Value(222), lang.AddressValue(bob.Address()))
		out = append(out, obs{kind: "verify funded returns wallet",
			value: boolStr(err == nil && v.Addr == bob.Address()), fail: err != nil})
		bobAfter := conn.Balance(bob).Base.Uint64()
		out = append(out, obs{kind: "bob reward delta", value: uintStr(bobAfter - bobBefore)})
		_, ok, err = conn.ReadMap(h, EasyMapName, 222)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, obs{kind: "map bob after funded verify", value: boolStr(ok)})

		// Non-creator cannot close; creator can, sweeping the rest.
		_, _, err = conn.Invoke(bob, h, "close", CallOpts{})
		out = append(out, obs{kind: "close by stranger", fail: err != nil})
		v, _, err = conn.Invoke(alice, h, "close", CallOpts{})
		record("close by creator", v, err)
		out = append(out, obs{kind: "final balance", value: uintStr(conn.ContractBalance(h))})
		return out
	}

	evmObs := drive(NewEVMConnector(eth.NewChain(eth.Goerli(), 21)))
	algoObs := drive(NewAlgorandConnector(algorand.NewChain(algorand.Testnet(), 21)))

	if len(evmObs) != len(algoObs) {
		t.Fatalf("observation counts differ: %d vs %d", len(evmObs), len(algoObs))
	}
	for i := range evmObs {
		e, a := evmObs[i], algoObs[i]
		if e.kind != a.kind {
			t.Fatalf("observation %d kinds diverged: %q vs %q", i, e.kind, a.kind)
		}
		if e.fail != a.fail {
			t.Errorf("%q: EVM fail=%v, Algorand fail=%v", e.kind, e.fail, a.fail)
			continue
		}
		if !e.fail && e.value != a.value {
			t.Errorf("%q: EVM %q, Algorand %q", e.kind, e.value, a.value)
		}
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func uintStr(v uint64) string {
	return lang.Uint64Value(v).String()
}

func TestConnectorRejectsUnknownAPIAndView(t *testing.T) {
	compiled, err := CompilePoL()
	if err != nil {
		t.Fatal(err)
	}
	for _, conn := range connectors(t) {
		acct, err := conn.NewAccount(10)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := conn.Deploy(acct, compiled, []lang.Value{
			lang.BytesValue([]byte("8FPHF8VV+X2")), lang.Uint64Value(1), lang.Uint64Value(10),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := conn.Invoke(acct, h, "nonexistent", CallOpts{}); err == nil {
			t.Errorf("%s: unknown API accepted", conn.Name())
		}
		if _, err := conn.View(h, "nonexistent"); err == nil {
			t.Errorf("%s: unknown view accepted", conn.Name())
		}
	}
}

func TestAPIRejectionIsTyped(t *testing.T) {
	compiled, err := CompilePoL()
	if err != nil {
		t.Fatal(err)
	}
	for _, conn := range connectors(t) {
		acct, err := conn.NewAccount(10)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := conn.Deploy(acct, compiled, []lang.Value{
			lang.BytesValue([]byte("8FPHF8VV+X2")), lang.Uint64Value(1), lang.Uint64Value(10),
		})
		if err != nil {
			t.Fatal(err)
		}
		// insert_money with zero amount violates the API's assume.
		_, _, err = conn.Invoke(acct, h, "insert_money", CallOpts{}, lang.Uint64Value(0))
		if !errors.Is(err, ErrAPIRejected) {
			t.Errorf("%s: err = %v, want ErrAPIRejected", conn.Name(), err)
		}
	}
}

func TestHandleID(t *testing.T) {
	h := &Handle{Connector: "goerli", EVMAddr: [20]byte{0xab}}
	if h.ID() != "goerli/0xab00000000000000000000000000000000000000" {
		t.Fatalf("EVM handle ID %q", h.ID())
	}
	h2 := &Handle{Connector: "algorand-testnet", AppID: 7}
	if h2.ID() != "algorand-testnet/app/7" {
		t.Fatalf("Algorand handle ID %q", h2.ID())
	}
}

// TestNewAccountRejectsBadAmounts pins what NewAccount credits, on both
// families: a negative, non-finite or unrepresentable amount is an
// ErrBadAmount and creates nothing, and every other amount is credited as
// exactly chain.AmountFromTokens's base units. Before the one connector,
// Algorand converted with uint64(tokens * 1e6) — NewAccount(-1) credited
// 2^64 - 10^6 µAlgo, and NaN, ±Inf and 9.2e12 tokens or more credited 2^63
// on amd64 — and EVM turned -1 into a zero balance without an error.
func TestNewAccountRejectsBadAmounts(t *testing.T) {
	for _, tc := range []struct {
		name          string
		tokens        float64
		evmOK, algoOK bool
	}{
		{"negative", -1, false, false},
		{"NaN", math.NaN(), false, false},
		{"+Inf", math.Inf(1), false, false},
		{"-Inf", math.Inf(-1), false, false},
		{"past 2^64 µAlgo", 2e13, true, false},
		{"past 2^256 wei", 1e60, false, false},
		{"zero", 0, true, true},
		{"fraction", 0.5, true, true},
		{"whole tokens", 1000, true, true},
	} {
		for _, conn := range connectors(t) {
			t.Run(conn.Name()+"/"+tc.name, func(t *testing.T) {
				want := tc.evmOK
				if conn.Unit().Name == "ALGO" {
					want = tc.algoOK
				}
				acct, err := conn.NewAccount(tc.tokens)
				if !want {
					if !errors.Is(err, ErrBadAmount) || acct != nil {
						t.Fatalf("NewAccount(%v) = %v, %v; want ErrBadAmount", tc.tokens, acct, err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if got, want := conn.Balance(acct).Base, chain.AmountFromTokens(tc.tokens, conn.Unit()).Base; got.Cmp(want) != 0 {
					t.Fatalf("NewAccount(%v) credited %v base units, want %v", tc.tokens, got, want)
				}
			})
		}
	}
}

// TestFundCreditsOnlyHoldableAmounts pins Family.Fund's amount rule on
// both families: an amount no balance of the family holds — nil,
// negative, or past its balance word — credits nothing, and every other
// amount is credited exactly. Algorand used to credit such an amount
// modulo 2^64 (2^64+5 credited 5, -7 credited 7) and panic on nil.
func TestFundCreditsOnlyHoldableAmounts(t *testing.T) {
	pow2 := func(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }
	plus := func(a *big.Int, d int64) *big.Int { return new(big.Int).Add(a, big.NewInt(d)) }
	for _, f := range []struct {
		fam  Family
		bits uint // a balance is below 2^bits
	}{
		{eth.NewClient(eth.NewChain(eth.Goerli(), 7)), 256},
		{algorand.NewClient(algorand.NewChain(algorand.Testnet(), 7)), 64},
	} {
		for i, tc := range []struct {
			name   string
			amount *big.Int
		}{
			{"nil", nil},
			{"negative", big.NewInt(-7)},
			{"zero", new(big.Int)},
			{"1000", big.NewInt(1000)},
			{"2^64-1", plus(pow2(64), -1)},
			{"2^64+5", plus(pow2(64), 5)},
			{"2^256-1", plus(pow2(256), -1)},
			{"2^256", pow2(256)},
		} {
			t.Run(f.fam.Name()+"/"+tc.name, func(t *testing.T) {
				addr := chain.AddressFromBytes([]byte{'f', byte(i)})
				want := new(big.Int)
				if tc.amount != nil && tc.amount.Sign() >= 0 && tc.amount.BitLen() <= int(f.bits) {
					want = tc.amount
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("Fund(%v) panicked: %v", tc.amount, r)
						}
					}()
					f.fam.Fund(addr, tc.amount)
				}()
				if got := f.fam.Balance(addr).Base; got.Cmp(want) != 0 {
					t.Fatalf("Fund(%v) credited %v base units, want %v", tc.amount, got, want)
				}
			})
		}
	}
}
