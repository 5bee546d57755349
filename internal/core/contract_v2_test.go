package core

import (
	"testing"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
)

func TestPoLV2CompilesAndVerifies(t *testing.T) {
	c, err := CompilePoLV2()
	if err != nil {
		t.Fatal(err)
	}
	if c.Report.Failures != 0 {
		t.Fatalf("v2 verification failures:\n%s", c.Report)
	}
	v1, err := CompilePoL()
	if err != nil {
		t.Fatal(err)
	}
	if c.Report.Checked <= v1.Report.Checked {
		t.Fatalf("v2 should check more theorems than v1 (got %d, v1 %d)", c.Report.Checked, v1.Report.Checked)
	}
}

// advance pushes a family's simulated clock past until by producing
// blocks.
func advance(f Family, until time.Duration) {
	for f.Now() < until {
		f.Seal()
	}
}

func TestPoLV2LifecycleBothChains(t *testing.T) {
	compiled, err := CompilePoLV2()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Family{
		eth.NewClient(eth.NewChain(eth.Goerli(), 31)),
		algorand.NewClient(algorand.NewChain(algorand.Testnet(), 31)),
	} {
		conn := NewConnector(f)
		t.Run(conn.Name(), func(t *testing.T) {
			creator, err := conn.NewAccount(10)
			if err != nil {
				t.Fatal(err)
			}
			witness, err := conn.NewAccount(10)
			if err != nil {
				t.Fatal(err)
			}
			verifier, err := conn.NewAccount(10)
			if err != nil {
				t.Fatal(err)
			}
			stranger, err := conn.NewAccount(10)
			if err != nil {
				t.Fatal(err)
			}

			const (
				proverReward  = 1000
				witnessReward = 250
			)
			deadline := uint64((conn.Now() + 30*time.Minute) / time.Second)
			h, _, err := conn.Deploy(creator, compiled, []lang.Value{
				lang.BytesValue([]byte("8FPHF8VV+X2")),
				lang.Uint64Value(111),
				lang.Uint64Value(proverReward),
				lang.Uint64Value(witnessReward),
				lang.Uint64Value(deadline),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := conn.Invoke(creator, h, "insert_data", CallOpts{EscrowFund: true},
				lang.BytesValue([]byte("proof-data")), lang.Uint64Value(111)); err != nil {
				t.Fatalf("insert: %v", err)
			}

			// Funding then verify_with_witness: both parties get paid.
			if _, _, err := conn.Invoke(verifier, h, "insert_money",
				CallOpts{Pay: 2 * (proverReward + witnessReward)}, lang.Uint64Value(2*(proverReward+witnessReward))); err != nil {
				t.Fatal(err)
			}
			creatorBefore := conn.Balance(creator).Base.Uint64()
			witnessBefore := conn.Balance(witness).Base.Uint64()
			v, _, err := conn.Invoke(verifier, h, "verify_with_witness", CallOpts{},
				lang.Uint64Value(111),
				lang.AddressValue(creator.Address()),
				lang.AddressValue(witness.Address()))
			if err != nil {
				t.Fatalf("verify_with_witness: %v", err)
			}
			if v.Uint != 1 {
				t.Fatalf("verification returned %d, want 1", v.Uint)
			}
			if got := conn.Balance(creator).Base.Uint64() - creatorBefore; got != proverReward {
				t.Fatalf("prover reward %d, want %d", got, proverReward)
			}
			if got := conn.Balance(witness).Base.Uint64() - witnessBefore; got != witnessReward {
				t.Fatalf("witness reward %d, want %d", got, witnessReward)
			}

			// Premature timeout close is rejected.
			if _, _, err := conn.Invoke(stranger, h, "close_timeout", CallOpts{}); err == nil {
				t.Fatal("close_timeout before deadline accepted")
			}

			// After the deadline: inserts rejected, anyone can close.
			advance(f, time.Duration(deadline)*time.Second+time.Minute)
			if _, _, err := conn.Invoke(stranger, h, "insert_data", CallOpts{},
				lang.BytesValue([]byte("late")), lang.Uint64Value(999)); err == nil {
				t.Fatal("insert after deadline accepted")
			}
			creatorBefore = conn.Balance(creator).Base.Uint64()
			remaining := conn.ContractBalance(h)
			if remaining == 0 {
				t.Fatal("expected leftover funds before timeout close")
			}
			if _, _, err := conn.Invoke(stranger, h, "close_timeout", CallOpts{}); err != nil {
				t.Fatalf("close_timeout after deadline: %v", err)
			}
			if got := conn.Balance(creator).Base.Uint64() - creatorBefore; got != remaining {
				t.Fatalf("creator swept %d, want %d", got, remaining)
			}
			if conn.ContractBalance(h) != 0 {
				t.Fatal("balance not emptied by timeout close")
			}
		})
	}
}

func TestPoLV2UnfundedWitnessVerify(t *testing.T) {
	compiled, err := CompilePoLV2()
	if err != nil {
		t.Fatal(err)
	}
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 32))
	creator, err := conn.NewAccount(10)
	if err != nil {
		t.Fatal(err)
	}
	deadline := uint64((conn.Now() + time.Hour) / time.Second)
	h, _, err := conn.Deploy(creator, compiled, []lang.Value{
		lang.BytesValue([]byte("8FPHF8VV+X2")),
		lang.Uint64Value(1), lang.Uint64Value(1000), lang.Uint64Value(250),
		lang.Uint64Value(deadline),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Invoke(creator, h, "insert_data", CallOpts{EscrowFund: true},
		lang.BytesValue([]byte("d")), lang.Uint64Value(1)); err != nil {
		t.Fatal(err)
	}
	// Fund only the prover's share: the pool does not cover both rewards,
	// so the call takes the issue branch and pays nobody.
	if _, _, err := conn.Invoke(creator, h, "insert_money", CallOpts{Pay: 1000}, lang.Uint64Value(1000)); err != nil {
		t.Fatal(err)
	}
	v, _, err := conn.Invoke(creator, h, "verify_with_witness", CallOpts{},
		lang.Uint64Value(1), lang.AddressValue(creator.Address()), lang.AddressValue(creator.Address()))
	if err != nil {
		t.Fatal(err)
	}
	if v.Uint != 0 {
		t.Fatalf("underfunded verification returned %d, want 0", v.Uint)
	}
	// The map entry survives so a later, funded verification can succeed.
	if _, ok, err := conn.ReadMap(h, EasyMapName, 1); err != nil || !ok {
		t.Fatal("map entry lost by underfunded verification")
	}
}
