package core

import (
	"errors"
	"testing"

	"agnopol/internal/eth"
	"agnopol/internal/hypercube"
	"agnopol/internal/lang"
)

// Permissioned verification (§2: "the verifiers are well known and not
// everyone can become one of them"): only CA-designated verifiers may fund
// or validate.
func TestUndesignatedVerifierRejected(t *testing.T) {
	sys := newTestSystem(t)
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 61))
	w, err := NewWitness(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := p.EnsureAccount(conn, 10)
	if err != nil {
		t.Fatal(err)
	}
	cid, err := p.UploadReport(Report{Title: "x", Category: "env"})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := p.RequestProof(w, cid, acct.Address())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := p.SubmitProof(conn, proof, rewardFor(conn))
	if err != nil {
		t.Fatal(err)
	}

	// Hand-build a verifier the CA never designated.
	rogueKey := p.Key // reuse any key; designation is what matters
	rogue := &Verifier{sys: sys, Key: rogueKey, DID: p.DID, accounts: map[string]*Account{}}
	if _, err := rogue.EnsureAccount(conn, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := rogue.FundContract(conn, sub.Handle, 100); !errors.Is(err, ErrNotVerifier) {
		t.Fatalf("FundContract err = %v, want ErrNotVerifier", err)
	}
	if _, err := rogue.VerifyProver(conn, sub.Handle, p.DID); !errors.Is(err, ErrNotVerifier) {
		t.Fatalf("VerifyProver err = %v, want ErrNotVerifier", err)
	}
}

func TestProverNeedsAccountOnConnector(t *testing.T) {
	sys := newTestSystem(t)
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 62))
	w, err := NewWitness(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	cid, err := p.UploadReport(Report{Title: "x", Category: "env"})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := p.RequestProof(w, cid, [20]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SubmitProof(conn, proof, 100); err == nil {
		t.Error("submission without a wallet accepted")
	}
}

func TestEnsureAccountIsIdempotent(t *testing.T) {
	sys := newTestSystem(t)
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 63))
	p, err := NewProver(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.EnsureAccount(conn, 10)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.EnsureAccount(conn, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("EnsureAccount created a second wallet")
	}
}

func TestLookupUnknownContractIDInCube(t *testing.T) {
	sys := newTestSystem(t)
	// A hypercube entry referencing a contract nobody registered must
	// surface an error, not a nil handle.
	code := "8FPHF8VV+X2"
	target, err := sys.NodeIDForOLC(code)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Cube.Put(0, target, code, &hypercube.Entry{ContractID: "ghost/0xdead", OLC: code}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sys.LookupContract(0, code); err == nil {
		t.Fatal("dangling contract reference resolved")
	}
}

func TestConnectorViewsMatchReads(t *testing.T) {
	// Views and raw state reads must agree on the same quantity.
	sys := newTestSystem(t)
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 64))
	acct, err := conn.NewAccount(10)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := conn.Deploy(acct, sys.Compiled, []lang.Value{
		lang.BytesValue([]byte("8FPHF8VV+X2")), lang.Uint64Value(1), lang.Uint64Value(777),
	})
	if err != nil {
		t.Fatal(err)
	}
	viewV, err := conn.View(h, "getReward")
	if err != nil {
		t.Fatal(err)
	}
	readV, err := conn.ReadGlobal(h, RewardGlobal)
	if err != nil {
		t.Fatal(err)
	}
	if viewV.Uint != 777 || readV.Uint != 777 {
		t.Fatalf("view=%d read=%d, want 777", viewV.Uint, readV.Uint)
	}
}
