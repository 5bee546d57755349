package algorand

import (
	"strings"
	"testing"
)

// Asset returns an asset's configuration, read from the trie.
func (c *Chain) Asset(id uint64) (*Asset, bool) {
	enc, ok := c.led.kv.Get(assetMetaKey(id))
	if !ok {
		return nil, false
	}
	a, err := decodeAssetMeta(id, enc)
	return a, err == nil
}

func TestASACreateOptInTransfer(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	issuer := c.NewAccount(10_000_000)
	prover := c.NewAccount(10_000_000)

	// The §2.8 scenario: the crowdsensing app mints a GREEN reward token.
	_, assetID, err := cl.CreateAsset(issuer, "Green Reward", "GREEN", 1_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := c.Asset(assetID)
	if !ok || a.UnitName != "GREEN" || a.Total != 1_000_000 {
		t.Fatalf("asset = %+v", a)
	}
	if got := c.AssetBalance(issuer.Address, assetID); got != 1_000_000 {
		t.Fatalf("issuer supply %d", got)
	}

	// Transfer before opt-in fails; the whole group is atomic, so nothing
	// moves.
	if _, err := cl.TransferAsset(issuer, assetID, prover.Address, 500); err == nil {
		t.Fatal("transfer to non-opted-in account accepted")
	} else if !strings.Contains(err.Error(), ErrNotOptedIn.Error()) {
		t.Fatalf("err = %v", err)
	}

	if _, err := cl.OptInAsset(prover, assetID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OptInAsset(prover, assetID); err == nil {
		t.Fatal("double opt-in accepted")
	}

	if _, err := cl.TransferAsset(issuer, assetID, prover.Address, 500); err != nil {
		t.Fatal(err)
	}
	if got := c.AssetBalance(prover.Address, assetID); got != 500 {
		t.Fatalf("prover GREEN balance %d", got)
	}
	if got := c.AssetBalance(issuer.Address, assetID); got != 999_500 {
		t.Fatalf("issuer GREEN balance %d", got)
	}

	// Overdraw rejected, state unchanged.
	if _, err := cl.TransferAsset(prover, assetID, issuer.Address, 501); err == nil {
		t.Fatal("overdraw accepted")
	}
	if got := c.AssetBalance(prover.Address, assetID); got != 500 {
		t.Fatalf("prover balance changed by failed transfer: %d", got)
	}
}

func TestASAUnknownAsset(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	acct := c.NewAccount(10_000_000)
	if _, err := cl.OptInAsset(acct, 42); err == nil {
		t.Fatal("opt-in to unknown asset accepted")
	}
	_, err := cl.TransferAsset(acct, 42, acct.Address, 1)
	if err == nil {
		t.Fatal("transfer of unknown asset accepted")
	}
}

func TestASAFeesAreAlgos(t *testing.T) {
	// Asset operations pay the flat µAlgo fee, not asset units.
	c := newTestChain(t)
	cl := NewClient(c)
	issuer := c.NewAccount(10_000_000)
	algoBefore := c.Balance(issuer.Address).Base.Uint64()
	_, assetID, err := cl.CreateAsset(issuer, "T", "T", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := algoBefore - c.Balance(issuer.Address).Base.Uint64(); got != MinFee {
		t.Fatalf("creation charged %d µALGO, want %d", got, MinFee)
	}
	if got := c.AssetBalance(issuer.Address, assetID); got != 100 {
		t.Fatalf("supply %d", got)
	}
}

func TestASARollbackOnGroupFailure(t *testing.T) {
	c := newTestChain(t)
	cl := NewClient(c)
	issuer := c.NewAccount(10_000_000)
	receiver := c.NewAccount(10_000_000)
	_, assetID, err := cl.CreateAsset(issuer, "T", "T", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OptInAsset(receiver, assetID); err != nil {
		t.Fatal(err)
	}
	// Group: valid asset transfer + failing payment. Atomicity must
	// revert the asset movement too.
	xfer := &Tx{Type: TxAssetTransfer, Sender: issuer.Address, Fee: MinFee,
		AssetID: assetID, Receiver: receiver.Address, Amount: 10}
	xfer.Sign(issuer)
	badPay := &Tx{Type: TxPay, Sender: issuer.Address, Fee: MinFee,
		Receiver: receiver.Address, Amount: 1 << 62} // more than the balance
	badPay.Sign(issuer)
	rcpt, err := cl.submitAndWait(Group{xfer, badPay})
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.Reverted {
		t.Fatal("group should fail")
	}
	if got := c.AssetBalance(receiver.Address, assetID); got != 0 {
		t.Fatalf("asset transfer survived group failure: %d", got)
	}
	if !strings.Contains(rcpt.RevertMsg, "balance") {
		t.Fatalf("revert message %q", rcpt.RevertMsg)
	}
}
