package algorand

import (
	"errors"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/mstate"
)

func fundedAccount(c *Chain, rng *chain.Rand, micro uint64) *Account {
	acct := chain.NewAccount(rng)
	c.Fund(acct.Address, micro)
	return acct
}

func signedPay(from *Account, to chain.Address, amount uint64) *Tx {
	tx := &Tx{Type: TxPay, Sender: from.Address, Fee: MinFee, Receiver: to, Amount: amount}
	tx.Sign(from)
	return tx
}

// TestOpenRejectsCorruptState: app and asset metadata leaves come out of an
// external node store; one that is too short for its layout must surface
// as ErrCorruptState from Open, not as an index-out-of-range panic while
// the app table is rebuilt, and so must an app leaf not led by 0 (it used
// to hide the app) and app leaves that do not run from 1 to the
// checkpoint's AppSeq (an AppSeq of 0 used to let the next creation take
// app 1's id and globals).
func TestOpenRejectsCorruptState(t *testing.T) {
	goodApp := encodeAppMeta(chain.Address{}, 0, approveAll)
	deletedApp := append([]byte{1}, goodApp[1:]...)
	goodAsset := encodeAssetMeta(&Asset{ID: 1, Name: "GREEN", UnitName: "GRN"})
	for _, tc := range []struct {
		name       string
		app, asset []byte
		appSeq     uint64 // the checkpoint's
	}{
		{"empty app leaf", []byte{}, goodAsset, 1},
		{"truncated app leaf", goodApp[:20], goodAsset, 1},
		{"app leaf leading with 1", deletedApp, goodAsset, 1},
		{"truncated asset leaf", goodApp, goodAsset[:30], 1},
		{"asset name length past the leaf", goodApp, goodAsset[:45], 1},
		{"app leaf past AppSeq", goodApp, goodAsset, 0},
		{"AppSeq past the app leaves", goodApp, goodAsset, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trie := mstate.New()
			trie.Put(appMetaKey(1), tc.app)
			trie.Put(assetMetaKey(1), tc.asset)
			store := mstate.NewMemStore()
			root, err := trie.Commit(store)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Open(Options{
				Config: Testnet(), Seed: 1, Store: store, Root: root,
				Checkpoint: &Checkpoint{
					Position: chain.Position{Name: Testnet().Name, StateRoot: chain.Hash32(root)},
					AppSeq:   tc.appSeq, AssetSeq: 1,
				},
			})
			if !errors.Is(err, ErrCorruptState) {
				t.Fatalf("Open returned %v, want ErrCorruptState", err)
			}
		})
	}
}
