package eth

import (
	"encoding/json"
	"math/big"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/faults"
	"agnopol/internal/mstate"
	"agnopol/internal/mstate/diskstore"
)

// fundedAccount derives an account from a soak-style key stream and
// funds it via Fund, never touching the chain rng.
func fundedAccount(c *Chain, rng *chain.Rand, eth int64) *Account {
	acct := chain.NewAccount(rng)
	c.Fund(acct.Address, new(big.Int).Mul(big.NewInt(eth), big.NewInt(1e18)))
	return acct
}

func transfer(t *testing.T, c *Chain, from, to *Account, nonce uint64) {
	t.Helper()
	tx := &Tx{
		From:     from.Address,
		Nonce:    nonce,
		To:       &to.Address,
		Value:    big.NewInt(1_000),
		GasLimit: 50_000,
		MaxFee:   new(big.Int).Mul(c.BaseFee(), big.NewInt(3)),
		MaxTip:   big.NewInt(2_000_000_000),
	}
	tx.Sign(from)
	if _, err := c.Submit(tx); err != nil {
		t.Fatalf("submit nonce %d: %v", nonce, err)
	}
}

// The core restart property: run → checkpoint (with the mempool
// non-empty) → commit state → reopen from the root → continue, and the
// resumed chain's digest and state root stay bit-identical to the chain
// that never stopped. The checkpoint crosses a JSON round-trip, exactly
// as it does inside a diskstore manifest.
func TestOpenContinuesBitIdentically(t *testing.T) {
	for _, backend := range []string{"memstore", "diskstore"} {
		t.Run(backend, func(t *testing.T) {
			var store mstate.NodeStore
			var disk *diskstore.Store
			if backend == "memstore" {
				store = mstate.NewMemStore()
			} else {
				d, err := diskstore.Open(t.TempDir(), diskstore.Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				disk = d
				store = d
				defer d.Close()
			}

			cfg := Goerli()
			const seed = 77
			ref := NewChain(cfg, seed)
			keyRng := chain.NewRand(seed).Fork("test:keys")
			alice := fundedAccount(ref, keyRng, 1000)
			bob := fundedAccount(ref, keyRng, 1000)

			nonce := uint64(0)
			for i := 0; i < 5; i++ {
				transfer(t, ref, alice, bob, nonce)
				nonce++
				ref.Step()
			}
			// Leave a transaction in flight so the checkpoint carries a
			// non-empty mempool.
			transfer(t, ref, alice, bob, nonce)
			nonce++

			ck, err := ref.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if len(ck.Mempool) == 0 {
				t.Fatal("checkpoint should carry the in-flight transaction")
			}
			root, err := ref.CommitState(store)
			if err != nil {
				t.Fatal(err)
			}
			if chain.Hash32(root) != ck.StateRoot {
				t.Fatalf("committed root %x != checkpoint state root %x", root[:8], ck.StateRoot[:8])
			}
			blob, err := json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
			if disk != nil {
				if err := disk.Commit(root, blob); err != nil {
					t.Fatal(err)
				}
			}
			var ck2 Checkpoint
			if err := json.Unmarshal(blob, &ck2); err != nil {
				t.Fatal(err)
			}

			resumed, err := Open(Options{Config: cfg, Seed: seed, Store: store, Root: root, Checkpoint: &ck2})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Digest() != ref.Digest() {
				t.Fatal("digest diverges immediately after restore")
			}
			for i, p := range resumed.pool.Entries() {
				if p.Hash != p.Item.Hash() || p.Hash != ref.pool.Entries()[i].Hash {
					t.Fatalf("restored mempool entry %d carries hash %x", i, p.Hash[:8])
				}
			}

			// Identical continuation on both chains.
			for i := 0; i < 5; i++ {
				ref.Step()
				resumed.Step()
				transfer(t, ref, alice, bob, nonce)
				transfer(t, resumed, alice, bob, nonce)
				nonce++
			}
			for i := 0; i < 3; i++ {
				ref.Step()
				resumed.Step()
			}

			if ref.Digest() != resumed.Digest() {
				t.Fatalf("digest diverged: ref %x, resumed %x", ref.Digest(), resumed.Digest())
			}
			if ref.StateRoot() != resumed.StateRoot() {
				t.Fatal("state root diverged")
			}
			if ref.Head().Hash != resumed.Head().Hash {
				t.Fatal("head hash diverged")
			}
			if ref.Balance(bob.Address).Base.Cmp(resumed.Balance(bob.Address).Base) != 0 {
				t.Fatal("balances diverged")
			}
		})
	}
}

func TestOpenInMemoryMatchesNewChain(t *testing.T) {
	cfg := Goerli()
	a := NewChain(cfg, 5)
	b, err := Open(Options{Config: cfg, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a.Step()
		b.Step()
	}
	if a.Digest() != b.Digest() {
		t.Fatal("Open without a store must behave exactly like NewChain")
	}
}

func TestOpenRejectsMisuse(t *testing.T) {
	cfg := Goerli()
	if _, err := Open(Options{Config: cfg, Seed: 1, Root: mstate.Hash{9}}); err == nil {
		t.Fatal("root without store must be rejected")
	}
	store := mstate.NewMemStore()
	c := NewChain(cfg, 1)
	c.Step()
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	root, err := c.CommitState(store)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint for a different chain name.
	bad := *ck
	bad.Name = "not-this-chain"
	if _, err := Open(Options{Config: cfg, Seed: 1, Store: store, Root: root, Checkpoint: &bad}); err == nil {
		t.Fatal("mismatched chain name must be rejected")
	}
	// Checkpoint whose state root does not match the loaded trie.
	bad = *ck
	bad.StateRoot = chain.Hash32{1, 2, 3}
	if _, err := Open(Options{Config: cfg, Seed: 1, Store: store, Root: root, Checkpoint: &bad}); err == nil {
		t.Fatal("state-root mismatch must be rejected")
	}
}

func TestCheckpointRefusesFaultInjection(t *testing.T) {
	c := NewChain(Goerli(), 3)
	c.SetFaults(faults.NewInjector(&faults.Plan{}, 3, nil))
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("checkpoint with fault injection must be refused")
	}
}
