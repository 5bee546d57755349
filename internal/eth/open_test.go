package eth

import (
	"encoding/json"
	"errors"
	"math/big"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/faults"
	"agnopol/internal/mstate"
	"agnopol/internal/mstate/diskstore"
	"agnopol/internal/polcrypto"
)

// fundedAccount derives an account from a soak-style key stream and
// funds it via Fund, never touching the chain rng.
func fundedAccount(c *Chain, rng *chain.Rand, eth int64) *Account {
	acct := chain.NewAccount(rng)
	c.Fund(acct.Address, new(big.Int).Mul(big.NewInt(eth), big.NewInt(1e18)))
	return acct
}

func transfer(t testing.TB, c *Chain, from, to *Account, nonce uint64) {
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
	if _, err := Open(Options{Config: cfg, Seed: 1, Store: store, Root: root}); err == nil {
		t.Fatal("store without checkpoint must be rejected")
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
	// A Config with no validator has no proposer for the first block.
	for _, n := range []int{0, -1} {
		empty := cfg
		empty.ValidatorCount = n
		if _, err := Open(Options{Config: empty, Seed: 1}); !errors.Is(err, ErrNoValidators) {
			t.Fatalf("ValidatorCount %d: Open returned %v, want ErrNoValidators", n, err)
		}
	}
}

func TestCheckpointRefusesFaultInjection(t *testing.T) {
	c := NewChain(Goerli(), 3)
	c.SetFaults(faults.NewInjector(&faults.Plan{}, 3, nil))
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("checkpoint with fault injection must be refused")
	}
}

// TestOpenRefusesTamperedMempool: a checkpointed mempool entry passes
// admission's stateless half again on the way back in — its signature, its
// amounts, its gas limit and its fee floor — and a tampered one fails Open
// with the entry's typed error. A null Value used to panic in Open, a
// Value rewritten to -5 used to be restored and executed as a successful
// transaction, and a signed gas limit of 100 used to be restored and
// charged 21 000 gas.
func TestOpenRefusesTamperedMempool(t *testing.T) {
	cfg := Goerli()
	c := NewChain(cfg, 9)
	keyRng := chain.NewRand(9).Fork("test:keys")
	alice := fundedAccount(c, keyRng, 10)
	bob := fundedAccount(c, keyRng, 10)
	// Entry i sends value[i]: the zero value signs the bytes a null one
	// does, and 5 those of -5, so neither tamper breaks its signature.
	values := []int64{0, 5, 1_000}
	for nonce, v := range values {
		tx := &Tx{
			From: alice.Address, Nonce: uint64(nonce), To: &bob.Address, Value: big.NewInt(v), GasLimit: 50_000,
			MaxFee: new(big.Int).Mul(c.BaseFee(), big.NewInt(3)), MaxTip: big.NewInt(2_000_000_000),
		}
		tx.Sign(alice)
		if _, err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	// Signed by alice, but with a gas limit Submit refuses.
	lowGas := &Tx{
		From: alice.Address, To: &bob.Address, Value: big.NewInt(0), GasLimit: 100,
		MaxFee: new(big.Int).Mul(c.BaseFee(), big.NewInt(3)), MaxTip: big.NewInt(2_000_000_000),
	}
	lowGas.Sign(alice)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	store := mstate.NewMemStore()
	root, err := c.CommitState(store)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		entry int
		value string // the JSON the entry's Value is rewritten to
		item  *Tx    // else the entry is replaced by item
		want  error
	}{
		{"untampered", 0, "0", nil, nil},
		{"null value", 0, "null", nil, ErrMissingAmount},
		{"5 rewritten to -5", 1, "-5", nil, ErrNegativeAmount},
		{"1000 rewritten to -5", 2, "-5", nil, polcrypto.ErrBadSignature},
		{"signed gas limit of 100", 0, "", lowGas, ErrGasLimitTooLow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ck Checkpoint
			if err := json.Unmarshal(blob, &ck); err != nil {
				t.Fatal(err)
			}
			if tc.item != nil {
				ck.Mempool[tc.entry].Item = tc.item
			} else if err := json.Unmarshal([]byte(tc.value), &ck.Mempool[tc.entry].Item.Value); err != nil {
				t.Fatal(err)
			}
			_, err := Open(Options{Config: cfg, Seed: 9, Store: store, Root: root, Checkpoint: &ck})
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("Open = %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzOpenCheckpoint opens a chain from a committed store with a mutated
// checkpoint: the seed is the valid checkpoint of that store, with a
// transaction in flight. Whatever JSON decodes into a Checkpoint, Open must
// return a chain or a typed error, and two Steps on a chain it returns must
// not panic.
func FuzzOpenCheckpoint(f *testing.F) {
	cfg := Goerli()
	const seed = 77
	ref := NewChain(cfg, seed)
	keyRng := chain.NewRand(seed).Fork("test:keys")
	alice := fundedAccount(ref, keyRng, 1000)
	bob := fundedAccount(ref, keyRng, 1000)
	for nonce := uint64(0); nonce < 3; nonce++ {
		transfer(f, ref, alice, bob, nonce)
		ref.Step()
	}
	transfer(f, ref, alice, bob, 3)
	ck, err := ref.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	store := mstate.NewMemStore()
	root, err := ref.CommitState(store)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(func(t *testing.T, blob []byte) {
		var ck Checkpoint
		if json.Unmarshal(blob, &ck) != nil {
			return
		}
		c, err := Open(Options{Config: cfg, Seed: seed, Store: store, Root: root, Checkpoint: &ck})
		if err != nil {
			if !errors.Is(err, chain.ErrBadCheckpoint) {
				t.Fatalf("Open: untyped error: %v", err)
			}
			return
		}
		c.Step()
		c.Step()
	})
}
