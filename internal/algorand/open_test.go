package algorand

import (
	"encoding/json"
	"errors"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/faults"
	"agnopol/internal/mstate"
	"agnopol/internal/mstate/diskstore"
	"agnopol/internal/polcrypto"
)

func fundedAccount(c *Chain, rng *chain.Rand, micro uint64) *Account {
	acct := chain.NewAccount(rng)
	c.Fund(acct.Address, micro)
	return acct
}

func submitGroup(t testing.TB, c *Chain, g Group) {
	t.Helper()
	if _, err := c.Submit(g); err != nil {
		t.Fatal(err)
	}
}

func signedPay(from *Account, to chain.Address, amount uint64) *Tx {
	tx := &Tx{Type: TxPay, Sender: from.Address, Fee: MinFee, Receiver: to, Amount: amount}
	tx.Sign(from)
	return tx
}

func signedCall(from *Account, appID uint64, arg string) *Tx {
	tx := &Tx{Type: TxAppCall, Sender: from.Address, Fee: MinFee, AppID: appID, Args: [][]byte{[]byte(arg)}}
	tx.Sign(from)
	return tx
}

// The algorand twin of the eth restart test: run (with a deployed app
// so the program-cache warm path is exercised) → checkpoint with a
// pending group in flight → commit → reopen → continue, digests and
// roots bit-identical to the uninterrupted chain.
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

			cfg := Testnet()
			const seed = 99
			ref := NewChain(cfg, seed)
			keyRng := chain.NewRand(seed).Fork("test:keys")
			alice := fundedAccount(ref, keyRng, 50_000_000)
			bob := fundedAccount(ref, keyRng, 50_000_000)

			create := &Tx{Type: TxAppCreate, Sender: alice.Address, Fee: MinFee, Source: counterApp}
			create.Sign(alice)
			submitGroup(t, ref, Group{create})
			ref.Step()
			appID := uint64(1)
			for i := 0; i < 4; i++ {
				submitGroup(t, ref, Group{signedCall(alice, appID, "bump")})
				submitGroup(t, ref, Group{signedPay(bob, alice.Address, 1_000)})
				ref.Step()
			}
			// Leave a group in flight across the checkpoint.
			submitGroup(t, ref, Group{signedCall(bob, appID, "bump")})

			ck, err := ref.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if len(ck.Pending) == 0 {
				t.Fatal("checkpoint should carry the in-flight group")
			}
			root, err := ref.CommitState(store)
			if err != nil {
				t.Fatal(err)
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
					t.Fatalf("restored pending group %d carries hash %x", i, p.Hash[:8])
				}
			}
			// The app table must hold the app's re-parsed program.
			if p, ok := resumed.App(appID); !ok || p == nil {
				t.Fatal("app table not rebuilt on open")
			}

			for i := 0; i < 4; i++ {
				ref.Step()
				resumed.Step()
				submitGroup(t, ref, Group{signedCall(alice, appID, "bump")})
				submitGroup(t, resumed, Group{signedCall(alice, appID, "bump")})
			}
			ref.Step()
			resumed.Step()

			if ref.Digest() != resumed.Digest() {
				t.Fatalf("digest diverged: ref %x, resumed %x", ref.Digest(), resumed.Digest())
			}
			if ref.StateRoot() != resumed.StateRoot() {
				t.Fatal("state root diverged")
			}
			if ref.Head().Hash != resumed.Head().Hash {
				t.Fatal("head hash diverged")
			}
			refCount, _ := ref.led.GlobalGet(appID, "count")
			resCount, _ := resumed.led.GlobalGet(appID, "count")
			if refCount.Uint != resCount.Uint || refCount.Uint == 0 {
				t.Fatalf("counter diverged: ref %d, resumed %d", refCount.Uint, resCount.Uint)
			}
		})
	}
}

func TestOpenInMemoryMatchesNewChain(t *testing.T) {
	cfg := Testnet()
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
	cfg := Testnet()
	if _, err := Open(Options{Config: cfg, Seed: 1, Root: mstate.Hash{9}}); err == nil {
		t.Fatal("root without store must be rejected")
	}
	// A store without its checkpoint: the app table and the sequence
	// counters would start empty, and the next creation would take id 1
	// over app 1's globals.
	c := NewChain(cfg, 4)
	if _, _, err := NewClient(c).createApp(fundedAccount(c, chain.NewRand(4).Fork("test:keys"), 10_000_000), counterApp, nil); err != nil {
		t.Fatal(err)
	}
	store := mstate.NewMemStore()
	root, err := c.CommitState(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Config: cfg, Seed: 4, Store: store, Root: root}); err == nil {
		t.Fatal("store without checkpoint must be rejected")
	}
	for _, n := range []int{0, -1} {
		empty := cfg
		empty.ParticipantCount = n
		if _, err := Open(Options{Config: empty, Seed: 1}); !errors.Is(err, ErrNoParticipants) {
			t.Fatalf("ParticipantCount %d: Open returned %v, want ErrNoParticipants", n, err)
		}
	}
	c.SetFaults(faults.NewInjector(&faults.Plan{}, 4, nil))
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("checkpoint with fault injection must be refused")
	}
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

// TestOpenRefusesTamperedPending: a checkpointed pending group is
// re-verified and re-admitted on the way back in, and a tampered one fails
// Open with the member's typed error instead of being executed on the
// resumed chain. An empty group used to be restored and included as a
// successful zero-fee receipt.
func TestOpenRefusesTamperedPending(t *testing.T) {
	cfg := Testnet()
	c := NewChain(cfg, 5)
	keyRng := chain.NewRand(5).Fork("test:keys")
	alice := fundedAccount(c, keyRng, 50_000_000)
	bob := fundedAccount(c, keyRng, 50_000_000)
	submitGroup(t, c, Group{signedPay(alice, bob.Address, 1_000)})
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
	open := func(tamper func(*Checkpoint)) error {
		var ck Checkpoint
		if err := json.Unmarshal(blob, &ck); err != nil {
			t.Fatal(err)
		}
		tamper(&ck)
		_, err := Open(Options{Config: cfg, Seed: 5, Store: store, Root: root, Checkpoint: &ck})
		return err
	}
	if err := open(func(*Checkpoint) {}); err != nil {
		t.Fatalf("untampered checkpoint: %v", err)
	}
	if err := open(func(ck *Checkpoint) { ck.Pending[0].Item[0].Amount = 50_000_000 }); !errors.Is(err, polcrypto.ErrBadSignature) {
		t.Fatalf("rewritten amount: Open returned %v, want ErrBadSignature", err)
	}
	if err := open(func(ck *Checkpoint) { ck.Pending[0].Item[0] = nil }); err == nil {
		t.Fatal("a null group member was restored")
	}
	if err := open(func(ck *Checkpoint) { ck.Pending[0] = nil }); err == nil {
		t.Fatal("a null pending entry was restored")
	}
	// An empty group has no signature to break, and Submit refuses it.
	if err := open(func(ck *Checkpoint) { ck.Pending[0].Item = Group{} }); err == nil {
		t.Fatal("an empty group was restored")
	}
}

// FuzzOpenCheckpoint opens a chain from a committed store with a mutated
// checkpoint: the seed is the valid checkpoint of that store, with an app
// deployed and a group in flight. Whatever JSON decodes into a Checkpoint,
// Open must return a chain or a typed error, and two Steps on a chain it
// returns must not panic.
func FuzzOpenCheckpoint(f *testing.F) {
	cfg := Testnet()
	const seed = 99
	ref := NewChain(cfg, seed)
	keyRng := chain.NewRand(seed).Fork("test:keys")
	alice := fundedAccount(ref, keyRng, 50_000_000)
	bob := fundedAccount(ref, keyRng, 50_000_000)
	create := &Tx{Type: TxAppCreate, Sender: alice.Address, Fee: MinFee, Source: counterApp}
	create.Sign(alice)
	submitGroup(f, ref, Group{create})
	ref.Step()
	submitGroup(f, ref, Group{signedCall(alice, 1, "bump")})
	ref.Step()
	submitGroup(f, ref, Group{signedPay(bob, alice.Address, 1_000)})
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
			if !errors.Is(err, chain.ErrBadCheckpoint) && !errors.Is(err, ErrCorruptState) {
				t.Fatalf("Open: untyped error: %v", err)
			}
			return
		}
		c.Step()
		c.Step()
	})
}
