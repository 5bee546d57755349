package mstate

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// Regression: MemStore.GetNode used to return its internal slice, so a
// caller mutating the returned encoding corrupted the store (same bug
// class as the PR 7 SetCode aliasing fix).
func TestMemStoreGetNodeDefensiveCopy(t *testing.T) {
	tr := New()
	tr.Put(k("alias"), []byte("payload"))
	store := NewMemStore()
	root, err := tr.Commit(store)
	if err != nil {
		t.Fatal(err)
	}

	enc, err := store.GetNode(root)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), enc...)
	for i := range enc {
		enc[i] = 0xFF
	}
	again, err := store.GetNode(root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("mutating GetNode's result corrupted the store")
	}
	if _, err := Load(store, root); err != nil {
		t.Fatalf("load after caller-side mutation: %v", err)
	}
}

func TestMemStoreMissReturnsTypedError(t *testing.T) {
	store := NewMemStore()
	if _, err := store.GetNode(Hash{1}); !errors.Is(err, ErrNodeMissing) {
		t.Fatalf("got %v, want ErrNodeMissing", err)
	}
	// A miss stays a miss, typed, once the store holds other nodes.
	tr := New()
	tr.Put(k("present"), []byte("v"))
	if _, err := tr.Commit(store); err != nil {
		t.Fatal(err)
	}
	if enc, err := store.GetNode(Hash{1}); enc != nil || !errors.Is(err, ErrNodeMissing) {
		t.Fatalf("GetNode of an absent hash = %x, %v", enc, err)
	}
}

// swapStore answers a request for the hash under with the encoding stored
// at serve: every node it returns is well-formed, one is not the node that
// was asked for.
type swapStore struct {
	NodeStore
	under, serve Hash
}

func (s swapStore) GetNode(h Hash) ([]byte, error) {
	if h == s.under {
		h = s.serve
	}
	return s.NodeStore.GetNode(h)
}

// Regression: Load used to trust the store's bytes, so a node graph that
// parses but does not hash to the requested root loaded without error.
func TestLoadRejectsWrongButWellFormedNode(t *testing.T) {
	tr := New()
	for i := 0; i < 40; i++ {
		tr.Put(k(fmt.Sprintf("n%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	store := NewMemStore()
	root, err := tr.Commit(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(store, root); err != nil {
		t.Fatalf("honest store: %v", err)
	}
	lying := swapStore{
		NodeStore: store,
		under:     newLeaf(k("n7"), []byte("v7")).hash(),
		serve:     newLeaf(k("n8"), []byte("v8")).hash(),
	}
	if _, err := Load(lying, root); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("leaf served under a sibling's hash: got %v, want ErrRootMismatch", err)
	}
}

// The commit hot path — re-committing a trie the store already holds,
// which never reaches the store, and re-puts of already-present nodes —
// must not allocate. Enforced here (not just benchmarked) so a regression
// fails CI.
func TestMemStoreHotPathNoAllocs(t *testing.T) {
	tr := New()
	for i := 0; i < 64; i++ {
		tr.Put(k(fmt.Sprintf("n%d", i)), []byte{byte(i)})
	}
	store := NewMemStore()
	root, err := tr.Commit(store)
	if err != nil {
		t.Fatal(err)
	}

	before := store.Len()
	if allocs := testing.AllocsPerRun(200, func() {
		if got, err := tr.Commit(store); got != root || err != nil {
			t.Fatal("re-commit lost the root")
		}
	}); allocs != 0 {
		t.Fatalf("no-op re-commit allocates %.1f objects per call", allocs)
	}
	if store.Len() != before {
		t.Fatalf("no-op re-commit grew the store from %d to %d nodes", before, store.Len())
	}

	enc, err := store.GetNode(root)
	if err != nil {
		t.Fatalf("the store lost the root: %v", err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := store.Put(root, enc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("idempotent Put allocates %.1f objects per call", allocs)
	}
}

// BenchmarkTrieCommitMemStore measures the full commit path (encode +
// store) and the no-op re-commit, which stops at the root: it is
// the node this handle committed last.
func BenchmarkTrieCommitMemStore(b *testing.B) {
	tr := New()
	for i := 0; i < 2000; i++ {
		tr.Put(k(fmt.Sprintf("bench%d", i)), []byte(fmt.Sprintf("value-%d", i)))
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store := NewMemStore()
			if _, err := tr.Commit(store); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nochange", func(b *testing.B) {
		store := NewMemStore()
		if _, err := tr.Commit(store); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.Commit(store); err != nil {
				b.Fatal(err)
			}
		}
	})
}
