package mstate

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

var errInjected = errors.New("injected store fault")

// faultyStore is a MemStore whose failAt-th Put from the arming on fails
// and stores nothing: a disk that filled up mid-append, which cuts a
// commit's node stream after whatever nodes it had taken.
type faultyStore struct {
	*MemStore
	failAt int // 0: disarmed
}

func (s *faultyStore) Put(h Hash, enc []byte) error {
	if s.failAt > 0 {
		if s.failAt--; s.failAt == 0 {
			return errInjected
		}
	}
	return s.MemStore.Put(h, enc)
}

// reopened is what a fresh process would find: the same nodes behind a
// store no trie handle has ever seen.
func (s *faultyStore) reopened() *MemStore {
	m := NewMemStore()
	for h, enc := range s.nodes {
		m.nodes[h] = enc
	}
	return m
}

// fuzzKey spreads one byte over a key so that keys collide on their first
// nibbles often (splits and collapses at depths 0–2) and, when only the low
// bits differ, all the way down to the last byte (a 62-branch chain). The
// bytes 0xF0–0xFF differ in the second nibble alone: they are the sixteen
// keys of the branch under the root's slot F, which no other byte reaches.
func fuzzKey(x byte) Key {
	var k Key
	k[0] = x & 0x33
	k[1] = x & 0xC0
	if x >= 0xF0 {
		k[0], k[1] = x, 0
	}
	k[31] = x
	return k
}

type flatModel map[Key]string

func (m flatModel) clone() flatModel {
	c := make(flatModel, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// fuzzHandle is one trie handle, the flat map it must equal, and the
// overlay currently open on it with the map that must equal and, under an
// open mark, the map it comes back to on revert.
type fuzzHandle struct {
	trie   *Trie
	model  flatModel
	ov     *Overlay
	ovMod  flatModel
	atMark flatModel
}

func mustEqualModel(t *testing.T, label string, tr *Trie, model flatModel) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Fatalf("%s: trie holds %d keys, model %d", label, tr.Len(), len(model))
	}
	for k, v := range model {
		if got, ok := tr.Get(k); !ok || string(got) != v {
			t.Fatalf("%s: key %x = %q (present %v), model says %q", label, k[31], got, ok, v)
		}
	}
	// The shape is a pure function of the key set: a trie built fresh from
	// the model must hash the same, whatever history tr went through.
	fresh := New()
	for k, v := range model {
		fresh.Put(k, []byte(v))
	}
	if fresh.Root() != tr.Root() {
		t.Fatalf("%s: root differs from a fresh build of the same %d keys", label, len(model))
	}
}

// FuzzTrieCommit drives fuzzer-chosen sequences of writes, snapshots,
// overlay open/mark/keep/revert/commit/drop, commits to either of two stores
// (with an injected failure at a fuzzer-chosen Put, which the commit that
// meets it must report and the next commit must retry whole) and loads
// against a flat-map model. After every successful Commit the committed
// root must load, from a reopened view of that store alone, to exactly the
// model — which is what catches a Commit that skipped a node the store
// never got.
//
// A program is a sequence of 3-byte instructions: opcode, a, b.
func FuzzTrieCommit(f *testing.F) {
	const (
		opPut = iota
		opDelete
		opSnapshot
		opCommit
		opLoad
		opOverlayOpen
		opOverlayFold
		opOverlayDrop
		opArmFault
		opSelect
		numOps
	)
	// In-place write between two commits without a snapshot.
	f.Add([]byte{opPut, 1, 1, opPut, 2, 1, opCommit, 0, 0, opPut, 1, 2, opCommit, 0, 0, opPut, 2, 3, opCommit, 0, 0})
	// Split and collapse across a commit: 0x01 and 0x05 differ only in the
	// last byte, 0x11 shares one nibble with both.
	f.Add([]byte{opPut, 0x01, 1, opCommit, 0, 0, opPut, 0x05, 1, opPut, 0x11, 1, opCommit, 0, 0,
		opDelete, 0x05, 0, opCommit, 0, 0, opDelete, 0x11, 0, opCommit, 0, 0})
	// A commit failed at its first Put and retried, then an incremental
	// commit.
	f.Add([]byte{opPut, 1, 1, opPut, 2, 1, opPut, 3, 1, opArmFault, 0, 0, opCommit, 0, 0, opCommit, 0, 0,
		opPut, 4, 1, opCommit, 0, 0})
	// An incremental commit cut after its third Put, partway up the branch
	// chain that splitting 0x01 from 0x05 builds, then retried.
	f.Add([]byte{opPut, 0x01, 1, opPut, 0x41, 1, opCommit, 0, 0, opPut, 0x05, 2, opPut, 0x11, 2,
		opArmFault, 3, 0, opCommit, 0, 0, opPut, 0x41, 3, opCommit, 0, 0})
	// A snapshot committed to the second store, then both diverge and
	// commit crosswise; a load from the first commit rejoins.
	f.Add([]byte{opPut, 1, 1, opPut, 0x41, 1, opCommit, 0, 0, opSnapshot, 0, 1, opSelect, 1, 0, opPut, 2, 2,
		opCommit, 1, 1, opCommit, 1, 0, opSelect, 0, 0, opDelete, 1, 0, opCommit, 0, 1, opLoad, 0, 2,
		opSelect, 2, 0, opPut, 9, 9, opCommit, 2, 0})
	// Overlays: open, write, mark, write, keep; mark, write, revert; commit
	// to the base.
	f.Add([]byte{opPut, 1, 1, opCommit, 0, 0, opOverlayOpen, 0, 0, opPut, 2, 2, opOverlayOpen, 0, 0, opPut, 3, 3,
		opDelete, 1, 0, opOverlayFold, 0, 0, opOverlayOpen, 0, 0, opPut, 4, 4, opOverlayDrop, 0, 0,
		opOverlayFold, 0, 0, opCommit, 0, 0})
	// A revert must restore the writes entries with the leaves, or the
	// commit replays what was taken back: a fresh key, and an overwrite
	// of a key an earlier kept group wrote.
	f.Add([]byte{opPut, 1, 1, opOverlayOpen, 0, 0, opOverlayOpen, 0, 0, opPut, 1, 2, opOverlayFold, 0, 0,
		opOverlayOpen, 0, 0, opPut, 2, 3, opPut, 1, 4, opDelete, 0x41, 0, opOverlayDrop, 0, 0,
		opOverlayFold, 0, 0, opCommit, 0, 0})
	// A keep must end its group's undo records, or the next revert takes
	// the kept writes back as well.
	f.Add([]byte{opOverlayOpen, 0, 0, opOverlayOpen, 0, 0, opPut, 1, 1, opDelete, 2, 0, opOverlayFold, 0, 0,
		opOverlayOpen, 0, 0, opPut, 2, 2, opOverlayDrop, 0, 0, opOverlayFold, 0, 0, opCommit, 0, 0})
	// One branch, the one under the root's slot F, grows from one key to
	// sixteen children and shrinks back to one key through deletes, taking
	// and giving up a child at the front, the back and in between. Owned,
	// it moves to a larger room at the third and ninth key; a commit at four
	// keys makes the fifth insert copy it into a larger room, and commits
	// at eight, four and three keys left make the next delete copy it into
	// a smaller one. At sixteen a snapshot and a load of the commit keep
	// every slot while the handle empties the branch to a leaf; the loaded
	// handle then empties its copy in the opposite order and commits to
	// the other store.
	fill := []byte{0xF8, 0xF0, 0xFF, 0xF4, 0xFC, 0xF2, 0xFA, 0xF6, 0xFE, 0xF1, 0xF9, 0xF5, 0xFD, 0xF3, 0xFB, 0xF7}
	drop := []byte{0xF0, 0xFF, 0xF8, 0xF7, 0xF1, 0xFE, 0xF4, 0xFB, 0xF2, 0xFD, 0xF5, 0xFA, 0xF3, 0xFC, 0xF9}
	fan := []byte{opPut, 0x01, 1}
	for i, x := range fill {
		fan = append(fan, opPut, x, byte(i))
		if i == 0 || i == 3 {
			fan = append(fan, opCommit, 0, 0)
		}
	}
	fan = append(fan, opSnapshot, 0, 1, opCommit, 0, 0, opLoad, 2, 2)
	for i, x := range drop {
		fan = append(fan, opDelete, x, 0)
		if i == 7 || i == 11 || i == 12 {
			fan = append(fan, opCommit, 0, 0)
		}
	}
	fan = append(fan, opCommit, 0, 0, opSelect, 2, 0)
	for i := len(drop) - 1; i >= 0; i-- {
		fan = append(fan, opDelete, drop[i], 0)
	}
	f.Add(append(fan, opCommit, 2, 1))

	f.Fuzz(func(t *testing.T, prog []byte) {
		stores := [2]*faultyStore{{MemStore: NewMemStore()}, {MemStore: NewMemStore()}}
		var handles [4]*fuzzHandle
		handles[0] = &fuzzHandle{trie: New(), model: flatModel{}}
		cur := 0 // the slot Put and Delete go to
		type commitRec struct {
			store int
			root  Hash
			model flatModel
		}
		var commits []commitRec

		for pc := 0; pc+3 <= len(prog); pc += 3 {
			op, a, b := prog[pc]%numOps, prog[pc+1], prog[pc+2]
			h := handles[a%4]
			switch op {
			case opPut, opDelete:
				c := handles[cur]
				if c == nil {
					continue
				}
				// Writes go to the open overlay: the base of a live
				// overlay must not be mutated.
				var dst interface {
					Put(Key, []byte)
					Delete(Key)
				} = c.trie
				model := c.model
				if c.ov != nil {
					dst, model = c.ov, c.ovMod
				}
				if k := fuzzKey(a); op == opPut {
					dst.Put(k, []byte{b})
					model[k] = string([]byte{b})
				} else {
					dst.Delete(k)
					delete(model, k)
				}
			case opSnapshot:
				if h != nil {
					handles[b%4] = &fuzzHandle{trie: h.trie.Snapshot(), model: h.model.clone()}
				}
			case opCommit:
				if h == nil {
					continue
				}
				s := stores[b%2]
				root, err := h.trie.Commit(s)
				if errors.Is(err, errInjected) {
					// The stream was cut mid-commit; the retry must
					// write whatever the cut left out.
					root, err = h.trie.Commit(s)
				}
				if err != nil {
					t.Fatalf("instruction %d: Commit: %v", pc/3, err)
				}
				if root != h.trie.Root() {
					t.Fatalf("Commit returned %x, the trie's root is %x", root[:4], h.trie.Root())
				}
				loaded, err := Load(s.reopened(), root)
				if err != nil {
					t.Fatalf("instruction %d: load of the committed root from the reopened store: %v", pc/3, err)
				}
				mustEqualModel(t, fmt.Sprintf("instruction %d: reloaded commit", pc/3), loaded, h.model)
				commits = append(commits, commitRec{int(b % 2), root, h.model.clone()})
			case opLoad:
				if len(commits) == 0 {
					continue
				}
				c := commits[int(a)%len(commits)]
				loaded, err := Load(stores[c.store], c.root)
				if err != nil {
					t.Fatalf("instruction %d: load of an earlier commit: %v", pc/3, err)
				}
				handles[b%4] = &fuzzHandle{trie: loaded, model: c.model.clone()}
			case opOverlayOpen:
				// Opens the overlay, then a mark in it: the model
				// snapshots at the mark.
				switch {
				case h == nil:
				case h.ov == nil:
					h.ov, h.ovMod = NewOverlay(h.trie), h.model.clone()
				case h.atMark == nil:
					h.ov.Mark()
					h.atMark = h.ovMod.clone()
				}
			case opOverlayFold:
				// Keeps the open mark, else commits the overlay.
				switch {
				case h == nil || h.ov == nil:
				case h.atMark != nil:
					h.ov.Keep()
					h.atMark = nil
				default:
					h.ov.CommitTo(h.trie)
					h.model, h.ov, h.ovMod = h.ovMod, nil, nil
				}
			case opOverlayDrop:
				// Reverts the open mark (the model restores), else drops
				// the overlay.
				switch {
				case h == nil || h.ov == nil:
				case h.atMark != nil:
					h.ov.Revert()
					h.ovMod, h.atMark = h.atMark, nil
				default:
					h.ov, h.ovMod = nil, nil
				}
			case opArmFault:
				stores[b%2].failAt = 1 + int(a)
			case opSelect:
				cur = int(a % 4)
			}
		}
		for i, h := range handles {
			if h == nil {
				continue
			}
			mustEqualModel(t, fmt.Sprintf("handle %d at the end", i), h.trie, h.model)
			if h.ov == nil {
				continue
			}
			// The overlay reads its model, and committed onto a snapshot of
			// its base it is a trie of the same contents and root as a fresh
			// build, whatever was kept or reverted.
			for x := 0; x < 256; x++ {
				v, ok := h.ov.Get(fuzzKey(byte(x)))
				if want, in := h.ovMod[fuzzKey(byte(x))]; ok != in || string(v) != want {
					t.Fatalf("handle %d overlay: key %x = %q (present %v), model says %q", i, x, v, ok, want)
				}
			}
			mustEqualModel(t, fmt.Sprintf("handle %d overlay", i), committed(h.ov), h.ovMod)
		}
	})
}

// Two snapshots of one trie share every node; each may be committed to its
// own store from its own goroutine (run under -race).
func TestSnapshotsCommitConcurrentlyToTwoStores(t *testing.T) {
	tr := New()
	for i := 0; i < 400; i++ {
		tr.Put(k(fmt.Sprintf("shared-%d", i)), []byte{byte(i)})
	}
	snaps := [2]*Trie{tr.Snapshot(), tr.Snapshot()}
	stores := [2]*MemStore{NewMemStore(), NewMemStore()}
	var roots [2]Hash
	var errs [2]error
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The first commit hashes the shared, never-hashed nodes from
			// both goroutines at once; the second is incremental.
			if _, errs[i] = snaps[i].Commit(stores[i]); errs[i] != nil {
				return
			}
			snaps[i].Put(k(fmt.Sprintf("own-%d", i)), []byte("x"))
			roots[i], errs[i] = snaps[i].Commit(stores[i])
		}(i)
	}
	wg.Wait()
	for i := range snaps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		loaded, err := Load(stores[i], roots[i])
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		if loaded.Len() != 401 || !loaded.Has(k(fmt.Sprintf("own-%d", i))) || loaded.Has(k(fmt.Sprintf("own-%d", 1-i))) {
			t.Fatalf("store %d: loaded %d keys, or the other snapshot's write", i, loaded.Len())
		}
		if v, _ := loaded.Get(k("shared-7")); !bytes.Equal(v, []byte{7}) {
			t.Fatalf("store %d: shared-7 = %x", i, v)
		}
	}
	if tr.Len() != 400 {
		t.Fatalf("the source trie saw a snapshot's write: %d keys", tr.Len())
	}
}
