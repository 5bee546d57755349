package mstate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrNodeMissing is returned (wrapped) by NodeStore.GetNode when no node
// is stored under the requested hash. Callers distinguish "absent" from
// I/O or corruption failures with errors.Is(err, ErrNodeMissing).
var ErrNodeMissing = errors.New("mstate: node missing")

// ErrRootMismatch is returned (wrapped) by Load when the nodes the store
// served are well-formed but do not hash to the requested root: stores
// check their own framing, only the rebuilt trie can check the content
// address.
var ErrRootMismatch = errors.New("mstate: loaded trie does not hash to the requested root")

// NodeStore is the persistence seam: content-addressed node storage,
// keyed by node hash. Trie.Commit streams each new node through Put and
// flushes once, so disk backends append a whole commit through one buffer
// and make it durable once; every method can fail, because real backends
// sit on files.
//
// Equal hashes carry equal encodings, so a hash may be put more than
// once — Trie.Commit decides what is new from the trie, not by asking
// the store — and a store keeps whichever copy it likes (both shipped
// stores serve the first). Commit recognises a store it has written to
// by interface equality: implementations are pointers, or otherwise
// comparable.
//
// A store that drops old nodes also has a method Generation() int
// (diskstore.Store does). It names the set of nodes the store keeps
// together: the store moves new nodes to a new generation before it drops
// the old one, and a node GetNode has returned is held by the generation
// Generation reports after the call. A store without the method keeps
// every node, in generation 0.
type NodeStore interface {
	// Put stores enc under h. The store must not retain enc (it copies
	// or writes it out): the caller reuses it for the next node.
	Put(h Hash, enc []byte) error
	// GetNode returns the encoding stored under h. The returned slice
	// is owned by the caller. A miss satisfies
	// errors.Is(err, ErrNodeMissing).
	GetNode(h Hash) ([]byte, error)
	// Flush pushes buffered writes down to the backing medium. It does
	// not guarantee durability (see diskstore.Store.Commit for that).
	Flush() error
	// Close releases the store's resources. The store is unusable
	// afterwards.
	Close() error
}

// generation is store's generation (see NodeStore).
func generation(store NodeStore) int {
	if g, ok := store.(interface{ Generation() int }); ok {
		return g.Generation()
	}
	return 0
}

// MemStore is the in-memory NodeStore.
type MemStore struct {
	nodes map[Hash][]byte
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore { return &MemStore{nodes: make(map[Hash][]byte)} }

// Put implements NodeStore. The encoding is copied.
func (m *MemStore) Put(h Hash, enc []byte) error {
	if _, ok := m.nodes[h]; !ok {
		m.nodes[h] = append(make([]byte, 0, len(enc)), enc...)
	}
	return nil
}

// GetNode implements NodeStore. The result is a defensive copy: callers
// may mutate it freely without corrupting the store.
func (m *MemStore) GetNode(h Hash) ([]byte, error) {
	enc, ok := m.nodes[h]
	if !ok {
		return nil, fmt.Errorf("%w: %x", ErrNodeMissing, h[:8])
	}
	return append([]byte(nil), enc...), nil
}

// Flush implements NodeStore; MemStore has nothing buffered.
func (m *MemStore) Flush() error { return nil }

// Close implements NodeStore.
func (m *MemStore) Close() error { return nil }

// Len is the number of stored nodes.
func (m *MemStore) Len() int { return len(m.nodes) }

// stored names a root that has been written out, the store holding it and
// the store's generation that holds every node under it. A value is never
// modified once built, so handles may share it.
type stored struct {
	root node
	in   NodeStore
	gen  int
}

// Commit writes into store every node of t that store does not hold yet,
// one Put per node, and returns the root hash. What is new is read off the
// trie itself: t is walked against the root this handle last committed to
// (or was loaded from) the same store in the same generation, and a subtree
// whose node is the very node that sat there then is skipped whole; a store
// the handle has not written to, or has since moved to a new generation,
// gets every node. Commit retires t's ownership token first,
// so no later write can change a node in place behind a pointer the base
// also holds. The base advances only once the store has taken and flushed
// everything, so a failed Commit is simply retried.
// Commit flushes the store but does not make it durable; disk backends
// expose a separate durability point (diskstore.Store.Commit).
func (t *Trie) Commit(store NodeStore) (Hash, error) {
	if t.root == nil {
		return emptyRoot, nil
	}
	t.own = nil
	var old node
	gen := generation(store)
	if t.base != nil && t.base.in == store && t.base.gen == gen {
		old = t.base.root
	}
	var enc []byte // every node's encoding, in turn; nil for a no-op re-commit
	root, err := commitNode(t.root, old, store, &enc)
	if err != nil {
		return Hash{}, err
	}
	if err := store.Flush(); err != nil {
		return Hash{}, err
	}
	if t.root != old {
		t.base = &stored{root: t.root, in: store, gen: gen}
	}
	return root, nil
}

// commitNode puts the nodes under n that old does not share, children
// before their parent, so any durable prefix of the stream is closed under
// reachability once its subtrees complete. old is the node at n's position
// in the trie last written to the same store, nil when nothing was there.
// Where a leaf has since been split into a branch chain, that leaf stays
// the counterpart of everything below, so it is recognised at whatever
// depth the split left it. Each node is encoded into *enc, which the store
// does not keep.
func commitNode(n, old node, store NodeStore, enc *[]byte) (Hash, error) {
	h := n.hash()
	if n == old {
		return h, nil // this very subtree is what was written then
	}
	switch cur := n.(type) {
	case *leaf:
		*enc = append(append(append((*enc)[:0], tagLeaf), cur.key[:]...), cur.val...)
	case *branch:
		ob, _ := old.(*branch)
		var kids [16]Hash
		slots := cur.mask // the slots still to walk, lowest first
		for j, c := range cur.kids {
			oc := old
			if ob != nil {
				oc = ob.child(bits.TrailingZeros16(slots))
			}
			slots &= slots - 1
			var err error
			if kids[j], err = commitNode(c, oc, store, enc); err != nil {
				return Hash{}, err
			}
		}
		*enc = append((*enc)[:0], tagBranch, byte(cur.mask>>8), byte(cur.mask))
		for _, ch := range kids[:len(cur.kids)] {
			*enc = append(*enc, ch[:]...)
		}
	}
	return h, store.Put(h, *enc)
}

// Load reconstructs the trie rooted at root from store and verifies that
// what it built hashes to root (ErrRootMismatch otherwise); the result's
// next Commit to store writes only what changed since. The empty root
// loads as an empty trie. A node absent from the store surfaces as an
// error wrapping ErrNodeMissing.
func Load(store NodeStore, root Hash) (*Trie, error) {
	if root == emptyRoot {
		return New(), nil
	}
	n, count, err := loadNode(store, root)
	if err != nil {
		return nil, err
	}
	t := &Trie{root: n, count: count, base: &stored{root: n, in: store, gen: generation(store)}}
	if got := t.Root(); got != root {
		return nil, fmt.Errorf("%w: got %x, want %x", ErrRootMismatch, got[:8], root[:8])
	}
	return t, nil
}

func loadNode(store NodeStore, h Hash) (node, int, error) {
	enc, err := store.GetNode(h)
	if err != nil {
		return nil, 0, err
	}
	if len(enc) == 0 {
		return nil, 0, fmt.Errorf("mstate: empty node encoding for %x", h[:8])
	}
	switch enc[0] {
	case tagLeaf:
		if len(enc) < 1+32 {
			return nil, 0, fmt.Errorf("mstate: short leaf encoding for %x", h[:8])
		}
		l := &leaf{}
		copy(l.key[:], enc[1:33])
		l.val = append([]byte(nil), enc[33:]...)
		return l, 1, nil
	case tagBranch:
		if len(enc) < 3 {
			return nil, 0, fmt.Errorf("mstate: short branch encoding for %x", h[:8])
		}
		mask := binary.BigEndian.Uint16(enc[1:3])
		want := 3 + 32*bits.OnesCount16(mask)
		if len(enc) != want {
			return nil, 0, fmt.Errorf("mstate: branch encoding for %x has %d bytes, want %d", h[:8], len(enc), want)
		}
		b := newBranch(bits.OnesCount16(mask), nil)
		b.mask = mask
		count := 0
		for j := range b.kids {
			child, n, err := loadNode(store, Hash(enc[3+32*j:]))
			if err != nil {
				return nil, 0, err
			}
			b.kids[j] = child
			count += n
		}
		return b, count, nil
	default:
		return nil, 0, fmt.Errorf("mstate: unknown node tag 0x%02x for %x", enc[0], h[:8])
	}
}
