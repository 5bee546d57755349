// Package mstate is the Merkle snapshot state layer: a copy-on-write
// trie over 32-byte hashed keys that gives every chain backend O(1)
// snapshots, an authenticated state root per block, and a disk-shaped
// persistence seam (NodeStore).
//
// The trie is a 16-ary radix tree over the nibbles of the (already
// hashed, uniformly distributed) key. Leaves store the full key and
// value, so lookups terminate as soon as the path is unambiguous;
// interior branch chains exist only along shared key prefixes.
//
// Ownership rule: a Trie handle owns the branches it created since its
// last Snapshot (or Commit) and mutates those in place; every other
// branch on a written path is copied once and the copy becomes owned.
// Snapshot retires the receiver's ownership, so afterwards both sides see
// only frozen nodes and neither observes the other — a write costs one
// branch copy per distinct dirty branch between snapshots, and two
// tries diverging by k keys still share all but O(k·depth) nodes. Commit
// retires it too: what has been written out stays what was written.
// Ownership lives in the handle: a Trie must not be copied by value
// (the copy would own the same branches), and Snapshot must not run
// concurrently with the receiver's own writes.
//
// The structure — and therefore the root hash — is a pure function of
// the key/value set, independent of insertion or deletion order:
// deletes collapse single-leaf branches back to the shape a fresh
// insertion of the surviving keys would build.
package mstate

import (
	"crypto/sha256"
	"sync/atomic"
)

// Key is a trie key: the caller hashes its logical key (address, slot,
// app id...) down to 32 uniformly distributed bytes via KeyOf.
type Key [32]byte

// Hash is a node or root hash.
type Hash [32]byte

// KeyOf derives a trie key from a domain tag and the logical key parts.
// The tag keeps different column families (balances, nonces, storage...)
// from colliding even when their raw parts coincide.
func KeyOf(tag string, parts ...[]byte) Key {
	// The chains' keys (tag, address, storage slot) fit the buffer, so the
	// preimage stays on the stack; a longer one grows onto the heap.
	buf := append(make([]byte, 0, 64), tag...)
	buf = append(buf, 0)
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return sha256.Sum256(buf)
}

// node is either a *leaf or a *branch. Leaves are immutable once linked
// into a trie; a branch is mutable only through the handle that owns it.
//
// The set is closed: hash is unexported, so no other package can add a
// node type, and the one path that builds nodes from outside bytes —
// loadNode — constructs only *leaf and *branch and rejects every other
// tag with an error. The "unknown node type" panic that closes the type
// switches of insert, remove and walk is therefore reachable by a bug in
// this package alone, never by input.
type node interface {
	hash() Hash
}

// leaf holds one key/value pair. The value slice is owned by the trie
// (Put copies), never mutated in place.
type leaf struct {
	key    Key
	val    []byte
	cached atomic.Pointer[Hash]
}

// newLeaf builds a leaf over a private copy of v.
func newLeaf(k Key, v []byte) *leaf {
	return &leaf{key: k, val: append(make([]byte, 0, len(v)), v...)}
}

// owner is an ownership token, compared by address. It has a size so
// that every live token has an address of its own.
type owner struct{ _ byte }

// branch fans out on one nibble of the key. children[i] covers keys
// whose nibble at this depth is i. owner is the token of the handle that
// created the branch and is never rewritten; the handle may mutate the
// branch in place for as long as it still holds that token.
type branch struct {
	children [16]node
	cached   atomic.Pointer[Hash]
	owner    *owner
}

// Node-encoding tags, shared by hashing and persistence so that a
// node's hash is the hash of its stored encoding.
const (
	tagLeaf   = 0x4C // 'L'
	tagBranch = 0x42 // 'B'
)

func (l *leaf) hash() Hash {
	if h := l.cached.Load(); h != nil {
		return *h
	}
	hs := sha256.New()
	hs.Write([]byte{tagLeaf})
	hs.Write(l.key[:])
	hs.Write(l.val)
	var h Hash
	hs.Sum(h[:0])
	l.cached.Store(&h) // idempotent: concurrent stores write the same value
	return h
}

func (b *branch) hash() Hash {
	if h := b.cached.Load(); h != nil {
		return *h
	}
	hs := sha256.New()
	var hdr [3]byte
	hdr[0] = tagBranch
	mask := b.mask()
	hdr[1], hdr[2] = byte(mask>>8), byte(mask)
	hs.Write(hdr[:])
	for _, c := range b.children {
		if c != nil {
			ch := c.hash()
			hs.Write(ch[:])
		}
	}
	var h Hash
	hs.Sum(h[:0])
	b.cached.Store(&h)
	return h
}

// mask is the bitmap of occupied child slots, bit i for children[i].
func (b *branch) mask() uint16 {
	var m uint16
	for i, c := range b.children {
		if c != nil {
			m |= 1 << uint(i)
		}
	}
	return m
}

// mutable returns the branch to write through on behalf of the handle
// holding own (non-nil): b itself with its hash cache cleared when that
// handle created it, otherwise a copy that the handle now owns.
func (b *branch) mutable(own *owner) *branch {
	if b.owner != own {
		return &branch{children: b.children, owner: own}
	}
	b.cached.Store(nil)
	return b
}

// nibble returns the depth-th nibble of k, high nibble first.
func nibble(k Key, depth int) int {
	by := k[depth/2]
	if depth%2 == 0 {
		return int(by >> 4)
	}
	return int(by & 0x0F)
}

// Trie is one version of the state. The zero value is not usable; call
// New. A Trie is not safe for concurrent mutation, but any number of
// snapshots may be read (and hashed) concurrently because all shared
// nodes are frozen.
type Trie struct {
	root  node
	count int
	// own is the token of the branches this handle may mutate in place;
	// nil until the first write after New, Load, Snapshot or Commit.
	own *owner
	// base is what this handle (or the one it was snapshotted from) last
	// wrote out or was loaded from; nil for a trie no store has seen.
	base *stored
}

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Snapshot returns an independent fork sharing all nodes with t. Both
// sides may continue to mutate; neither observes the other. O(1). It
// drops t's token, which freezes every branch t owned: the token stays
// referenced by those branches, so no later token can compare equal to
// it, and both handles draw a fresh one on their next write. A handle
// already without a token is not written, so a quiescent trie may be
// snapshotted from several goroutines. The fork inherits t's commit base:
// what t has in a store, the fork has there too.
func (t *Trie) Snapshot() *Trie {
	if t.own != nil {
		t.own = nil
	}
	return &Trie{root: t.root, count: t.count, base: t.base}
}

// token returns the handle's ownership token, drawing one if retired.
func (t *Trie) token() *owner {
	if t.own == nil {
		t.own = new(owner)
	}
	return t.own
}

// Len is the number of live keys.
func (t *Trie) Len() int { return t.count }

// emptyRoot is the root hash of the empty trie.
var emptyRoot = Hash{}

// Root returns the Merkle root of the current contents. Hashing is
// memoized per node, so after the first call only newly written paths
// cost anything.
func (t *Trie) Root() Hash {
	if t.root == nil {
		return emptyRoot
	}
	return t.root.hash()
}

// Get returns the stored value and whether the key is present. The
// returned slice is owned by the trie: callers must not mutate it.
func (t *Trie) Get(k Key) ([]byte, bool) {
	if lf := t.leafOf(k); lf != nil {
		return lf.val, true
	}
	return nil, false
}

// leafOf returns the leaf linked under k, nil when the key is absent.
func (t *Trie) leafOf(k Key) *leaf {
	n := t.root
	for depth := 0; n != nil; depth++ {
		switch v := n.(type) {
		case *leaf:
			if v.key == k {
				return v
			}
			return nil
		case *branch:
			n = v.children[nibble(k, depth)]
		}
	}
	return nil
}

// Has reports whether k is present.
func (t *Trie) Has(k Key) bool { return t.leafOf(k) != nil }

// Put stores v under k, copying v so later caller-side mutation cannot
// alias into the trie.
func (t *Trie) Put(k Key, v []byte) { t.putLeaf(newLeaf(k, v)) }

// putLeaf links lf, which the caller must never modify again, under its
// key. Leaves are immutable, so one leaf may sit in several tries.
func (t *Trie) putLeaf(lf *leaf) {
	var added bool
	t.root, added = insert(t.root, lf, 0, t.token())
	if added {
		t.count++
	}
}

// insert returns the new subtree root and whether the key was newly
// added (vs overwritten).
func insert(n node, lf *leaf, depth int, own *owner) (node, bool) {
	switch cur := n.(type) {
	case nil:
		return lf, true
	case *leaf:
		if cur.key == lf.key {
			return lf, false
		}
		// Grow a branch chain down to the first diverging nibble.
		return splitLeaf(cur, lf, depth, own), true
	case *branch:
		nb := cur.mutable(own)
		idx := nibble(lf.key, depth)
		var added bool
		nb.children[idx], added = insert(nb.children[idx], lf, depth+1, own)
		return nb, added
	}
	panic("mstate: unknown node type")
}

// splitLeaf builds the branch chain separating two distinct keys that
// share a prefix from depth onward.
func splitLeaf(a, b *leaf, depth int, own *owner) node {
	ia, ib := nibble(a.key, depth), nibble(b.key, depth)
	br := &branch{owner: own}
	if ia == ib {
		br.children[ia] = splitLeaf(a, b, depth+1, own)
	} else {
		br.children[ia] = a
		br.children[ib] = b
	}
	return br
}

// Delete removes k if present.
func (t *Trie) Delete(k Key) {
	root, removed := remove(t.root, k, 0, t.token())
	t.root = root
	if removed {
		t.count--
	}
}

// remove returns the new subtree root and whether a key was removed.
// Branches left with a single leaf child collapse to that leaf so the
// structure stays a pure function of the surviving key set.
func remove(n node, k Key, depth int, own *owner) (node, bool) {
	switch cur := n.(type) {
	case nil:
		return nil, false
	case *leaf:
		if cur.key == k {
			return nil, true
		}
		return cur, false
	case *branch:
		idx := nibble(k, depth)
		child, removed := remove(cur.children[idx], k, depth+1, own)
		if !removed {
			return cur, false
		}
		nb := cur.mutable(own)
		nb.children[idx] = child
		// Collapse: count survivors; a lone leaf replaces the branch.
		var only node
		cnt := 0
		for _, c := range nb.children {
			if c != nil {
				only = c
				cnt++
			}
		}
		switch {
		case cnt == 0:
			return nil, true
		case cnt == 1:
			if lf, ok := only.(*leaf); ok {
				return lf, true
			}
		}
		return nb, true
	}
	panic("mstate: unknown node type")
}
