// Package mstate is the Merkle state layer: a trie over 32-byte hashed
// keys that gives every chain backend an authenticated state root per
// block, write buffers (Overlay) for speculative execution, and a
// disk-shaped persistence seam (NodeStore).
//
// The trie is a 16-ary radix tree over the nibbles of the (already
// hashed, uniformly distributed) key. Leaves store the full key and
// value, so lookups terminate as soon as the path is unambiguous;
// interior branch chains exist only along shared key prefixes, and a
// branch holds only the children it has.
//
// Ownership rule: a Trie handle owns the branches it created since its
// last Commit and mutates those in place; every other branch on a written
// path is copied once and the copy becomes owned. Commit retires the
// handle's ownership, so what has been written out stays what was
// written: a write after it costs one branch copy per distinct dirty
// branch until the next Commit. Ownership lives in the handle: a Trie
// must not be copied by value (the copy would own the same branches).
//
// An Overlay takes no snapshot: it buffers its writes in a map and reads
// the live base, so the base keeps its token and a commit rewrites the
// branches the base owns in place. The price is a rule — a base that has
// been written must not be read through an overlay opened before the
// write — which every Trie write enforces by advancing a generation that
// the overlay's reads compare against.
//
// The structure — and therefore the root hash — is a pure function of
// the key/value set, independent of insertion or deletion order:
// deletes collapse single-leaf branches back to the shape a fresh
// insertion of the surviving keys would build.
package mstate

import (
	"crypto/sha256"
	"math/bits"
	"runtime"
	"sync"
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

// branch fans out on one nibble of the key and holds only the children it
// has: bit i of mask is set when a key below has nibble i at this depth,
// and kids holds those children in slot order, so slot i's child is
// kids[popcount(mask below bit i)] (slot). owner is the token of the
// handle that created the branch and is never rewritten; the handle may
// mutate the branch in place for as long as it still holds that token.
type branch struct {
	mask   uint16
	kids   []node
	cached atomic.Pointer[Hash]
	owner  *owner
}

// A branch is allocated together with room for its children, so that it
// and its children are one allocation: kids is a slice of the room behind
// it. The rooms take 80, 112, 176 and 304 bytes on a 64-bit platform,
// the first three a Go size class each and the last in the 320-byte
// class; half of the branches over a random key set have two children.
type (
	branch2 struct {
		branch
		room [2]node
	}
	branch4 struct {
		branch
		room [4]node
	}
	branch8 struct {
		branch
		room [8]node
	}
	branch16 struct {
		branch
		room [16]node
	}
)

// newBranch returns a branch owned by own with n (≤ 16) children in kids,
// all nil, in the smallest room that holds them; the caller sets mask.
func newBranch(n int, own *owner) *branch {
	var b *branch
	var room []node
	switch {
	case n <= 2:
		r := new(branch2)
		b, room = &r.branch, r.room[:]
	case n <= 4:
		r := new(branch4)
		b, room = &r.branch, r.room[:]
	case n <= 8:
		r := new(branch8)
		b, room = &r.branch, r.room[:]
	default:
		r := new(branch16)
		b, room = &r.branch, r.room[:]
	}
	b.kids, b.owner = room[:n], own
	return b
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
	hdr := [3]byte{tagBranch, byte(b.mask >> 8), byte(b.mask)}
	hs.Write(hdr[:])
	for _, c := range b.kids {
		ch := c.hash()
		hs.Write(ch[:])
	}
	var h Hash
	hs.Sum(h[:0])
	b.cached.Store(&h)
	return h
}

// slot returns where slot i's child sits in kids and whether slot i is
// occupied; when it is not, that is where a child for it would go.
func (b *branch) slot(i int) (int, bool) {
	bit := uint16(1) << i
	return bits.OnesCount16(b.mask & (bit - 1)), b.mask&bit != 0
}

// child returns the node in slot i, nil when the slot is empty.
func (b *branch) child(i int) node {
	if j, ok := b.slot(i); ok {
		return b.kids[j]
	}
	return nil
}

// set returns the branch to write through on behalf of the handle holding
// own (non-nil), with slot i holding n; a nil n empties the slot, which
// must be occupied. That is b itself with its hash cache cleared when that
// handle created it and its room holds the children, otherwise a copy
// that the handle now owns.
func (b *branch) set(own *owner, i int, n node) *branch {
	j, had := b.slot(i)
	old, size := b.kids, len(b.kids)
	switch {
	case n == nil:
		size--
	case !had:
		size++
	}
	nb := b
	if b.owner == own && size <= cap(old) {
		b.cached.Store(nil)
		if size != len(old) { // a rewritten child leaves the header alone: no write barrier
			b.kids = old[:size]
		}
	} else {
		nb = newBranch(size, own)
		nb.mask = b.mask
		copy(nb.kids, old[:j])
	}
	bit := uint16(1) << i
	switch {
	case n == nil: // close the slot's place
		copy(nb.kids[j:], old[j+1:])
		if nb == b {
			old[size] = nil // the vacated last place keeps nothing alive
		}
		nb.mask &^= bit
	case !had: // open a place for the slot
		copy(nb.kids[j+1:], old[j:])
		nb.mask |= bit
	case nb != b:
		copy(nb.kids[j+1:], old[j+1:])
	}
	if n != nil {
		nb.kids[j] = n
	}
	return nb
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
// New. A Trie is not safe for concurrent mutation, but while nobody
// writes it any number of goroutines may read (and hash) it.
type Trie struct {
	root  node
	count int
	// own is the token of the branches this handle may mutate in place;
	// nil until the first write after New, Load or Commit.
	own *owner
	// base is what this handle last wrote out or was loaded from; nil for
	// a trie no store has seen.
	base *stored
	// gen counts the Puts and Deletes applied through this handle; rootGen
	// is gen as of the last Root, which Root may run concurrently with
	// itself, hence the atomic.
	gen     uint64
	rootGen atomic.Uint64
}

// New returns an empty trie.
func New() *Trie { return &Trie{} }

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

// parallelRootWrites is how many writes since the last Root make the next
// one hash the two halves of the root branch's children on two
// goroutines. A soak round writes 2 048–8 191 keys and a lifecycle block
// 4–31: below the threshold the second goroutine costs more than the
// hashing it takes over.
const parallelRootWrites = 512

// Root returns the Merkle root of the current contents. Hashing is
// memoized per node, so after the first call only newly written paths
// cost anything. After parallelRootWrites writes, and when a second core
// is there to take it, the upper half of the root branch's children is
// hashed on a goroutine of its own while the caller hashes the lower half.
func (t *Trie) Root() Hash {
	if t.root == nil {
		return emptyRoot
	}
	if t.gen-t.rootGen.Swap(t.gen) >= parallelRootWrites && runtime.GOMAXPROCS(0) > 1 {
		if br, ok := t.root.(*branch); ok {
			half := len(br.kids) / 2
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				hashChildren(br.kids[half:])
			}()
			hashChildren(br.kids[:half])
			wg.Wait()
		}
	}
	return t.root.hash()
}

// hashChildren fills the hash caches of children.
func hashChildren(children []node) {
	for _, c := range children {
		c.hash()
	}
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
			n = v.child(nibble(k, depth))
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
	t.gen++
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
		idx := nibble(lf.key, depth)
		child, added := insert(cur.child(idx), lf, depth+1, own)
		return cur.set(own, idx, child), added
	}
	panic("mstate: unknown node type")
}

// splitLeaf builds the branch chain separating two distinct keys that
// share a prefix from depth onward.
func splitLeaf(a, b *leaf, depth int, own *owner) node {
	ia, ib := nibble(a.key, depth), nibble(b.key, depth)
	if ia == ib {
		br := newBranch(1, own)
		br.mask, br.kids[0] = 1<<ia, splitLeaf(a, b, depth+1, own)
		return br
	}
	if ia > ib {
		a, b, ia, ib = b, a, ib, ia
	}
	br := newBranch(2, own)
	br.mask, br.kids[0], br.kids[1] = 1<<ia|1<<ib, a, b
	return br
}

// Delete removes k if present.
func (t *Trie) Delete(k Key) {
	t.gen++
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
		child, removed := remove(cur.child(idx), k, depth+1, own)
		if !removed {
			return cur, false
		}
		// Collapse: no child left, or a lone leaf, replaces the branch.
		// The mask decides it before set, which would copy a branch the
		// handle does not own only for the copy to be dropped.
		mask := cur.mask
		if child == nil {
			mask &^= 1 << idx
		}
		switch bits.OnesCount16(mask) {
		case 0:
			return nil, true
		case 1:
			lone := child
			if lone == nil {
				lone = cur.child(bits.TrailingZeros16(mask))
			}
			if lf, ok := lone.(*leaf); ok {
				return lf, true
			}
		}
		return cur.set(own, idx, child), true
	}
	panic("mstate: unknown node type")
}
