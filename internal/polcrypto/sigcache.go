package polcrypto

import (
	"container/list"
	"crypto/ed25519"
	"sync"
)

// DefaultSigCacheSize bounds a signature-verification memo. The verifier
// forgets each valid verdict once it accepted a proof with it, so the memo
// holds proofs awaiting their verifier plus negative verdicts, and the bound
// caps those. Full, it holds ≈ 2.75 MiB (BenchmarkSigCacheResident, amd64).
const DefaultSigCacheSize = 4096

// SigKey is the full verification input. ed25519 keys and signatures have
// fixed sizes and the system only ever signs 32-byte proof hashes, so the
// key is a comparable value type — no per-lookup allocation.
type SigKey struct {
	pub  [ed25519.PublicKeySize]byte
	hash [32]byte
	sig  [ed25519.SignatureSize]byte
}

// SigKeyFor packs a verification input into a cache key. Inputs with a
// non-canonical shape (wrong key or signature length, message that is not a
// 32-byte hash) are not cacheable.
func SigKeyFor(pub ed25519.PublicKey, msg, sig []byte) (SigKey, bool) {
	var k SigKey
	if len(pub) != ed25519.PublicKeySize || len(msg) != 32 || len(sig) != ed25519.SignatureSize {
		return k, false
	}
	copy(k.pub[:], pub)
	copy(k.hash[:], msg)
	copy(k.sig[:], sig)
	return k, true
}

type sigEntry struct {
	key SigKey
	ok  bool
}

// signed is the part of a SigKey a verifier holds before it knows the
// signer: the 32-byte hash and the signature over it.
type signed struct {
	hash [32]byte
	sig  [ed25519.SignatureSize]byte
}

// SigCache memoizes (pubkey, hash, signature) → valid under a bounded LRU.
// Both outcomes are cached: a forged signature stays invalid forever, and
// re-rejecting it should be as cheap as re-accepting a genuine one. Valid
// entries are additionally indexed by (hash, signature), so a verifier that
// has to find which of many registered keys signed can ask Signer instead
// of trying every key. It is safe for concurrent use.
type SigCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List
	idx map[SigKey]*list.Element
	// signers maps (hash, sig) to the valid entry that carries it and loses
	// the slot with the entry, so it never outgrows cap and never names a
	// key whose cached verdict is negative.
	signers map[signed]*list.Element
}

// NewSigCache returns an empty cache bounded to capacity entries. Nothing
// is sized by the bound: the maps grow with the verdicts actually stored,
// so a cache that sees a hundred signatures costs what a hundred cost.
func NewSigCache(capacity int) *SigCache {
	return &SigCache{
		cap:     capacity,
		ll:      list.New(),
		idx:     make(map[SigKey]*list.Element),
		signers: make(map[signed]*list.Element),
	}
}

// Get returns the memoized verdict and whether it was present.
func (c *SigCache) Get(k SigKey) (ok, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.idx[k]
	if !found {
		return false, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*sigEntry).ok, true
}

// Put records a verdict as the most recently used, replacing the key's
// earlier verdict if any, and evicts the least-recently-used entry beyond
// capacity. Only a valid verdict enters the signer index.
func (c *SigCache) Put(k SigKey, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.idx[k]; found {
		c.remove(el)
	}
	el := c.ll.PushFront(&sigEntry{key: k, ok: ok})
	c.idx[k] = el
	if ok {
		c.signers[signed{k.hash, k.sig}] = el
	}
	if c.ll.Len() > c.cap {
		c.remove(c.ll.Back())
	}
}

// remove drops an entry from the LRU, the verdict index and, if the entry
// is the one it names, the signer index.
func (c *SigCache) remove(el *list.Element) {
	k := el.Value.(*sigEntry).key
	if s := (signed{k.hash, k.sig}); c.signers[s] == el {
		delete(c.signers, s)
	}
	c.ll.Remove(el)
	delete(c.idx, k)
}

// Signer returns the public key under which sig is already known to be a
// valid signature of the 32-byte hash msg, if such a verdict is cached.
// Negative verdicts are never returned. The answer is a hint about which
// key to try, not a verification: callers that restrict who may sign check
// the key against their own registry and confirm with Verify (a cache hit).
func (c *SigCache) Signer(msg, sig []byte) (ed25519.PublicKey, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.signerOf(msg, sig)
	if el == nil {
		return nil, false
	}
	pub := el.Value.(*sigEntry).key.pub
	return pub[:], true
}

// Forget drops the verdict Signer would name for (msg, sig): the caller
// has accepted what it certified and will not ask again.
func (c *SigCache) Forget(msg, sig []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.signerOf(msg, sig); el != nil {
		c.remove(el)
	}
}

// signerOf is the signer-index entry for (msg, sig), or nil; c.mu is held.
func (c *SigCache) signerOf(msg, sig []byte) *list.Element {
	var s signed
	if len(msg) != len(s.hash) || len(sig) != len(s.sig) {
		return nil
	}
	copy(s.hash[:], msg)
	copy(s.sig[:], sig)
	return c.signers[s]
}

// Len reports the number of cached verdicts.
func (c *SigCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Verify is Verify memoized through the cache. hit reports whether the
// verdict came from the memo; non-canonical inputs are verified directly and
// never cached.
func (c *SigCache) Verify(pub ed25519.PublicKey, msg, sig []byte) (ok, hit bool) {
	key, cacheable := SigKeyFor(pub, msg, sig)
	if !cacheable {
		return Verify(pub, msg, sig), false
	}
	if ok, hit := c.Get(key); hit {
		return ok, true
	}
	ok = Verify(pub, msg, sig)
	c.Put(key, ok)
	return ok, false
}
