package polcrypto

import (
	"container/list"
	"crypto/ed25519"
	"sync"
)

// DefaultSigCacheSize bounds a signature-verification memo. A quorum run
// re-checks every proof in a bundle at collection, submission and
// verification time; a few thousand entries cover the largest experiment
// matrix while keeping the cache at ~1 MiB worst case.
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
	// signers maps (hash, sig) to the valid entry that carries it. Only
	// entries with ok == true appear, each removed together with its LRU
	// element, so the index never outgrows cap and never names a key whose
	// cached verdict is negative.
	signers map[signed]*list.Element
}

// NewSigCache returns an empty cache bounded to capacity entries.
func NewSigCache(capacity int) *SigCache {
	if capacity < 1 {
		capacity = 1
	}
	return &SigCache{
		cap:     capacity,
		ll:      list.New(),
		idx:     make(map[SigKey]*list.Element, capacity),
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

// Put records a verdict, evicting the least-recently-used entry at capacity.
// Overwriting an existing key's verdict moves it into or out of the signer
// index accordingly.
func (c *SigCache) Put(k SigKey, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.idx[k]; found {
		c.unindexSigner(el)
		el.Value.(*sigEntry).ok = ok
		c.indexSigner(el)
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&sigEntry{key: k, ok: ok})
	c.idx[k] = el
	c.indexSigner(el)
	if c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.unindexSigner(back)
		c.ll.Remove(back)
		delete(c.idx, back.Value.(*sigEntry).key)
	}
}

// indexSigner makes a valid entry findable by its (hash, signature).
func (c *SigCache) indexSigner(el *list.Element) {
	if e := el.Value.(*sigEntry); e.ok {
		c.signers[signed{e.key.hash, e.key.sig}] = el
	}
}

// unindexSigner drops the signer-index slot that points at el, if any.
func (c *SigCache) unindexSigner(el *list.Element) {
	e := el.Value.(*sigEntry)
	if s := (signed{e.key.hash, e.key.sig}); c.signers[s] == el {
		delete(c.signers, s)
	}
}

// Signer returns the public key under which sig is already known to be a
// valid signature of the 32-byte hash msg, if such a verdict is cached.
// Negative verdicts are never returned. The answer is a hint about which
// key to try, not a verification: callers that restrict who may sign check
// the key against their own registry and confirm with Verify (a cache hit).
func (c *SigCache) Signer(msg, sig []byte) (ed25519.PublicKey, bool) {
	if len(msg) != 32 || len(sig) != ed25519.SignatureSize {
		return nil, false
	}
	var s signed
	copy(s.hash[:], msg)
	copy(s.sig[:], sig)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.signers[s]
	if !found {
		return nil, false
	}
	pub := el.Value.(*sigEntry).key.pub
	return pub[:], true
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
