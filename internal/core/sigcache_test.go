package core

import (
	"crypto/ed25519"
	"errors"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
)

func sigCacheCounters(t *testing.T, o *obs.Obs) (hits, misses uint64) {
	t.Helper()
	reg := o.Registry
	return reg.Counter("core_sigcache_total", obs.L("result", "hit")).Value(),
		reg.Counter("core_sigcache_total", obs.L("result", "miss")).Value()
}

// TestSigCacheHitAndCounters: the second verification of the same triple
// must come from the cache and bump the hit counter, for genuine and forged
// signatures alike.
func TestSigCacheHitAndCounters(t *testing.T) {
	sys, err := NewSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	sys.Instrument(o)

	rng := chain.NewRand(42)
	kp := polcrypto.MustGenerateKeyPair(rng)
	msg := polcrypto.Hash([]byte("claim"))
	sig := kp.Sign(msg[:])

	for round := 0; round < 3; round++ {
		if !sys.verifySig(kp.Public, msg[:], sig) {
			t.Fatalf("round %d: genuine signature rejected", round)
		}
	}
	hits, misses := sigCacheCounters(t, o)
	if misses != 1 || hits != 2 {
		t.Fatalf("genuine: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// A forged signature is cached as invalid — repeat checks are hits and
	// still rejected.
	forged := append([]byte(nil), sig...)
	forged[0] ^= 0xff
	for round := 0; round < 2; round++ {
		if sys.verifySig(kp.Public, msg[:], forged) {
			t.Fatalf("round %d: forged signature accepted", round)
		}
	}
	hits, misses = sigCacheCounters(t, o)
	if misses != 2 || hits != 3 {
		t.Fatalf("after forgery: hits=%d misses=%d, want 3/2", hits, misses)
	}
}

// TestSigCacheUncacheableShapes: inputs that are not (32-byte key, 32-byte
// hash, 64-byte sig) bypass the cache entirely.
func TestSigCacheUncacheableShapes(t *testing.T) {
	sys, err := NewSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := chain.NewRand(7)
	kp := polcrypto.MustGenerateKeyPair(rng)
	longMsg := []byte("not a 32-byte hash, deliberately longer than that")
	sig := kp.Sign(longMsg)
	for round := 0; round < 2; round++ {
		if !sys.verifySig(kp.Public, longMsg, sig) {
			t.Fatal("valid signature over non-hash message rejected")
		}
	}
	if n := sys.sigs.Len(); n != 0 {
		t.Fatalf("uncacheable input landed in the cache: len=%d", n)
	}
	if sys.verifySig(nil, longMsg, sig) {
		t.Fatal("nil public key accepted")
	}
}

// testSigKey builds a canonical-shape cache key whose hash leads with b.
func testSigKey(t *testing.T, b byte) polcrypto.SigKey {
	t.Helper()
	var msg [32]byte
	msg[0] = b
	k, ok := polcrypto.SigKeyFor(make([]byte, ed25519.PublicKeySize), msg[:], make([]byte, ed25519.SignatureSize))
	if !ok {
		t.Fatal("canonical key shape rejected")
	}
	return k
}

// TestSigCacheEviction: the LRU stays bounded and evicts oldest-first.
func TestSigCacheEviction(t *testing.T) {
	c := polcrypto.NewSigCache(3)
	keys := make([]polcrypto.SigKey, 5)
	for i := range keys {
		keys[i] = testSigKey(t, byte(i+1))
		c.Put(keys[i], true)
	}
	if c.Len() != 3 {
		t.Fatalf("cache len = %d, want 3", c.Len())
	}
	for i, want := range []bool{false, false, true, true, true} {
		if _, hit := c.Get(keys[i]); hit != want {
			t.Fatalf("key %d: hit=%v, want %v", i, hit, want)
		}
	}
	// Touching the oldest survivor protects it from the next eviction.
	c.Get(keys[2])
	fresh := testSigKey(t, 0xee)
	c.Put(fresh, false)
	if _, hit := c.Get(keys[2]); !hit {
		t.Fatal("recently-used entry evicted")
	}
	if _, hit := c.Get(keys[3]); hit {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if ok, hit := c.Get(fresh); !hit || ok {
		t.Fatalf("fresh entry: ok=%v hit=%v, want false/true", ok, hit)
	}
}

// verifyUncached is the oracle for System.verifyProof: the proof hash must
// match the request fields and the witness signature must verify, with no
// cache in between.
func verifyUncached(p *LocationProof) error {
	if p.Request.Hash() != p.Hash {
		return errors.New("proof hash does not match request fields")
	}
	if !polcrypto.Verify(p.WitnessPub, p.Hash[:], p.Signature) {
		return polcrypto.ErrBadSignature
	}
	return nil
}

// TestVerifyProofCachedMatchesUncached: the cached path agrees with the
// uncached check, verifyUncached, on both accept and reject.
func TestVerifyProofCachedMatchesUncached(t *testing.T) {
	sys, err := NewSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := chain.NewRand(9)
	kp := polcrypto.MustGenerateKeyPair(rng)
	proof := &LocationProof{
		Request:    ProofRequest{DID: "did:pol:abc", OLC: "8FQFMGGM+22", Nonce: 5},
		WitnessPub: kp.Public,
	}
	proof.Hash = proof.Request.Hash()
	proof.Signature = kp.Sign(proof.Hash[:])

	for round := 0; round < 2; round++ {
		pubErr, sysErr := verifyUncached(proof), sys.verifyProof(proof)
		if (pubErr == nil) != (sysErr == nil) {
			t.Fatalf("round %d: verifyUncached=%v verifyProof=%v", round, pubErr, sysErr)
		}
	}
	proof.Signature[3] ^= 0x40
	for round := 0; round < 2; round++ {
		pubErr, sysErr := verifyUncached(proof), sys.verifyProof(proof)
		if pubErr == nil || sysErr == nil {
			t.Fatalf("round %d: tampered proof accepted: verifyUncached=%v verifyProof=%v", round, pubErr, sysErr)
		}
	}
	// Tampered request: rejected before any signature math, so the cache is
	// untouched.
	n := sys.sigs.Len()
	bad := *proof
	bad.Request.Nonce++
	if err := sys.verifyProof(&bad); err == nil {
		t.Fatal("hash-mismatched proof accepted")
	}
	if sys.sigs.Len() != n {
		t.Fatal("hash mismatch reached the signature cache")
	}
}
