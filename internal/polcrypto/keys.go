// Package polcrypto provides the cryptographic primitives used across the
// proof-of-location stack: ed25519 key pairs, hashing, verifiable random
// functions for Algorand-style sortition, and the binomial sortition
// procedure itself.
//
// Everything is built on the Go standard library. The VRF is a hash-based
// construction (unique signatures over ed25519) that preserves the two
// properties the consensus simulator relies on: the output is unpredictable
// without the private key, and anyone holding the public key can verify the
// (output, proof) pair.
package polcrypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
)

// KeyPair bundles an ed25519 signing key with its public half. It is the
// identity primitive for every actor in the system: provers, witnesses,
// verifiers, chain accounts and consensus participants.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKeyPair creates a fresh key pair reading entropy from rand. Pass a
// deterministic reader (for example chain.NewRand) to make tests and
// simulations reproducible.
func GenerateKeyPair(rand io.Reader) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("generate ed25519 key: %w", err)
	}
	return &KeyPair{Public: pub, private: priv}, nil
}

// MustGenerateKeyPair is GenerateKeyPair for contexts (tests, simulations
// seeded with deterministic readers) where entropy failure is impossible.
func MustGenerateKeyPair(rand io.Reader) *KeyPair {
	kp, err := GenerateKeyPair(rand)
	if err != nil {
		panic(err)
	}
	return kp
}

// Sign signs msg with the private key.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// pooledHasher carries the sum buffer alongside the SHA-256 state: Sum
// writes through a hash.Hash interface call, so a stack-local destination
// would be forced to the heap on every Hash — folding it into the pooled
// object keeps the multi-part path allocation-free.
type pooledHasher struct {
	h   hash.Hash
	sum [32]byte
}

// hasherPool recycles SHA-256 state for multi-part hashes so the VM hot
// loops (KECCAK256 handler, AVM sha256, precompiles) never allocate a fresh
// hasher per operation.
var hasherPool = sync.Pool{New: func() any { return &pooledHasher{h: sha256.New()} }}

// Hash1 returns the SHA-256 digest of a single byte slice without touching
// the heap. The VM interpreters call this on every hash opcode.
func Hash1(p []byte) [32]byte {
	return sha256.Sum256(p)
}

// Hash returns the SHA-256 digest of the concatenation of the given parts.
// It is the system-wide one-way hash: proof hashes, CIDs, hypercube keys and
// block hashes all go through it.
func Hash(parts ...[]byte) [32]byte {
	if len(parts) == 1 {
		return sha256.Sum256(parts[0])
	}
	s := hasherPool.Get().(*pooledHasher)
	s.h.Reset()
	for _, p := range parts {
		s.h.Write(p)
	}
	s.h.Sum(s.sum[:0])
	out := s.sum
	hasherPool.Put(s)
	return out
}

// HashHex returns Hash as a lower-case hex string.
func HashHex(parts ...[]byte) string {
	h := Hash(parts...)
	return hex.EncodeToString(h[:])
}

// ErrBadSignature is returned by helpers that verify signatures and need to
// distinguish "invalid signature" from transport errors.
var ErrBadSignature = errors.New("polcrypto: invalid signature")
