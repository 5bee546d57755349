package core

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"

	"agnopol/internal/polcrypto"
)

// The bounded LRU signature memo is polcrypto.SigCache. This file keeps the
// System-level wiring: counter instrumentation and the proof/bundle
// verification paths.

// defaultSigCacheSize bounds the system's signature-verification memo.
const defaultSigCacheSize = polcrypto.DefaultSigCacheSize

// verifySig is polcrypto.Verify memoized through the system's signature
// cache. Quorum validation re-checks the same (witness, hash, signature)
// triple at bundle collection, submission and on-chain verification; the
// scalar math runs once and every re-check is a map hit. Hits and misses
// (a miss is a real ed25519 verification) feed core_sigcache_total when the
// system is instrumented.
func (s *System) verifySig(pub ed25519.PublicKey, msg, sig []byte) bool {
	ok, hit := s.sigs.Verify(pub, msg, sig)
	s.countSigCache(hit)
	return ok
}

// witnessSigned reports whether sig opens hash under a CA-registered
// witness key other than the prover's own. The signature cache is asked
// first which key it already saw the signature verify under — the prover's
// certificate check in RequestProof put that verdict there — and the hinted
// key is accepted only if it passes the very conditions the scan applies:
// not the prover's key, registered with the CA, signature valid. A cold or
// evicted cache, or a hint that fails any of them, falls back to trying
// every registered key in registration order.
func (s *System) witnessSigned(proverKey ed25519.PublicKey, hash, sig []byte) bool {
	if pub, ok := s.sigs.Signer(hash, sig); ok && !bytes.Equal(pub, proverKey) &&
		s.CA.IsKnownWitness(pub) && s.verifySig(pub, hash, sig) {
		return true
	}
	for _, pub := range s.CA.WitnessList() {
		if !bytes.Equal(pub, proverKey) && s.verifySig(pub, hash, sig) {
			return true
		}
	}
	return false
}

// verifyProof is LocationProof.Verify routed through the signature cache.
// The public Verify stays self-contained (callers without a System keep
// working); every in-system verification path goes through here.
func (s *System) verifyProof(p *LocationProof) error {
	if p.Request.Hash() != p.Hash {
		return errors.New("core: proof hash does not match request fields")
	}
	if !s.verifySig(p.WitnessPub, p.Hash[:], p.Signature) {
		return fmt.Errorf("core: %w", polcrypto.ErrBadSignature)
	}
	return nil
}

// validateBundle checks a bundle's internal consistency: every proof
// verifies (through the signature cache) and certifies the same (DID, OLC,
// CID, wallet).
func (s *System) validateBundle(b *ProofBundle) error {
	if len(b.Proofs) == 0 {
		return fmt.Errorf("%w: empty bundle", ErrBundleInconsistent)
	}
	first := b.Proofs[0].Request
	for i, p := range b.Proofs {
		if err := s.verifyProof(p); err != nil {
			return fmt.Errorf("core: bundle proof %d: %w", i, err)
		}
		r := p.Request
		if r.DID != first.DID || r.OLC != first.OLC || r.CID != first.CID || r.Wallet != first.Wallet {
			return fmt.Errorf("%w: proof %d", ErrBundleInconsistent, i)
		}
	}
	return nil
}
