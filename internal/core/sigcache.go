package core

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"

	"agnopol/internal/polcrypto"
)

// The bounded signature memo is polcrypto.SigCache. This file keeps the
// System-level wiring: counter instrumentation and the proof verification
// paths.

// defaultSigCacheSize bounds the system's signature-verification memo.
const defaultSigCacheSize = polcrypto.DefaultSigCacheSize

// verifySig is polcrypto.Verify memoized through the system's signature
// cache. Its one use on the honest path is to carry the prover's
// certificate verdict (verifyProof, at RequestProof) to the verifier's
// witness lookup, so the designated verifier accepts a proof without a
// second ed25519 verification. Hits and misses (a miss is a real ed25519
// verification) feed core_sigcache_total when the system is instrumented.
func (s *System) verifySig(pub ed25519.PublicKey, msg, sig []byte) bool {
	ok, hit := s.sigs.Verify(pub, msg, sig)
	s.countSigCache(hit)
	return ok
}

// verifyUnmemoized is polcrypto.Verify counted as a miss in
// core_sigcache_total, for a check whose verdict nothing reads again.
func (s *System) verifyUnmemoized(pub ed25519.PublicKey, msg, sig []byte) bool {
	s.countSigCache(false)
	return polcrypto.Verify(pub, msg, sig)
}

// witnessSigned reports whether sig opens hash under a CA-registered
// witness key other than the prover's own. The signature cache is asked
// first which key it already saw the signature verify under — the prover's
// certificate check in RequestProof put that verdict there — and the hinted
// key is accepted only if it passes the very conditions the scan applies:
// not the prover's key, registered with the CA, signature valid. A cold or
// evicted cache, or a hint that fails any of them, falls back to trying
// every registered key in registration order. Once a witness is found the
// positive verdict has served its proof and is forgotten, so the memo
// holds only proofs still waiting for their verifier.
func (s *System) witnessSigned(proverKey ed25519.PublicKey, hash, sig []byte) bool {
	if !s.findWitness(proverKey, hash, sig) {
		return false
	}
	s.sigs.Forget(hash, sig)
	return true
}

// findWitness is witnessSigned's lookup: the hinted key, then the scan.
// The scan checks each key outside the memo: a key that fails leaves no
// verdict behind, and one that opens the signature needs none, since
// witnessSigned would forget it at once.
func (s *System) findWitness(proverKey ed25519.PublicKey, hash, sig []byte) bool {
	if pub, ok := s.sigs.Signer(hash, sig); ok && !bytes.Equal(pub, proverKey) &&
		s.CA.IsKnownWitness(pub) && s.verifySig(pub, hash, sig) {
		return true
	}
	for _, pub := range s.CA.WitnessList() {
		if !bytes.Equal(pub, proverKey) && s.verifyUnmemoized(pub, hash, sig) {
			return true
		}
	}
	return false
}

// verifyProof checks formula 2.2: the proof hash matches the request
// fields, and the signature opens to that hash under the witness public
// key, checked through the signature cache. The prover's certificate
// check calls it.
func (s *System) verifyProof(p *LocationProof) error {
	if p.Request.Hash() != p.Hash {
		return errors.New("core: proof hash does not match request fields")
	}
	if !s.verifySig(p.WitnessPub, p.Hash[:], p.Signature) {
		return fmt.Errorf("core: %w", polcrypto.ErrBadSignature)
	}
	return nil
}
