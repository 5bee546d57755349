package polcrypto

import (
	"encoding/binary"
	"math"
)

// VRFOutput is the pseudorandom output of a VRF evaluation. Algorand's
// cryptographic sortition maps it into [0,1) to weight proposer selection.
type VRFOutput [32]byte

var vrfDomain = []byte("agnopol/vrf/v1")

// VRFEvaluate computes the VRF output for seed under the key pair.
//
// Construction: output = SHA-256(Sign(sk, domain||seed)). ed25519
// signatures are deterministic ("unique signatures"), which gives the
// uniqueness property a VRF needs: there is exactly one valid output per
// (key, seed) pair. No caller checks another participant's evaluation, so
// the signature, the VRF's proof, is not returned.
func VRFEvaluate(kp *KeyPair, seed []byte) VRFOutput {
	msg := append(append([]byte{}, vrfDomain...), seed...)
	return VRFOutput(Hash(kp.Sign(msg)))
}

// Fraction maps the VRF output to a float in [0,1) with 52 bits of the
// digest, the input to the sortition threshold test.
func (o VRFOutput) Fraction() float64 {
	u := binary.BigEndian.Uint64(o[:8])
	return float64(u>>12) / float64(uint64(1)<<52)
}

// Sortition implements Algorand-style cryptographic self-selection: given a
// VRF output, the caller's stake, the total online stake and the expected
// committee size, it returns j — how many "sub-users" of the caller were
// selected. j follows Binomial(stake, expectedSize/totalStake) and is derived
// from the VRF fraction by walking the binomial CDF, exactly as in the
// Algorand paper (Gilad et al., SOSP'17, Algorithm 1).
func Sortition(out VRFOutput, stake, totalStake uint64, expectedSize float64) uint64 {
	if stake == 0 || totalStake == 0 {
		return 0
	}
	p := expectedSize / float64(totalStake)
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return stake
	}
	frac := out.Fraction()
	// Walk the Binomial(stake, p) CDF until it exceeds frac. Stake values in
	// the simulator are small enough (≤ a few million) that iterating with
	// log-space terms is stable; we cap the walk because the tail beyond
	// ~50 selections is astronomically unlikely for our parameters.
	logP := math.Log(p)
	logQ := math.Log1p(-p)
	n := float64(stake)
	// term_0 = q^n
	logTerm := n * logQ
	cdf := math.Exp(logTerm)
	j := uint64(0)
	for cdf < frac && j < stake {
		// term_{j+1} = term_j * (n-j)/(j+1) * p/q
		logTerm += math.Log(n-float64(j)) - math.Log(float64(j)+1) + logP - logQ
		cdf += math.Exp(logTerm)
		j++
		if j > 64 && cdf >= 1-1e-15 {
			break
		}
	}
	return j
}
