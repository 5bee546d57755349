package algorand

import (
	"encoding/binary"
	"fmt"

	"agnopol/internal/chain"
	"agnopol/internal/polcrypto"
)

// Participant is an online account taking part in consensus. In pure
// proof-of-stake no minimum stake is required and selection probability is
// proportional to stake (§1.4.2.1).
type Participant struct {
	Key     *polcrypto.KeyPair
	Address chain.Address
	Stake   uint64
}

// Credential proves a participant's role in a round: the VRF output and
// proof anyone can verify (§1.4.2: members learn of their role secretly but
// can prove it).
type Credential struct {
	Participant chain.Address
	Output      polcrypto.VRFOutput
	Proof       polcrypto.VRFProof
	// SubUsers is j — how many of the participant's stake-weighted
	// sub-users the sortition selected.
	SubUsers uint64
}

// Vote is a committee member's certification vote on a block proposal.
// Step is the BA voting step the vote belongs to: when one step's committee
// does not reach the weight threshold, the protocol runs further steps with
// fresh sortition seeds until it does.
type Vote struct {
	Credential Credential
	BlockHash  chain.Hash32
	Step       uint64
	Signature  []byte
}

// Certificate is the set of committee votes that finalizes a block.
type Certificate struct {
	BlockHash chain.Hash32
	Votes     []Vote
}

// sortitionSeed derives the per-round, per-role VRF seed.
func sortitionSeed(prevSeed chain.Hash32, round uint64, role string) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], round)
	h := polcrypto.Hash(prevSeed[:], buf[:], []byte(role))
	return h[:]
}

// runSortition evaluates every participant's VRF for a role and returns the
// credentials with j > 0 in participant order. The evaluations are
// independent and deterministic, so they fan out across cores into
// participant-indexed slots; the result does not depend on GOMAXPROCS.
func runSortition(parts []*Participant, totalStake uint64, seed []byte, expected float64) []Credential {
	creds := make([]Credential, len(parts))
	chain.FanOut(len(parts), len(parts), func(i int) {
		p := parts[i]
		vrfOut, proof := polcrypto.VRFEvaluate(p.Key, seed)
		if j := polcrypto.Sortition(vrfOut, p.Stake, totalStake, expected); j > 0 {
			creds[i] = Credential{
				Participant: p.Address,
				Output:      vrfOut,
				Proof:       proof,
				SubUsers:    j,
			}
		}
	})
	out := creds[:0]
	for _, cred := range creds {
		if cred.SubUsers > 0 {
			out = append(out, cred)
		}
	}
	return out
}

// proposalPriority orders proposer credentials: the lowest hash of
// (output, subUser) across selected sub-users wins, as in the Algorand
// paper.
func proposalPriority(c Credential) [32]byte {
	best := [32]byte{}
	for i := range best {
		best[i] = 0xff
	}
	for j := uint64(0); j < c.SubUsers; j++ {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], j)
		h := polcrypto.Hash(c.Output[:], buf[:])
		if lessBytes(h[:], best[:]) {
			best = h
		}
	}
	return best
}

func lessBytes(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// VerifyCredential checks a credential against the registry of
// participants: valid VRF proof and honest sub-user count.
func VerifyCredential(c Credential, byAddr map[chain.Address]*Participant, totalStake uint64, seed []byte, expected float64) error {
	p, ok := byAddr[c.Participant]
	if !ok {
		return fmt.Errorf("algorand: unknown participant %s", c.Participant)
	}
	if !polcrypto.VRFVerify(p.Key.Public, seed, c.Output, c.Proof) {
		return fmt.Errorf("algorand: invalid VRF proof from %s", c.Participant)
	}
	want := polcrypto.Sortition(c.Output, p.Stake, totalStake, expected)
	if want != c.SubUsers {
		return fmt.Errorf("algorand: %s claims %d sub-users, sortition gives %d",
			c.Participant, c.SubUsers, want)
	}
	if want == 0 {
		return fmt.Errorf("algorand: %s was not selected", c.Participant)
	}
	return nil
}

// committeeSeed derives the sortition seed of one BA voting step.
func committeeSeed(prevSeed chain.Hash32, round, step uint64) []byte {
	return sortitionSeed(prevSeed, round, fmt.Sprintf("committee/%d", step))
}

// VerifyCertificate checks a block certificate: every vote carries a valid
// committee credential for its step and a valid signature, and the weighted
// votes reach the threshold.
func (c *Chain) VerifyCertificate(round uint64, prevSeed chain.Hash32, cert *Certificate) error {
	weight := uint64(0)
	for _, v := range cert.Votes {
		seed := committeeSeed(prevSeed, round, v.Step)
		if err := VerifyCredential(v.Credential, c.partsByAddr, c.totalStake, seed, c.cfg.ExpectedCommittee); err != nil {
			return err
		}
		p := c.partsByAddr[v.Credential.Participant]
		msg := append(append([]byte("vote:"), cert.BlockHash[:]...), seed...)
		if !polcrypto.Verify(p.Key.Public, msg, v.Signature) {
			return fmt.Errorf("algorand: bad vote signature from %s", v.Credential.Participant)
		}
		weight += v.Credential.SubUsers
	}
	need := uint64(c.cfg.CertThreshold * c.cfg.ExpectedCommittee)
	if weight < need {
		return fmt.Errorf("algorand: certificate weight %d below threshold %d", weight, need)
	}
	return nil
}
