package algorand

import (
	"encoding/binary"

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

// Credential is a participant's role in a round: its VRF output on the
// role's seed, from which sortition draws its weight (§1.4.2).
type Credential struct {
	Participant chain.Address
	Output      polcrypto.VRFOutput
	// SubUsers is j — how many of the participant's stake-weighted
	// sub-users the sortition selected.
	SubUsers uint64
}

// sortitionSeed derives the per-round, per-role VRF seed.
func sortitionSeed(prevSeed chain.Hash32, round uint64, role string) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], round)
	h := polcrypto.Hash(prevSeed[:], buf[:], []byte(role))
	return h[:]
}

// vrfBatch is every participant's VRF evaluated on one role seed, started
// but not yet joined: evals is written only by the batch, and read only
// after wait. The evaluations are independent and deterministic, so they
// fan out across cores into their participant-indexed slots; the result
// does not depend on GOMAXPROCS.
type vrfBatch struct {
	seed  []byte
	evals []Credential
	run   *chain.Batch
}

// startVRFs starts the evaluations on seed and returns without waiting. The
// batch reads only the participant set, which never changes after
// construction, so it may outlive the Step that started it.
func (c *Chain) startVRFs(seed []byte) *vrfBatch {
	parts := c.participants
	evals := make([]Credential, len(parts))
	run := chain.Start(len(parts), len(parts), func(i int) {
		out := polcrypto.VRFEvaluate(parts[i].Key, seed)
		evals[i] = Credential{Participant: parts[i].Address, Output: out}
	})
	return &vrfBatch{seed: seed, evals: evals, run: run}
}

// wait joins the batch and returns its credentials, with no sub-users
// selected yet.
func (v *vrfBatch) wait() []Credential {
	v.run.Wait()
	return v.evals
}

// selectCredentials runs sortition at one expected size over evaluated
// outputs and returns the credentials with j > 0 in participant order. evals
// is left untouched, so one evaluation can be selected from more than once.
func (c *Chain) selectCredentials(evals []Credential, expected float64) []Credential {
	var out []Credential
	for i, cred := range evals {
		if j := polcrypto.Sortition(cred.Output, c.participants[i].Stake, c.totalStake, expected); j > 0 {
			cred.SubUsers = j
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
