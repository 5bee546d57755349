package algorand

import (
	"encoding/binary"
	"errors"
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

// maxVoteSteps bounds the BA voting steps of one round: Certificate stops
// there and VerifyCertificate accepts no vote from a later step.
const maxVoteSteps = 16

// ErrBadCertificate is wrapped by every VerifyCertificate failure.
var ErrBadCertificate = errors.New("algorand: bad certificate")

// sortitionSeed derives the per-round, per-role VRF seed.
func sortitionSeed(prevSeed chain.Hash32, round uint64, role string) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], round)
	h := polcrypto.Hash(prevSeed[:], buf[:], []byte(role))
	return h[:]
}

// evaluateVRFs evaluates every participant's VRF on a role seed and returns
// the participant-indexed credentials with no sub-users selected yet. The
// evaluations are independent and deterministic, so they fan out across
// cores into their slots; the result does not depend on GOMAXPROCS.
func (c *Chain) evaluateVRFs(seed []byte) []Credential {
	return c.startVRFs(seed).wait()
}

// vrfBatch is evaluateVRFs started but not yet joined: evals is written
// only by the batch, and read only after wait.
type vrfBatch struct {
	seed  []byte
	evals []Credential
	run   *chain.Batch
}

// startVRFs starts evaluateVRFs on seed and returns without waiting. The
// batch reads only the participant set, which never changes after
// construction, so it may outlive the Step that started it.
func (c *Chain) startVRFs(seed []byte) *vrfBatch {
	parts := c.participants
	evals := make([]Credential, len(parts))
	run := chain.Start(len(parts), len(parts), func(i int) {
		out, proof := polcrypto.VRFEvaluate(parts[i].Key, seed)
		evals[i] = Credential{Participant: parts[i].Address, Output: out, Proof: proof}
	})
	return &vrfBatch{seed: seed, evals: evals, run: run}
}

// wait joins the batch and returns its credentials.
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

// voteMessage is what a committee member of the step with seed signs.
func voteMessage(blockHash chain.Hash32, seed []byte) []byte {
	return append(append([]byte("vote:"), blockHash[:]...), seed...)
}

// certWeight is the sortition weight a certificate must carry.
func (c *Chain) certWeight() uint64 {
	return uint64(c.cfg.CertThreshold * c.cfg.ExpectedCommittee)
}

// Certificate produces the committee certificate of a block this chain
// certified: BA voting steps run, each with a fresh sortition seed, until
// the accumulated weight reaches the certification threshold. It is a pure
// function of the participant set and the block — Step does not wait on it
// and nothing is cached — so the same block yields the same bytes whenever
// and at whatever GOMAXPROCS it is asked for. Blocks the chain did not
// produce (genesis, a checkpoint-restored head) have no certificate.
func (c *Chain) Certificate(blk *Block) *Certificate {
	if blk.Proposer.SubUsers == 0 {
		return nil
	}
	cert := &Certificate{BlockHash: blk.Hash}
	need := c.certWeight()
	weight := uint64(0)
	for step := uint64(0); weight < need && step < maxVoteSteps; step++ {
		comSeed := committeeSeed(blk.PrevSeed, blk.Round, step)
		committee := c.selectCredentials(c.evaluateVRFs(comSeed), c.cfg.ExpectedCommittee)
		msg := voteMessage(blk.Hash, comSeed)
		base := len(cert.Votes)
		cert.Votes = append(cert.Votes, make([]Vote, len(committee))...)
		chain.FanOut(len(committee), len(committee), func(i int) {
			cred := committee[i]
			cert.Votes[base+i] = Vote{
				Credential: cred,
				BlockHash:  blk.Hash,
				Step:       step,
				Signature:  c.partsByAddr[cred.Participant].Key.Sign(msg),
			}
		})
		for _, cred := range committee {
			weight += cred.SubUsers
		}
	}
	return cert
}

// VerifyCertificate checks a certificate against the block it claims to
// finalize: it and every vote name the block's hash, every vote carries a
// valid committee credential for its step (below the step bound) and a
// valid signature, no participant votes twice in a step, and the weighted
// votes reach the threshold. Failures wrap ErrBadCertificate.
func (c *Chain) VerifyCertificate(blk *Block, cert *Certificate) error {
	if cert == nil || cert.BlockHash != blk.Hash {
		return fmt.Errorf("%w: not a certificate of block %s", ErrBadCertificate, blk.Hash)
	}
	type ballot struct {
		voter chain.Address
		step  uint64
	}
	seen := make(map[ballot]bool, len(cert.Votes))
	weight := uint64(0)
	for _, v := range cert.Votes {
		who := v.Credential.Participant
		if v.BlockHash != blk.Hash {
			return fmt.Errorf("%w: vote from %s is for block %s", ErrBadCertificate, who, v.BlockHash)
		}
		if v.Step >= maxVoteSteps {
			return fmt.Errorf("%w: vote from %s in step %d, past the bound %d", ErrBadCertificate, who, v.Step, maxVoteSteps)
		}
		if seen[ballot{who, v.Step}] {
			return fmt.Errorf("%w: %s votes twice in step %d", ErrBadCertificate, who, v.Step)
		}
		seen[ballot{who, v.Step}] = true
		seed := committeeSeed(blk.PrevSeed, blk.Round, v.Step)
		if err := VerifyCredential(v.Credential, c.partsByAddr, c.totalStake, seed, c.cfg.ExpectedCommittee); err != nil {
			return fmt.Errorf("%w: %v", ErrBadCertificate, err)
		}
		if !polcrypto.Verify(c.partsByAddr[who].Key.Public, voteMessage(blk.Hash, seed), v.Signature) {
			return fmt.Errorf("%w: bad vote signature from %s", ErrBadCertificate, who)
		}
		weight += v.Credential.SubUsers
	}
	if need := c.certWeight(); weight < need {
		return fmt.Errorf("%w: weight %d below threshold %d", ErrBadCertificate, weight, need)
	}
	return nil
}
