package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"agnopol/internal/did"
	"agnopol/internal/ipfs"
	"agnopol/internal/polcrypto"
)

// Multi-witness quorum proofs — the mitigation for the collusion attacks
// the thesis leaves as future work ("it will be useful to modify the
// architecture proposed by us to solve the issues of the collusion
// attacks", Conclusion). A single dishonest witness can certify an absent
// accomplice; requiring q independent, CA-registered witnesses raises the
// bar to q colluders physically spread across the claimed area.
//
// The bundle of proofs lives on IPFS (it grows with q); the on-chain record
// stores the bundle CID plus the bundle hash, prefixed "Q" so verifiers
// know which verification procedure applies. The quorum record is a second
// record format on the one proof pipeline: staging is Prover.stage and
// settlement is Verifier.verify, as for SubmitProof and VerifyProver; only
// the format and its check live here.

// ProofBundle is the prover's collection of proofs for one claim. All
// entries certify the same DID, area, report CID and wallet; they differ in
// nonce and witness.
type ProofBundle struct {
	Proofs []*LocationProof `json:"proofs"`
}

// Quorum errors.
var (
	ErrQuorumTooSmall     = errors.New("core: not enough distinct valid witnesses in bundle")
	ErrBundleInconsistent = errors.New("core: bundle proofs do not certify the same claim")
	ErrNotQuorumRecord    = errors.New("core: on-chain record is not a quorum record")
)

// wireProof is one bundle entry as stored on IPFS, byte fields in hex.
type wireProof struct {
	DID        string `json:"did"`
	OLC        string `json:"olc"`
	Nonce      uint64 `json:"nonce"`
	CID        string `json:"cid"`
	Wallet     string `json:"wallet"`
	Hash       string `json:"hash"`
	Signature  string `json:"signature"`
	WitnessPub string `json:"witnessPub"`
}

// marshalBundle serializes the bundle for IPFS storage.
func marshalBundle(b *ProofBundle) ([]byte, error) {
	out := make([]wireProof, 0, len(b.Proofs))
	for _, p := range b.Proofs {
		out = append(out, wireProof{
			DID:        string(p.Request.DID),
			OLC:        p.Request.OLC,
			Nonce:      p.Request.Nonce,
			CID:        string(p.Request.CID),
			Wallet:     hex.EncodeToString(p.Request.Wallet[:]),
			Hash:       hex.EncodeToString(p.Hash[:]),
			Signature:  hex.EncodeToString(p.Signature),
			WitnessPub: hex.EncodeToString(p.WitnessPub),
		})
	}
	return json.MarshalIndent(map[string]any{"proofs": out}, "", " ")
}

// unmarshalBundle parses the wire form back.
func unmarshalBundle(data []byte) (*ProofBundle, error) {
	var wire struct {
		Proofs []wireProof `json:"proofs"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("core: bundle: %w", err)
	}
	b := &ProofBundle{}
	for _, w := range wire.Proofs {
		p := &LocationProof{}
		p.Request.DID = did.DID(w.DID)
		p.Request.OLC = w.OLC
		p.Request.Nonce = w.Nonce
		p.Request.CID = ipfs.CID(w.CID)
		wallet, err := hex.DecodeString(w.Wallet)
		if err != nil || len(wallet) != 20 {
			return nil, fmt.Errorf("core: bundle wallet: %v", err)
		}
		copy(p.Request.Wallet[:], wallet)
		h, err := hex.DecodeString(w.Hash)
		if err != nil || len(h) != 32 {
			return nil, fmt.Errorf("core: bundle hash: %v", err)
		}
		copy(p.Hash[:], h)
		if p.Signature, err = hex.DecodeString(w.Signature); err != nil {
			return nil, fmt.Errorf("core: bundle signature: %w", err)
		}
		pub, err := hex.DecodeString(w.WitnessPub)
		if err != nil {
			return nil, fmt.Errorf("core: bundle witness key: %w", err)
		}
		p.WitnessPub = pub
		b.Proofs = append(b.Proofs, p)
	}
	return b, nil
}

// quorumConcat builds the on-chain record for a quorum submission: lower-case
// hex of the bundle hash, then the bundle CID.
func quorumConcat(bundleCID ipfs.CID, bundleHash [32]byte) []byte {
	return []byte("Q-" + hex.EncodeToString(bundleHash[:]) + "-" + string(bundleCID))
}

// parseQuorumConcat decodes it. Only the line quorumConcat writes for the
// fields it decodes to is accepted, so one quorum record has exactly one
// on-chain form.
func parseQuorumConcat(data []byte) (ipfs.CID, [32]byte, error) {
	var hash [32]byte
	parts := bytes.SplitN(data, []byte("-"), 3)
	if len(parts) != 3 || string(parts[0]) != "Q" {
		return "", hash, ErrNotQuorumRecord
	}
	h, err := hex.DecodeString(string(parts[1]))
	if err != nil || len(h) != 32 {
		return "", hash, fmt.Errorf("%w: hash field %.16q", ErrNotQuorumRecord, parts[1])
	}
	copy(hash[:], h)
	cid := ipfs.CID(parts[2])
	if !bytes.Equal(quorumConcat(cid, hash), data) {
		return "", hash, fmt.Errorf("%w: not in canonical form", ErrNotQuorumRecord)
	}
	return cid, hash, nil
}

// RequestProofQuorum collects proofs from q distinct witnesses (each with
// its own challenge–response and nonce) for the same claim.
func (p *Prover) RequestProofQuorum(witnesses []*Witness, cid ipfs.CID, wallet [20]byte) (*ProofBundle, error) {
	bundle := &ProofBundle{}
	for _, w := range witnesses {
		proof, err := p.RequestProof(w, cid, wallet)
		if err != nil {
			return nil, fmt.Errorf("core: quorum witness %s: %w", w.DID, err)
		}
		bundle.Proofs = append(bundle.Proofs, proof)
	}
	if err := p.sys.validateBundle(bundle); err != nil {
		return nil, err
	}
	return bundle, nil
}

// SubmitProofQuorum stores the bundle on IPFS and stages the quorum record
// on-chain — SubmitProof's flow with the quorum record in place of
// ConcatData.
func (p *Prover) SubmitProofQuorum(conn Connector, bundle *ProofBundle, rewardPerProver uint64) (*SubmissionResult, error) {
	if err := p.sys.validateBundle(bundle); err != nil {
		return nil, err
	}
	data, err := marshalBundle(bundle)
	if err != nil {
		return nil, err
	}
	bundleCID, err := p.pin(data)
	if err != nil {
		return nil, err
	}
	record := quorumConcat(bundleCID, polcrypto.Hash(data))
	return p.stage(conn, bundle.Proofs[0].Request.OLC, record, rewardPerProver)
}

// VerifyProverQuorum is VerifyProver for a quorum record: fetch the bundle,
// check its integrity against the on-chain hash, validate every proof, and
// count the distinct CA-registered witnesses (excluding the prover itself).
// Only when at least `quorum` independent witnesses certified the claim
// does the report check and the on-chain verify (reward + garbage-in)
// proceed.
func (v *Verifier) VerifyProverQuorum(conn Connector, h *Handle, prover did.DID, quorum int) (*Verification, error) {
	return v.verify(conn, h, prover, func(st staged) (ProofRequest, error) {
		bundleCID, bundleHash, err := parseQuorumConcat(st.line)
		if err != nil {
			return ProofRequest{}, err
		}
		data, err := v.fetchReport(conn, bundleCID)
		if err != nil {
			return ProofRequest{}, err
		}
		if polcrypto.Hash(data) != bundleHash {
			return ProofRequest{}, ErrHashMismatch
		}
		bundle, err := unmarshalBundle(data)
		if err != nil {
			return ProofRequest{}, err
		}
		if err := v.sys.validateBundle(bundle); err != nil {
			return ProofRequest{}, err
		}
		req := bundle.Proofs[0].Request
		if req.DID != st.prover {
			return ProofRequest{}, ErrBundleInconsistent
		}
		// The contract's area must be the certified area.
		if req.OLC != st.area {
			return ProofRequest{}, ErrHashMismatch
		}
		distinct := make(map[string]bool)
		for _, p := range bundle.Proofs {
			// Self-signed entries and unregistered keys never count.
			if !bytes.Equal(p.WitnessPub, st.proverKey) && v.sys.CA.IsKnownWitness(p.WitnessPub) {
				distinct[string(p.WitnessPub)] = true
			}
		}
		if len(distinct) < quorum {
			return ProofRequest{}, fmt.Errorf("%w: %d < %d", ErrQuorumTooSmall, len(distinct), quorum)
		}
		return req, nil
	})
}
